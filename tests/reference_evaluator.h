// Test-only reference for the flow-level throughput model (§III-A/§IV-A):
// a straight-line re-implementation of Evaluator::Evaluate that walks the
// Network accessors and rebuilds every derived table per call. It carries
// its own progressive filling, equal shares, co-channel union-find,
// demand-aware cell allocation and capped user split, so a bug in the
// production kernel cannot also hide here. The differential suites
// (evaluator_soa_test, kernel_exhaustive_test) require the production
// kernel to match it bit for bit in every EvalResult field.
#pragma once

#include "model/assignment.h"
#include "model/evaluator.h"
#include "model/network.h"

namespace wolt::model::reference {

// What one evaluation went through, for coverage assertions.
struct Trace {
  bool demand_regime = false;     // some assigned user had a finite demand
  bool dead_backhaul = false;     // some active extender had c_j = 0
  int maxmin_rounds = 0;          // progressive-filling rounds, all domains
  int max_maxmin_rounds = 0;      // most progressive-filling rounds, any domain
  int max_contending_cells = 0;   // most active cells in one co-channel domain
};

// Same results and same std::invalid_argument cases as Evaluator::Evaluate
// under `options`; records no metrics. `trace`, when given, is filled in.
EvalResult Evaluate(const EvalOptions& options, const Network& net,
                    const Assignment& assign, Trace* trace = nullptr);

}  // namespace wolt::model::reference
