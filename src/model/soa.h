// Structure-of-arrays view of a Network, shared by the evaluation and
// search hot paths.
//
// The solvers' inner loops used to call back into Network accessors
// (bounds-checked, AoS) and rebuild derived tables — the reciprocal rate
// matrix, the PLC-domain CSR — once per evaluator construction or search.
// NetworkSoA hoists all of it into contiguous arrays built once per network
// mutation: Refresh() is a no-op while Network::Version() is unchanged, so
// a solver that evaluates thousands of candidate assignments against one
// network pays for the O(U x E) build exactly once.
//
// Invalidation contract: the view is keyed on (source pointer, version).
// Any Network mutator bumps the version; Refresh() then rebuilds. A caller
// holding raw pointers into the arrays (e.g. InvRow) must not mutate the
// network while using them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/network.h"

namespace wolt::model {

struct NetworkSoA {
  std::size_t num_users = 0;
  std::size_t num_extenders = 0;
  std::size_t num_domains = 0;

  // 1 / r_ij, row-major [user][extender]; 0 when user i cannot reach
  // extender j (r_ij has no other way to produce 0 — rates are finite and
  // non-negative), so the sentinel doubles as the reachability test.
  std::vector<double> inv_rate;
  std::vector<double> plc_rate;   // c_j
  std::vector<double> demand;     // per-user offered load, 0 = saturated
  std::vector<int> cap;           // B_j, 0 = unconstrained
  std::vector<int> plc_domain;    // domain id per extender
  // CSR grouping of extenders by PLC domain, ascending extender id within a
  // domain — the member order every airtime allocator in model/ uses, so
  // arithmetic stays bit-identical across engines.
  std::vector<int> domain_start;  // size num_domains + 1
  std::vector<int> domain_items;  // size num_extenders
  std::vector<int> domain_size;   // size num_domains
  // True iff some user carries a finite demand (whether assigned or not).
  // When false, evaluators can take the saturated fast path without a
  // per-assignment demand scan.
  bool any_finite_demand = false;

  // Rebuild from `net` unless the cached (source, version) already matches.
  // Returns true when a rebuild happened.
  bool Refresh(const Network& net);

  // True while the view matches `net` in its current version.
  bool Matches(const Network& net) const {
    return source_ == &net && version_ == net.Version();
  }

  const double* InvRow(std::size_t user) const {
    return inv_rate.data() + user * num_extenders;
  }

  // Column-major copy of inv_rate ([extender][user]), built on the first
  // call per version: only the local search's pairwise swap stage reads it,
  // so evaluator-only users never pay for the transpose. Not thread-safe on
  // its first call per version; call it before sharing the view.
  const double* InvRateColumns() const;

 private:
  const Network* source_ = nullptr;
  std::uint64_t version_ = 0;
  bool built_ = false;
  mutable std::vector<double> inv_rate_t_;
  mutable bool transposed_ = false;
};

}  // namespace wolt::model
