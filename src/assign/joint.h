// Joint user-association + WiFi-channel assignment.
//
// The paper assumes every extender owns a non-overlapping channel, so
// association can ignore the air entirely (§V-A). With more extenders than
// orthogonal channels that assumption breaks: co-channel cells within
// carrier-sense range time-share airtime (EvalOptions::wifi_channel), and
// the association and the channel plan must be optimized *jointly* (Bosio &
// Yuan, PAPERS.md). This module provides:
//
//  * SolveJointNaive — the retired assumption made explicit: associate as if
//    channels were free (plan-blind), colour the interference graph
//    unweighted, then score the pair under overlap. The floor every joint
//    method must beat.
//  * SolveJointAlternating — associate → recolour (association-weighted
//    greedy colouring, wifi::AssignChannelsWeighted) → reassociate, keeping
//    only strict improvements, until a fixed point, a round cap, or
//    deadline-token expiry. Seeded from the naive pair, so its result
//    dominates naive by construction; on expiry the incumbent is always a
//    valid (assignment, plan) pair.
//  * SolveJointBruteForce — exhaustive reference for small instances:
//    enumerates every channel plan jointly with every assignment
//    (num_channels^|A| x (|A|[+1])^|U|). The differential harness pins
//    joint-BF >= alternating >= naive (tests/joint_differential_test.cc).
//
// Association is delegated through a JointAssociator callback so this layer
// stays below core/ (core::WoltJointAssociator adapts the full WOLT policy;
// tests can plug in greedy or exact oracles).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "model/assignment.h"
#include "model/evaluator.h"
#include "model/network.h"
#include "util/deadline.h"

namespace wolt::assign {

// Association oracle: produce an assignment for `net` under `eval` (which
// carries the candidate channel plan in eval.wifi_channel; empty = the
// orthogonal assumption). `previous` is the incumbent assignment (all
// kUnassigned on the first call); `deadline` may be null. Implementations
// must return a valid assignment even on deadline expiry (best-so-far).
using JointAssociator = std::function<model::Assignment(
    const model::Network& net, const model::EvalOptions& eval,
    const model::Assignment& previous, const util::Deadline* deadline)>;

struct JointOptions {
  // Orthogonal channels available to the plan.
  int num_channels = 3;
  // Co-channel extenders within this range contend (both for colouring the
  // interference graph and for the evaluator's derived domains).
  double carrier_sense_range_m = 60.0;
  // Scoring model (plc_sharing etc.). Any wifi_channel already present is
  // ignored: the solver installs its own candidate plans.
  model::EvalOptions eval;
  // Alternating-solver round cap (each round = recolour + reassociate).
  int max_rounds = 8;
  // Optional cooperative budget; null = unlimited.
  const util::Deadline* deadline = nullptr;
  // Brute force only: abort if plans x assignments exceeds this.
  std::uint64_t max_combinations = 50'000'000;
  // Brute force only: search the relaxed problem (users may stay
  // unassigned).
  bool allow_unassigned = false;
};

struct JointResult {
  model::Assignment assignment;
  std::vector<int> channels;  // one channel per extender
  double aggregate_mbps = 0.0;
  int rounds = 0;          // alternating rounds executed
  bool converged = false;  // stopped at a fixed point (not cap/deadline)
  bool deadline_hit = false;
  std::uint64_t evaluated = 0;  // brute force: assignments evaluated
};

// Scores an (assignment, plan) pair under the overlap model: options.eval
// with the plan installed as wifi_channel. The yardstick every solver here
// and the differential tests share.
double EvaluateUnderOverlap(const model::Network& net,
                            const model::Assignment& assignment,
                            const std::vector<int>& channels,
                            const JointOptions& options);

JointResult SolveJointNaive(const model::Network& net,
                            const JointAssociator& associate,
                            const JointOptions& options = {});

JointResult SolveJointAlternating(const model::Network& net,
                                  const JointAssociator& associate,
                                  const JointOptions& options = {});

JointResult SolveJointBruteForce(const model::Network& net,
                                 const JointOptions& options = {});

}  // namespace wolt::assign
