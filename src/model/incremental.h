// Incremental delta-evaluation engine for the Phase-II search.
//
// The Phase-II local search (relocate / swap / greedy-insert moves) needs
// the objective value of thousands of candidate assignments that each
// differ from the current one by a single user. Re-running the full
// Evaluator per candidate costs O(U + E) with ~10 heap allocations; this
// engine instead maintains the evaluation state as mutable per-extender /
// per-PLC-domain aggregates:
//
//   * per extender: user count n_j and WiFi harmonic sum (so T_WiFi_j =
//     n_j / sum 1/r_ij is O(1) to update on a single-user move),
//   * per PLC contention domain: the max-min (or equal-share) airtime
//     allocation over its members, recomputed only for the <= 2 domains a
//     move touches,
//   * running objective totals: aggregate end-to-end throughput and the
//     proportional-fairness log-utility, both expressible as sums of
//     per-extender contributions in the saturated model (every user of
//     extender j gets end_to_end_j / n_j).
//
// A single-user move therefore costs O(|domain|) with zero allocations
// instead of O(U x E) with fresh vectors.
//
// Exact-fallback: when per-user demand caps or a WiFi channel plan are in
// play, a move's effect is not separable per extender (a cell going
// active/idle changes OTHER cells' airtime in its co-channel contention
// domain, and demand-capped allocations couple users within a cell). In
// those configurations the engine transparently falls back to a full — but
// allocation-free, via a reused EvalScratch — re-evaluation per move, so
// callers get identical semantics either way. `incremental()` reports
// which regime is active.
//
// Where the rates come from: the engine owns one EvalScratch and refreshes
// its NetworkSoA view at construction. Both regimes read the reciprocal
// rates, PLC rates, PLC-domain CSR and the finite-demand flag from that one
// view (the fallback's full evaluations read the same scratch), and both
// allocate airtime through detail::AllocateAirtime, the dispatch the
// evaluator uses — so the engine holds no copy of the network's tables.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/assignment.h"
#include "model/evaluator.h"
#include "model/network.h"

namespace wolt::model {

// Objective values maintained by the engine. `log_utility` is the
// proportional-fairness objective: sum over assigned users of
// log(max(throughput, floor)).
struct IncrementalValues {
  double aggregate_mbps = 0.0;
  double log_utility = 0.0;
};

class IncrementalEvaluator {
 public:
  // Matches the floor used by the Phase-II proportional-fair objective.
  static constexpr double kDefaultLogFloorMbps = 1e-3;

  // Builds the engine state from `assign` (validated like
  // Evaluator::Evaluate: assigned users must have positive WiFi rate to a
  // known extender). `net` must outlive the engine. Passing
  // `track_log_utility = false` skips the per-extender log bookkeeping
  // (one transcendental per domain member per move) for searches that only
  // consume the aggregate; log_utility() then throws.
  IncrementalEvaluator(const Network& net, const Assignment& assign,
                       EvalOptions options = {},
                       double log_floor_mbps = kDefaultLogFloorMbps,
                       bool track_log_utility = true);

  // True when moves are applied via O(|domain|) delta updates; false when
  // the exact-fallback (full re-evaluation per move) is active.
  bool incremental() const { return incremental_; }

  double aggregate_mbps() const { return values_.aggregate_mbps; }
  double log_utility() const;
  IncrementalValues values() const { return values_; }

  // Number of state-changing ApplyMove calls so far. A user's failed target
  // scan needs no repeat while this is unchanged (peeks do not mutate).
  std::uint64_t mutations() const { return mutations_; }

  int ExtenderOf(std::size_t user) const { return ext_of_[user]; }
  int Load(std::size_t ext) const { return load_[ext]; }

  // End-to-end throughput of `user` under the current assignment (0 when
  // unassigned or behind a dead backhaul). Non-const: the fallback path may
  // need to refresh its cached evaluation.
  double UserThroughput(std::size_t user);

  // Move `user` to extender `to`, or detach it with
  // Assignment::kUnassigned. Throws std::invalid_argument for an unknown
  // extender or one the user cannot reach. No-op if `to` is the user's
  // current extender.
  void ApplyMove(std::size_t user, int to);

  // Objective values the assignment would have after moving `user` to
  // `to`, without changing the engine state.
  IncrementalValues PeekMove(std::size_t user, int to);

  // Objective values the assignment would have after users u1 and u2
  // (both assigned, on different extenders) traded extenders, without
  // changing the engine state. One recompute per affected PLC domain —
  // cheaper than four ApplyMove calls.
  IncrementalValues PeekSwap(std::size_t u1, std::size_t u2);

  // Convenience: change in aggregate / log-utility caused by the
  // hypothetical move (PeekMove minus current values).
  IncrementalValues MoveDelta(std::size_t user, int to);

 private:
  // Re-allocates `domain`'s airtime into `time_share` and moves `values`
  // from the domain members' committed contributions to their new ones;
  // with `commit`, the new contributions become the committed ones.
  void ReshareDomain(std::size_t domain, double* time_share,
                     IncrementalValues& values, bool commit);
  void ContributionOf(std::size_t ext, const double* time_share, double* agg,
                      double* log) const;
  void RefreshWifiDemand(std::size_t ext);
  void RecomputeFallback();
  // Objective values with up to two cells temporarily holding the given
  // (load, wifi_demand); affected domains are recomputed into scratch
  // buffers, committed state is untouched. Cells are processed in order.
  IncrementalValues PeekCells(const std::size_t* cells,
                              const int* peek_load,
                              const double* peek_demand, std::size_t count);

  const Network* net_;
  Evaluator evaluator_;
  double log_floor_;
  double log_of_floor_;
  bool incremental_ = true;
  bool track_log_ = true;
  std::uint64_t mutations_ = 0;
  IncrementalValues values_;

  std::vector<int> ext_of_;
  std::vector<int> load_;
  // The network's SoA view (scratch_.soa) and, in the fallback regime, the
  // full evaluator's workspace.
  EvalScratch scratch_;

  // --- Incremental-mode state -------------------------------------------
  std::vector<double> inv_sum_;
  std::vector<double> wifi_demand_;
  std::vector<double> time_share_;
  std::vector<double> contrib_agg_;
  std::vector<double> contrib_log_;
  std::vector<std::size_t> mm_idx_;  // max-min scratch
  std::vector<double> peek_ts_;      // time-share scratch for peeks

  // --- Fallback-mode state ----------------------------------------------
  Assignment mirror_;
  bool result_stale_ = false;
};

}  // namespace wolt::model
