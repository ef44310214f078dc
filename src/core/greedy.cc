#include "core/greedy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <vector>

#include "model/incremental.h"

namespace wolt::core {

namespace {

// Near-tie window of the screen, scaled by max(1, |best screened value|).
// Must be at least twice the worst-case gap between a PeekMove value and a
// fresh Evaluate of the same assignment, which
// tests/incremental_eval_test.cc holds under 1e-9.
constexpr double kNearTie = 2e-9;

}  // namespace

model::Assignment GreedyPolicy::Associate(const model::Network& net,
                                          const model::Assignment& previous) {
  if (previous.NumUsers() != net.NumUsers()) {
    throw std::invalid_argument("previous assignment size mismatch");
  }
  const std::size_t num_ext = net.NumExtenders();
  model::Assignment assign = previous;
  std::vector<int> load = assign.LoadVector(num_ext);

  // Built at the first candidate, so a call that never scores one never
  // validates `previous` — exactly when a per-candidate evaluation would
  // have thrown, this throws.
  std::optional<model::IncrementalEvaluator> inc;
  model::EvalScratch scratch;
  constexpr double kIneligible = -std::numeric_limits<double>::infinity();
  std::vector<double> screened(num_ext, kIneligible);

  for (std::size_t i = 0; i < net.NumUsers(); ++i) {
    // Anytime contract: each placed user leaves a valid partial assignment,
    // so stopping between users on deadline expiry is always safe.
    if (util::DeadlineExpired(deadline_)) break;
    if (assign.IsAssigned(i)) continue;

    // Screen: post-assignment aggregate of every eligible extender.
    int best = -1;
    double best_aggregate = -1.0;
    for (std::size_t j = 0; j < num_ext; ++j) {
      screened[j] = kIneligible;
      if (net.WifiRate(i, j) <= 0.0) continue;
      const int cap = net.MaxUsers(j);
      if (cap > 0 && load[j] >= cap) continue;
      if (!inc) {
        inc.emplace(net, assign, evaluator_.options(),
                    model::IncrementalEvaluator::kDefaultLogFloorMbps,
                    /*track_log_utility=*/false);
      }
      screened[j] = inc->PeekMove(i, static_cast<int>(j)).aggregate_mbps;
      if (screened[j] > best_aggregate) {
        best_aggregate = screened[j];
        best = static_cast<int>(j);
      }
    }
    if (best < 0) continue;

    // Confirm: delta-updated peeks can differ from the exact kernel in the
    // last bits, so candidates within the window of the best are re-scored
    // exactly, in index order with strict >, reproducing the first-index
    // tie-break of a full per-candidate argmax. (The fallback regime's
    // peeks already are exact evaluations.)
    if (inc->incremental()) {
      const double floor =
          best_aggregate - kNearTie * std::max(1.0, std::abs(best_aggregate));
      if (std::count_if(screened.begin(), screened.end(),
                        [floor](double v) { return v >= floor; }) > 1) {
        best = -1;
        best_aggregate = -1.0;
        for (std::size_t j = 0; j < num_ext; ++j) {
          if (screened[j] < floor) continue;
          assign.Assign(i, j);
          const double aggregate =
              evaluator_.Evaluate(net, assign, scratch).aggregate_mbps;
          assign.Unassign(i);
          if (aggregate > best_aggregate) {
            best_aggregate = aggregate;
            best = static_cast<int>(j);
          }
        }
      }
    }

    assign.Assign(i, static_cast<std::size_t>(best));
    ++load[static_cast<std::size_t>(best)];
    inc->ApplyMove(i, best);
  }
  return assign;
}

}  // namespace wolt::core
