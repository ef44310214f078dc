// The paper's centralized online greedy baseline (§V-B): each newly arriving
// user is assigned to the extender that maximizes the aggregate end-to-end
// throughput given all existing associations (which are never revisited).
// If no extender improves the aggregate, the user goes where it degrades the
// aggregate least — both cases are the same argmax over the post-assignment
// aggregate, which is how the paper's CC implements it.
//
// The argmax runs on model::IncrementalEvaluator in two steps per arrival:
//   * Screen: every eligible extender (reachable, under its MaxUsers cap)
//     is scored with PeekMove — O(|PLC domain|), no allocation — instead
//     of a full evaluation per candidate.
//   * Confirm: peeks are delta-updated sums, so they can differ from the
//     exact kernel in the last bits. When more than one candidate lies
//     within a near-tie window of the best peek, only those are re-scored
//     with Evaluator::Evaluate, in index order with strict >.
// The window is wider than twice the peek-vs-exact error, so the exact
// argmax (and every candidate tied with it) always survives the screen,
// and the confirm step applies the same first-index tie-break to the same
// exact values: the assignment equals a full per-candidate argmax bit for
// bit. With finite demands or co-channel plans the engine's peeks already
// are exact evaluations and are used directly.
#pragma once

#include "core/policy.h"
#include "model/evaluator.h"

namespace wolt::core {

class GreedyPolicy : public AssociationPolicy {
 public:
  explicit GreedyPolicy(model::EvalOptions eval = {}) : evaluator_(eval) {}

  std::string Name() const override { return "Greedy"; }

  // Users unassigned in `previous` are placed one at a time in index order
  // (index order is arrival order in the dynamic simulator). Existing users
  // are never re-assigned. Honors the inherited deadline: placement stops
  // between users on expiry, leaving later arrivals unassigned.
  model::Assignment Associate(const model::Network& net,
                              const model::Assignment& previous) override;

 private:
  model::Evaluator evaluator_;
};

}  // namespace wolt::core
