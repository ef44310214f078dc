#include "assign/joint.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "assign/brute_force.h"
#include "obs/obs.h"
#include "wifi/channels.h"

namespace wolt::assign {
namespace {

std::uint64_t CheckedPow(std::uint64_t base, std::uint64_t exp,
                         std::uint64_t limit) {
  std::uint64_t result = 1;
  for (std::uint64_t k = 0; k < exp; ++k) {
    if (result > limit / base) return limit + 1;
    result *= base;
  }
  return result;
}

wifi::ChannelPlanParams PlanParams(const JointOptions& options) {
  if (options.num_channels <= 0) {
    throw std::invalid_argument("need at least one channel");
  }
  wifi::ChannelPlanParams p;
  p.num_channels = options.num_channels;
  p.interference_range_m = options.carrier_sense_range_m;
  return p;
}

// The scoring options for a candidate plan: caller's model with the plan
// installed (the plan is the single source of co-channel truth inside this
// solver).
model::EvalOptions OverlapOptions(const JointOptions& options,
                                  std::vector<int> channels) {
  model::EvalOptions eval = options.eval;
  eval.wifi_channel = std::move(channels);
  eval.carrier_sense_range_m = options.carrier_sense_range_m;
  return eval;
}

}  // namespace

double EvaluateUnderOverlap(const model::Network& net,
                            const model::Assignment& assignment,
                            const std::vector<int>& channels,
                            const JointOptions& options) {
  const model::Evaluator evaluator(OverlapOptions(options, channels));
  return evaluator.AggregateThroughput(net, assignment);
}

JointResult SolveJointNaive(const model::Network& net,
                            const JointAssociator& associate,
                            const JointOptions& options) {
  const wifi::ChannelPlanParams params = PlanParams(options);
  // Associate exactly as the paper would: plan-blind, every extender
  // presumed isolated.
  model::EvalOptions blind = options.eval;
  blind.wifi_channel.clear();
  const model::Assignment none(net.NumUsers());

  JointResult r;
  r.assignment = associate(net, blind, none, options.deadline);
  // Then colour the interference graph without looking at the association.
  r.channels = wifi::AssignChannels(net, params);
  // ... and score the pair under the model where overlap actually costs.
  r.aggregate_mbps = EvaluateUnderOverlap(net, r.assignment, r.channels,
                                          options);
  r.deadline_hit = util::DeadlineExpired(options.deadline);
  return r;
}

JointResult SolveJointAlternating(const model::Network& net,
                                  const JointAssociator& associate,
                                  const JointOptions& options) {
  const wifi::ChannelPlanParams params = PlanParams(options);
  if (obs::MetricsScope* s = obs::CurrentScope()) s->joint.solves.Add(1);

  // Seed from the naive pair: every later step keeps only strict
  // improvements, so alternating >= naive is structural, and an expired
  // deadline at any point still leaves a valid incumbent.
  JointResult best = SolveJointNaive(net, associate, options);
  best.rounds = 0;
  best.converged = false;

  std::vector<double> weights(net.NumExtenders(), 0.0);
  for (int round = 1; round <= options.max_rounds; ++round) {
    if (util::DeadlineExpired(options.deadline)) break;

    // Recolour with association-weighted interference degrees: an
    // extender's weight is its current user load, so heavily loaded
    // neighbourhoods get first pick of clean channels and lightly loaded
    // cells absorb the collisions.
    std::fill(weights.begin(), weights.end(), 0.0);
    for (std::size_t i = 0; i < net.NumUsers(); ++i) {
      const int e = best.assignment.ExtenderOf(i);
      if (e >= 0) weights[static_cast<std::size_t>(e)] += 1.0;
    }
    std::vector<int> plan =
        wifi::AssignChannelsWeighted(net, weights, params);
    if (obs::MetricsScope* s = obs::CurrentScope()) s->joint.recolours.Add(1);

    if (util::DeadlineExpired(options.deadline)) break;

    // Reassociate under the candidate plan (the associator sees the derived
    // co-channel contention through eval.wifi_channel).
    model::Assignment cand = associate(net, OverlapOptions(options, plan),
                                       best.assignment, options.deadline);
    const double value = EvaluateUnderOverlap(net, cand, plan, options);

    best.rounds = round;
    if (obs::MetricsScope* s = obs::CurrentScope()) s->joint.rounds.Add(1);
    if (value > best.aggregate_mbps) {
      best.assignment = std::move(cand);
      best.channels = std::move(plan);
      best.aggregate_mbps = value;
      if (obs::MetricsScope* s = obs::CurrentScope()) {
        s->joint.improvements.Add(1);
      }
    } else {
      // No strict improvement: the association/recolour pair reached a
      // fixed point (re-running would regenerate the same candidate).
      best.converged = true;
      break;
    }
  }

  best.deadline_hit = util::DeadlineExpired(options.deadline);
  if (obs::MetricsScope* s = obs::CurrentScope()) {
    if (best.converged) s->joint.converged.Add(1);
    if (best.deadline_hit) s->joint.deadline_hits.Add(1);
  }
  return best;
}

JointResult SolveJointBruteForce(const model::Network& net,
                                 const JointOptions& options) {
  PlanParams(options);  // validates num_channels
  const std::size_t num_ext = net.NumExtenders();
  if (num_ext == 0) throw std::invalid_argument("no extenders");

  const std::uint64_t base =
      static_cast<std::uint64_t>(options.num_channels);
  const std::uint64_t plans =
      CheckedPow(base, num_ext, options.max_combinations);
  const std::uint64_t choices = static_cast<std::uint64_t>(num_ext) +
                                (options.allow_unassigned ? 1 : 0);
  const std::uint64_t per_plan =
      CheckedPow(choices, net.NumUsers(), options.max_combinations);
  if (plans > options.max_combinations ||
      per_plan > options.max_combinations / plans) {
    throw std::invalid_argument("joint brute-force search space too large");
  }

  JointResult best;
  bool found = false;
  std::vector<int> plan(num_ext, 0);
  while (true) {
    if (obs::MetricsScope* s = obs::CurrentScope()) s->joint.bf_plans.Add(1);
    BruteForceOptions bo;
    bo.max_combinations = options.max_combinations;
    bo.allow_unassigned = options.allow_unassigned;
    bo.eval = OverlapOptions(options, plan);
    const BruteForceResult r = SolveBruteForce(net, bo);
    best.evaluated += r.evaluated;
    // Strict > keeps the first (lowest-odometer) plan on ties, so the
    // reference is a pure function of the instance.
    if (!found || r.best_aggregate_mbps > best.aggregate_mbps) {
      found = true;
      best.aggregate_mbps = r.best_aggregate_mbps;
      best.assignment = r.best;
      best.channels = plan;
    }
    std::size_t k = 0;
    while (k < num_ext) {
      if (static_cast<std::uint64_t>(++plan[k]) < base) break;
      plan[k] = 0;
      ++k;
    }
    if (k == num_ext) break;
  }
  return best;
}

}  // namespace wolt::assign
