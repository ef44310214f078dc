// Differential test for the incremental delta-evaluation engine: on
// randomized networks, a long random sequence of ApplyMove calls must keep
// the engine's objective values and per-user throughputs in lockstep with a
// fresh Evaluator::Evaluate of the same assignment (within 1e-9), across
// all three PLC sharing modes, multi-domain PLC segments, and the
// exact-fallback configurations (per-user demands, co-channel WiFi
// contention). Peeks (PeekMove / PeekSwap) must match the value a real
// apply would produce and leave the engine state untouched.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "model/assignment.h"
#include "model/evaluator.h"
#include "model/incremental.h"
#include "model/network.h"
#include "util/rng.h"

namespace wolt::model {
namespace {

constexpr double kTol = 1e-9;

struct ScenarioConfig {
  std::size_t num_users = 0;
  std::size_t num_extenders = 0;
  PlcSharing sharing = PlcSharing::kMaxMinActive;
  int plc_domains = 1;
  bool with_demands = false;         // triggers the exact-fallback
  bool with_wifi_contention = false; // triggers the exact-fallback
};

ScenarioConfig RandomConfig(util::Rng& rng) {
  ScenarioConfig cfg;
  cfg.num_users = static_cast<std::size_t>(rng.UniformInt(2, 40));
  cfg.num_extenders = static_cast<std::size_t>(rng.UniformInt(2, 8));
  switch (rng.UniformInt(0, 2)) {
    case 0: cfg.sharing = PlcSharing::kMaxMinActive; break;
    case 1: cfg.sharing = PlcSharing::kEqualActive; break;
    default: cfg.sharing = PlcSharing::kEqualAll; break;
  }
  cfg.plc_domains = rng.UniformInt(1, 3);
  cfg.with_demands = rng.Bernoulli(0.25);
  cfg.with_wifi_contention = rng.Bernoulli(0.2);
  return cfg;
}

Network RandomNetwork(const ScenarioConfig& cfg, util::Rng& rng) {
  Network net(cfg.num_users, cfg.num_extenders);
  for (std::size_t j = 0; j < cfg.num_extenders; ++j) {
    // Occasionally a dead backhaul (c_j = 0) to exercise that branch.
    const double plc = rng.Bernoulli(0.1) ? 0.0 : rng.Uniform(20.0, 400.0);
    net.SetPlcRate(j, plc);
    net.SetPlcDomain(j, rng.UniformInt(0, cfg.plc_domains - 1));
  }
  for (std::size_t i = 0; i < cfg.num_users; ++i) {
    bool reachable = false;
    for (std::size_t j = 0; j < cfg.num_extenders; ++j) {
      if (rng.Bernoulli(0.7)) {
        net.SetWifiRate(i, j, rng.Uniform(5.0, 600.0));
        reachable = true;
      }
    }
    if (!reachable) net.SetWifiRate(i, 0, rng.Uniform(5.0, 600.0));
    if (cfg.with_demands && rng.Bernoulli(0.5)) {
      net.SetUserDemand(i, rng.Uniform(1.0, 80.0));
    }
  }
  return net;
}

EvalOptions OptionsFor(const ScenarioConfig& cfg, util::Rng& rng) {
  EvalOptions opt;
  opt.plc_sharing = cfg.sharing;
  if (cfg.with_wifi_contention) {
    // Every extender sits at the origin, within carrier-sense range of all
    // the others, so the co-channel domains are exactly the channel classes.
    opt.wifi_channel.resize(cfg.num_extenders);
    for (std::size_t j = 0; j < cfg.num_extenders; ++j) {
      opt.wifi_channel[j] = rng.UniformInt(0, 2);
    }
  }
  return opt;
}

// Random initial assignment: each user goes to a random reachable extender
// or stays unassigned.
Assignment RandomAssignment(const Network& net, util::Rng& rng) {
  Assignment a(net.NumUsers());
  for (std::size_t i = 0; i < net.NumUsers(); ++i) {
    if (rng.Bernoulli(0.15)) continue;  // leave unassigned
    std::vector<std::size_t> reach;
    for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
      if (net.WifiRate(i, j) > 0.0) reach.push_back(j);
    }
    if (reach.empty()) continue;
    a.Assign(i, reach[static_cast<std::size_t>(
                   rng.UniformInt(0, static_cast<int>(reach.size()) - 1))]);
  }
  return a;
}

double LogUtilityOf(const EvalResult& res, const Assignment& assign,
                    double floor) {
  double sum = 0.0;
  for (std::size_t i = 0; i < res.user_throughput_mbps.size(); ++i) {
    if (!assign.IsAssigned(i)) continue;
    sum += std::log(std::max(res.user_throughput_mbps[i], floor));
  }
  return sum;
}

void ExpectMatchesFresh(IncrementalEvaluator& inc, const Network& net,
                        const Assignment& assign, const Evaluator& evaluator,
                        const char* where) {
  const EvalResult fresh = evaluator.Evaluate(net, assign);
  EXPECT_NEAR(inc.aggregate_mbps(), fresh.aggregate_mbps, kTol) << where;
  EXPECT_NEAR(inc.log_utility(),
              LogUtilityOf(fresh, assign,
                           IncrementalEvaluator::kDefaultLogFloorMbps),
              kTol)
      << where;
  for (std::size_t i = 0; i < net.NumUsers(); ++i) {
    EXPECT_NEAR(inc.UserThroughput(i), fresh.user_throughput_mbps[i], kTol)
        << where << " user " << i;
  }
}

// Pick a random legal move (possibly an unassign) for the current state.
// Returns false if the scenario offers none.
bool RandomMove(const Network& net, const Assignment& assign, util::Rng& rng,
                std::size_t* user, int* to) {
  for (int attempt = 0; attempt < 64; ++attempt) {
    const std::size_t i = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int>(net.NumUsers()) - 1));
    if (assign.IsAssigned(i) && rng.Bernoulli(0.2)) {
      *user = i;
      *to = Assignment::kUnassigned;
      return true;
    }
    std::vector<std::size_t> reach;
    for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
      if (net.WifiRate(i, j) > 0.0 &&
          static_cast<int>(j) != assign.ExtenderOf(i)) {
        reach.push_back(j);
      }
    }
    if (reach.empty()) continue;
    *user = i;
    *to = static_cast<int>(reach[static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int>(reach.size()) - 1))]);
    return true;
  }
  return false;
}

TEST(IncrementalEvalDifferential, RandomScenariosMatchFreshEvaluate) {
  util::Rng rng(20260806);
  int fallback_scenarios = 0;
  int incremental_scenarios = 0;
  for (int scenario = 0; scenario < 200; ++scenario) {
    const ScenarioConfig cfg = RandomConfig(rng);
    const Network net = RandomNetwork(cfg, rng);
    const EvalOptions opt = OptionsFor(cfg, rng);
    Assignment assign = RandomAssignment(net, rng);

    const Evaluator evaluator(opt);
    IncrementalEvaluator inc(net, assign, opt);
    (inc.incremental() ? incremental_scenarios : fallback_scenarios)++;
    ExpectMatchesFresh(inc, net, assign, evaluator, "initial");

    const int moves = rng.UniformInt(5, 30);
    for (int mv = 0; mv < moves; ++mv) {
      std::size_t user = 0;
      int to = Assignment::kUnassigned;
      if (!RandomMove(net, assign, rng, &user, &to)) break;

      // Peek first: must predict the post-move values and not disturb state.
      const double agg_before = inc.aggregate_mbps();
      const IncrementalValues peeked = inc.PeekMove(user, to);
      ASSERT_DOUBLE_EQ(inc.aggregate_mbps(), agg_before);

      inc.ApplyMove(user, to);
      if (to == Assignment::kUnassigned) {
        assign.Unassign(user);
      } else {
        assign.Assign(user, static_cast<std::size_t>(to));
      }
      EXPECT_NEAR(peeked.aggregate_mbps, inc.aggregate_mbps(), kTol);
      EXPECT_NEAR(peeked.log_utility, inc.log_utility(), kTol);

      if (mv % 7 == 0) {
        ExpectMatchesFresh(inc, net, assign, evaluator, "mid-sequence");
      }
    }
    ExpectMatchesFresh(inc, net, assign, evaluator, "final");
  }
  // The generator must exercise both regimes.
  EXPECT_GT(incremental_scenarios, 0);
  EXPECT_GT(fallback_scenarios, 0);
}

TEST(IncrementalEvalDifferential, PeekSwapMatchesAppliedExchange) {
  util::Rng rng(77);
  int swaps_checked = 0;
  for (int scenario = 0; scenario < 60; ++scenario) {
    const ScenarioConfig cfg = RandomConfig(rng);
    const Network net = RandomNetwork(cfg, rng);
    const EvalOptions opt = OptionsFor(cfg, rng);
    Assignment assign = RandomAssignment(net, rng);
    IncrementalEvaluator inc(net, assign, opt);

    for (int attempt = 0; attempt < 40; ++attempt) {
      const std::size_t u1 = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int>(net.NumUsers()) - 1));
      const std::size_t u2 = static_cast<std::size_t>(
          rng.UniformInt(0, static_cast<int>(net.NumUsers()) - 1));
      const int e1 = assign.ExtenderOf(u1);
      const int e2 = assign.ExtenderOf(u2);
      if (e1 == Assignment::kUnassigned || e2 == Assignment::kUnassigned ||
          e1 == e2) {
        continue;
      }
      if (net.WifiRate(u1, static_cast<std::size_t>(e2)) <= 0.0 ||
          net.WifiRate(u2, static_cast<std::size_t>(e1)) <= 0.0) {
        continue;
      }
      const double agg_before = inc.aggregate_mbps();
      const IncrementalValues peeked = inc.PeekSwap(u1, u2);
      ASSERT_DOUBLE_EQ(inc.aggregate_mbps(), agg_before);

      inc.ApplyMove(u1, e2);
      inc.ApplyMove(u2, e1);
      EXPECT_NEAR(peeked.aggregate_mbps, inc.aggregate_mbps(), kTol);
      EXPECT_NEAR(peeked.log_utility, inc.log_utility(), kTol);
      // Revert for the next attempt on this scenario.
      inc.ApplyMove(u2, e2);
      inc.ApplyMove(u1, e1);
      EXPECT_NEAR(inc.aggregate_mbps(), agg_before, kTol);
      ++swaps_checked;
    }
  }
  EXPECT_GT(swaps_checked, 50);
}

TEST(IncrementalEvalDifferential, MoveDeltaIsPeekMinusCurrent) {
  util::Rng rng(5);
  const ScenarioConfig cfg{12, 4, PlcSharing::kMaxMinActive, 2, false, false};
  const Network net = RandomNetwork(cfg, rng);
  Assignment assign = RandomAssignment(net, rng);
  IncrementalEvaluator inc(net, assign, {});
  for (int attempt = 0; attempt < 50; ++attempt) {
    std::size_t user = 0;
    int to = Assignment::kUnassigned;
    if (!RandomMove(net, assign, rng, &user, &to)) break;
    const IncrementalValues peek = inc.PeekMove(user, to);
    const IncrementalValues delta = inc.MoveDelta(user, to);
    EXPECT_NEAR(delta.aggregate_mbps, peek.aggregate_mbps - inc.aggregate_mbps(),
                kTol);
    EXPECT_NEAR(delta.log_utility, peek.log_utility - inc.log_utility(), kTol);
  }
}

TEST(IncrementalEvalDifferential, UntrackedLogUtilityThrows) {
  util::Rng rng(11);
  const ScenarioConfig cfg{8, 3, PlcSharing::kMaxMinActive, 1, false, false};
  const Network net = RandomNetwork(cfg, rng);
  const Assignment assign = RandomAssignment(net, rng);
  IncrementalEvaluator inc(net, assign, {},
                           IncrementalEvaluator::kDefaultLogFloorMbps,
                           /*track_log_utility=*/false);
  EXPECT_THROW(inc.log_utility(), std::logic_error);
  // The aggregate side must be unaffected by the opt-out.
  IncrementalEvaluator tracked(net, assign, {});
  EXPECT_NEAR(inc.aggregate_mbps(), tracked.aggregate_mbps(), kTol);
}

TEST(IncrementalEvalDifferential, MutationsCountsStateChanges) {
  util::Rng rng(13);
  const ScenarioConfig cfg{10, 4, PlcSharing::kMaxMinActive, 1, false, false};
  const Network net = RandomNetwork(cfg, rng);
  Assignment assign(net.NumUsers());
  for (std::size_t i = 0; i < net.NumUsers(); ++i) {
    for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
      if (net.WifiRate(i, j) > 0.0) {
        assign.Assign(i, j);
        break;
      }
    }
  }
  IncrementalEvaluator inc(net, assign, {});
  const std::uint64_t m0 = inc.mutations();
  std::size_t user = 0;
  int to = Assignment::kUnassigned;
  ASSERT_TRUE(RandomMove(net, assign, rng, &user, &to));
  (void)inc.PeekMove(user, to);  // peeks never mutate
  EXPECT_EQ(inc.mutations(), m0);
  inc.ApplyMove(user, to);
  EXPECT_GT(inc.mutations(), m0);
  inc.ApplyMove(user, to);  // no-op move: same target
  EXPECT_EQ(inc.mutations(), m0 + 1);
}

}  // namespace
}  // namespace wolt::model
