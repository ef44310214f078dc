// Differential test for GreedyPolicy on the incremental engine: on seeded
// networks the screen-and-confirm argmax (PeekMove screen, exact re-score of
// near-ties) must return exactly the assignment of the per-candidate
// allocating argmax it replaced. Cases cover all three PLC sharing modes,
// 14-124 users, 4 and 15 extenders, MaxUsers caps, users pre-placed at any
// index, exact rate ties, dead backhauls, several PLC domains, and the
// engine's exact-fallback regime (a WiFi channel plan, finite demands).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/greedy.h"
#include "model/assignment.h"
#include "model/evaluator.h"
#include "model/network.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace wolt::core {
namespace {

using model::Assignment;
using model::EvalOptions;
using model::Network;
using model::PlcSharing;

// The per-candidate argmax GreedyPolicy ran before it moved onto
// model::IncrementalEvaluator: one fresh allocating evaluation per
// (arrival, eligible extender), strict > in extender-index order. Counts the
// candidates whose aggregate exactly tied the running best in `ties`.
Assignment ReferenceGreedy(const Network& net, const Assignment& previous,
                           const EvalOptions& options, std::size_t* ties) {
  const model::Evaluator evaluator(options);
  Assignment assign = previous;
  std::vector<int> load = assign.LoadVector(net.NumExtenders());
  for (std::size_t i = 0; i < net.NumUsers(); ++i) {
    if (assign.IsAssigned(i)) continue;
    int best = -1;
    double best_aggregate = -1.0;
    for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
      if (net.WifiRate(i, j) <= 0.0) continue;
      const int cap = net.MaxUsers(j);
      if (cap > 0 && load[j] >= cap) continue;
      assign.Assign(i, j);
      const double aggregate = evaluator.AggregateThroughput(net, assign);
      assign.Unassign(i);
      if (aggregate == best_aggregate) ++*ties;
      if (aggregate > best_aggregate) {
        best_aggregate = aggregate;
        best = static_cast<int>(j);
      }
    }
    if (best >= 0) {
      assign.Assign(i, static_cast<std::size_t>(best));
      ++load[static_cast<std::size_t>(best)];
    }
  }
  return assign;
}

enum class Regime { kSaturated, kChannelPlan, kDemands };

constexpr std::array<std::size_t, 4> kUsers = {14, 36, 80, 124};
constexpr std::array<std::size_t, 2> kExtenders = {4, 15};
constexpr std::array<PlcSharing, 3> kSharing = {
    PlcSharing::kMaxMinActive, PlcSharing::kEqualActive,
    PlcSharing::kEqualAll};

// Rates drawn from a short MCS-like ladder so that exact aggregate ties
// between extenders are common; extender j+1 is sometimes a copy of j.
Network QuantizedNetwork(std::size_t users, std::size_t extenders,
                         util::Rng& rng) {
  static constexpr double kRates[] = {6.5, 13.0, 26.0, 39.0, 65.0};
  static constexpr double kPlc[] = {0.0, 40.0, 80.0, 80.0, 160.0};
  Network net(users, extenders);
  const int domains = rng.UniformInt(1, 2);
  for (std::size_t j = 0; j < extenders; ++j) {
    net.SetPlcRate(j, kPlc[rng.UniformInt(0, 4)]);
    net.SetPlcDomain(j, rng.UniformInt(0, domains - 1));
    net.SetExtenderPosition(j, {rng.Uniform(0.0, 100.0),
                                rng.Uniform(0.0, 100.0)});
  }
  std::vector<bool> copy_of_prev(extenders, false);
  for (std::size_t j = 1; j < extenders; ++j) {
    if (rng.Bernoulli(0.3)) {
      copy_of_prev[j] = true;
      net.SetPlcRate(j, net.PlcRate(j - 1));
      net.SetPlcDomain(j, net.PlcDomain(j - 1));
    }
  }
  for (std::size_t i = 0; i < users; ++i) {
    for (std::size_t j = 0; j < extenders; ++j) {
      if (copy_of_prev[j]) {
        net.SetWifiRate(i, j, net.WifiRate(i, j - 1));
      } else if (rng.Bernoulli(0.6)) {
        net.SetWifiRate(i, j, kRates[rng.UniformInt(0, 4)]);
      }
    }
  }
  return net;
}

Network ScenarioNetwork(std::size_t users, std::size_t extenders,
                        util::Rng& rng) {
  sim::ScenarioParams params;
  params.num_users = users;
  params.num_extenders = extenders;
  return sim::ScenarioGenerator(params).Generate(rng);
}

struct CaseSetup {
  Network net;
  Assignment previous;
  EvalOptions options;
};

// Case `k` of a regime: sharing mode, user and extender counts cycle with
// k so every combination is covered; the network flavour, caps, pre-placed
// users and regime inputs are drawn from a per-case stream.
CaseSetup MakeCase(Regime regime, int k) {
  util::Rng rng = util::Rng::Substream(
      0x6a09e667f3bcc908ULL + static_cast<std::uint64_t>(regime),
      static_cast<std::uint64_t>(k));
  const PlcSharing sharing = kSharing[static_cast<std::size_t>(k) % 3];
  const std::size_t users = kUsers[static_cast<std::size_t>(k / 3) % 4];
  const std::size_t extenders =
      kExtenders[static_cast<std::size_t>(k / 12) % 2];

  CaseSetup c{(k / 24) % 2 == 0 ? QuantizedNetwork(users, extenders, rng)
                                : ScenarioNetwork(users, extenders, rng),
              Assignment(users), EvalOptions{}};
  c.options.plc_sharing = sharing;

  if (rng.Bernoulli(0.5)) {
    // Caps tight enough to bind: about users / extenders per cell.
    const int per_cell =
        static_cast<int>(users / extenders) + rng.UniformInt(0, 2);
    for (std::size_t j = 0; j < extenders; ++j) {
      if (rng.Bernoulli(0.6)) c.net.SetMaxUsers(j, per_cell);
    }
  }

  // Pre-place a share of the users — at any index, so later users are
  // already on the network when earlier ones arrive.
  const double preplace = rng.Bernoulli(0.5) ? rng.Uniform(0.05, 0.6) : 0.0;
  std::vector<int> load(extenders, 0);
  for (std::size_t i = 0; i < users; ++i) {
    if (!rng.Bernoulli(preplace)) continue;
    const std::size_t j = static_cast<std::size_t>(
        rng.UniformInt(0, static_cast<int>(extenders) - 1));
    const int cap = c.net.MaxUsers(j);
    if (c.net.WifiRate(i, j) <= 0.0 || (cap > 0 && load[j] >= cap)) continue;
    c.previous.Assign(i, j);
    ++load[j];
  }

  if (regime == Regime::kChannelPlan) {
    c.options.wifi_channel.resize(extenders);
    for (std::size_t j = 0; j < extenders; ++j) {
      c.options.wifi_channel[j] = rng.UniformInt(0, 2);
    }
  } else if (regime == Regime::kDemands) {
    // At least one finite demand, so the engine is in its fallback regime.
    c.net.SetUserDemand(users / 2, rng.Uniform(0.5, 30.0));
    for (std::size_t i = 0; i < users; ++i) {
      if (rng.Bernoulli(0.4)) c.net.SetUserDemand(i, rng.Uniform(0.5, 30.0));
    }
  }
  return c;
}

constexpr int kCasesPerRegime = 1200;

void RunRegime(Regime regime) {
  std::size_t ties = 0;
  for (int k = 0; k < kCasesPerRegime; ++k) {
    const CaseSetup c = MakeCase(regime, k);
    GreedyPolicy greedy(c.options);
    const Assignment got = greedy.Associate(c.net, c.previous);
    const Assignment want =
        ReferenceGreedy(c.net, c.previous, c.options, &ties);
    ASSERT_EQ(got, want) << "case " << k << ": " << c.net.NumUsers()
                         << " users, " << c.net.NumExtenders()
                         << " extenders, sharing "
                         << model::ToString(c.options.plc_sharing);
  }
  // The grid must actually exercise the first-index tie-break.
  EXPECT_GT(ties, 0u);
}

TEST(GreedyDifferentialTest, SaturatedMatchesPerCandidateArgmax) {
  RunRegime(Regime::kSaturated);
}

TEST(GreedyDifferentialTest, ChannelPlanMatchesPerCandidateArgmax) {
  RunRegime(Regime::kChannelPlan);
}

TEST(GreedyDifferentialTest, DemandsMatchPerCandidateArgmax) {
  RunRegime(Regime::kDemands);
}

TEST(GreedyDifferentialTest, IdenticalExtendersLowestIndexWins) {
  for (PlcSharing sharing : kSharing) {
    EvalOptions options;
    options.plc_sharing = sharing;
    GreedyPolicy greedy(options);

    Network pair(1, 2);
    for (std::size_t j = 0; j < 2; ++j) {
      pair.SetPlcRate(j, 100.0);
      pair.SetWifiRate(0, j, 40.0);
    }
    EXPECT_EQ(greedy.AssociateFresh(pair).ExtenderOf(0), 0)
        << model::ToString(sharing);

    // Lowest *eligible* index: extender 0 is out of range.
    Network triple(1, 3);
    for (std::size_t j = 0; j < 3; ++j) triple.SetPlcRate(j, 100.0);
    triple.SetWifiRate(0, 1, 40.0);
    triple.SetWifiRate(0, 2, 40.0);
    EXPECT_EQ(greedy.AssociateFresh(triple).ExtenderOf(0), 1)
        << model::ToString(sharing);
  }
}

TEST(GreedyDifferentialTest, NoArrivalsReturnsInputUnchanged) {
  Network net(3, 2);
  net.SetPlcRate(0, 100.0);
  net.SetPlcRate(1, 100.0);
  for (std::size_t i = 0; i < 3; ++i) net.SetWifiRate(i, 0, 50.0);
  Assignment previous(3);
  previous.Assign(0, 0);
  previous.Assign(1, 0);
  // Unreachable placement: never evaluated, because nobody arrives.
  previous.Assign(2, 1);
  GreedyPolicy greedy;
  Assignment got;
  EXPECT_NO_THROW(got = greedy.Associate(net, previous));
  EXPECT_EQ(got, previous);

  const Network empty(0, 2);
  EXPECT_EQ(greedy.Associate(empty, Assignment(0)), Assignment(0));
}

TEST(GreedyDifferentialTest, UnreachablePlacementThrowsOnArrival) {
  for (Regime regime : {Regime::kSaturated, Regime::kDemands}) {
    Network net(2, 2);
    net.SetPlcRate(0, 100.0);
    net.SetPlcRate(1, 100.0);
    net.SetWifiRate(0, 0, 50.0);
    net.SetWifiRate(1, 0, 50.0);
    if (regime == Regime::kDemands) net.SetUserDemand(1, 5.0);
    Assignment previous(2);
    previous.Assign(0, 1);  // user 0 cannot hear extender 1
    GreedyPolicy greedy;
    std::size_t ties = 0;
    EXPECT_THROW(greedy.Associate(net, previous), std::invalid_argument);
    EXPECT_THROW(ReferenceGreedy(net, previous, {}, &ties),
                 std::invalid_argument);
  }
}

TEST(GreedyDifferentialTest, FreshSolveRunsFewerFullEvaluationsThanUsers) {
#if WOLT_OBS_ENABLED
  util::Rng rng(124);
  const Network net = ScenarioNetwork(124, 15, rng);
  obs::MetricsRegistry registry;
  {
    obs::ScopedMetrics scoped(registry);
    GreedyPolicy().AssociateFresh(net);
  }
  const std::uint64_t evaluations =
      registry.GetCounter("eval.evaluations").Value();
  EXPECT_LT(evaluations, net.NumUsers()) << evaluations;

  // The per-candidate argmax pays one full evaluation per candidate.
  obs::MetricsRegistry reference_registry;
  {
    obs::ScopedMetrics scoped(reference_registry);
    std::size_t ties = 0;
    ReferenceGreedy(net, Assignment(net.NumUsers()), {}, &ties);
  }
  EXPECT_GT(reference_registry.GetCounter("eval.evaluations").Value(),
            net.NumUsers());
#else
  GTEST_SKIP() << "WOLT_OBS=OFF: evaluation counters compiled out";
#endif
}

}  // namespace
}  // namespace wolt::core
