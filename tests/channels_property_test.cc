// Property battery for the channel-plan substrate (wifi/channels.h) that
// the joint solver builds on: graceful degradation when a neighbourhood
// exhausts every channel, singleton components for isolated extenders, the
// num_channels = 1 degenerate case, determinism, permutation invariance of
// plan quality, and the equal-weights reduction of the association-weighted
// recolouring to the unweighted colouring.
#include "wifi/channels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <stdexcept>
#include <vector>

#include "model/evaluator.h"
#include "model/network.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace wolt::wifi {
namespace {

constexpr double kRange = 60.0;

// A bare geometry: n extenders at the given positions, no users (colouring
// only reads positions).
model::Network GeometryNet(const std::vector<model::Position>& positions) {
  model::Network net(0, positions.size());
  for (std::size_t j = 0; j < positions.size(); ++j) {
    net.SetExtenderPosition(j, positions[j]);
  }
  return net;
}

model::Network RandomFloor(int seed, std::size_t extenders) {
  sim::ScenarioParams p;
  p.width_m = 120.0;
  p.height_m = 120.0;
  p.num_users = 1;
  p.num_extenders = extenders;
  sim::ScenarioGenerator gen(p);
  util::Rng rng(0xc4a2 + static_cast<std::uint64_t>(seed) * 2654435761u);
  return gen.Generate(rng);
}

TEST(ChannelsPropertyTest, ExhaustedNeighbourhoodDegradesToLeastUsed) {
  // K4 clique (every pair within range) with only 2 channels: a proper
  // colouring is impossible, but the greedy fallback must still return
  // in-range channels and split the clique evenly — 2 conflicts is the
  // optimum for K4 under 2 colours, against 6 on a single channel.
  const model::Network net = GeometryNet({{0, 0}, {10, 0}, {0, 10}, {10, 10}});
  ChannelPlanParams params;
  params.num_channels = 2;
  params.interference_range_m = kRange;

  const std::vector<int> plan = AssignChannels(net, params);
  ASSERT_EQ(plan.size(), 4u);
  int on_zero = 0;
  for (int c : plan) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, 2);
    if (c == 0) ++on_zero;
  }
  EXPECT_EQ(on_zero, 2) << "least-used fallback should balance the clique";
  EXPECT_EQ(CountConflicts(net, plan, kRange), 2u);
  EXPECT_EQ(CountConflicts(net, SameChannelPlan(net), kRange), 6u);
}

TEST(ChannelsPropertyTest, IsolatedExtendersFormSingletonComponents) {
  // Extenders spaced beyond carrier-sense range: no interference edges, so
  // the greedy colouring puts everyone on channel 0 and every contention
  // domain is a singleton.
  const model::Network net =
      GeometryNet({{0, 0}, {200, 0}, {0, 200}, {200, 200}, {400, 400}});
  const std::vector<int> plan = AssignChannels(net, {});
  for (int c : plan) EXPECT_EQ(c, 0);

  std::vector<int> domains;
  model::CoChannelDomains(net, plan, kRange, domains);
  std::set<int> distinct(domains.begin(), domains.end());
  EXPECT_EQ(distinct.size(), net.NumExtenders());
  EXPECT_EQ(CountConflicts(net, plan, kRange), 0u);
}

TEST(ChannelsPropertyTest, SingleChannelDegeneratesToSameChannelPlan) {
  for (int seed = 0; seed < 20; ++seed) {
    const model::Network net = RandomFloor(seed, 2 + seed % 6);
    ChannelPlanParams params;
    params.num_channels = 1;
    params.interference_range_m = kRange;
    EXPECT_EQ(AssignChannels(net, params), SameChannelPlan(net))
        << "seed=" << seed;
    const std::vector<double> weights(net.NumExtenders(), 2.5);
    EXPECT_EQ(AssignChannelsWeighted(net, weights, params),
              SameChannelPlan(net))
        << "seed=" << seed;
  }
}

TEST(ChannelsPropertyTest, ColouringIsDeterministic) {
  for (int seed = 0; seed < 20; ++seed) {
    const model::Network net = RandomFloor(seed, 3 + seed % 8);
    EXPECT_EQ(AssignChannels(net, {}), AssignChannels(net, {}))
        << "seed=" << seed;
  }
}

TEST(ChannelsPropertyTest, PlanQualityInvariantUnderIdPermutation) {
  // Relabelling extenders may change the plan (tie-breaks are id-based by
  // design, for determinism), but never its quality: the same geometry must
  // colour to the same number of same-channel conflicts.
  for (int seed = 0; seed < 20; ++seed) {
    const model::Network net = RandomFloor(seed, 4 + seed % 5);
    const std::size_t n = net.NumExtenders();

    std::vector<std::size_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    util::Rng rng(0x9e37 + static_cast<std::uint64_t>(seed));
    for (std::size_t k = n; k > 1; --k) {
      const std::size_t r =
          static_cast<std::size_t>(rng.UniformInt(0, static_cast<int>(k) - 1));
      std::swap(perm[k - 1], perm[r]);
    }

    std::vector<model::Position> shuffled(n);
    for (std::size_t k = 0; k < n; ++k) {
      shuffled[k] = net.ExtenderAt(perm[k]).position;
    }
    const model::Network permuted = GeometryNet(shuffled);

    const std::size_t direct =
        CountConflicts(net, AssignChannels(net, {}), kRange);
    const std::size_t relabelled =
        CountConflicts(permuted, AssignChannels(permuted, {}), kRange);
    EXPECT_EQ(direct, relabelled) << "seed=" << seed;
  }
}

TEST(ChannelsPropertyTest, EqualPositiveWeightsReduceToUnweighted) {
  for (int seed = 0; seed < 20; ++seed) {
    const model::Network net = RandomFloor(seed, 3 + seed % 8);
    const std::vector<double> weights(net.NumExtenders(), 1.0);
    EXPECT_EQ(AssignChannelsWeighted(net, weights, {}),
              AssignChannels(net, {}))
        << "seed=" << seed;
  }
}

TEST(ChannelsPropertyTest, WeightedColouringShedsConflictWeightToLightCells) {
  // Three mutually interfering extenders, two channels: the two heaviest
  // must land on distinct channels, leaving the (weight-0) third to absorb
  // the collision.
  const model::Network net = GeometryNet({{0, 0}, {10, 0}, {5, 8}});
  ChannelPlanParams params;
  params.num_channels = 2;
  params.interference_range_m = kRange;
  const std::vector<int> plan =
      AssignChannelsWeighted(net, {5.0, 4.0, 0.0}, params);
  EXPECT_NE(plan[0], plan[1]);
}

TEST(ChannelsPropertyTest, InvalidArgumentsThrow) {
  const model::Network net = GeometryNet({{0, 0}, {10, 0}});
  ChannelPlanParams bad;
  bad.num_channels = 0;
  EXPECT_THROW(AssignChannels(net, bad), std::invalid_argument);
  EXPECT_THROW(AssignChannelsWeighted(net, {1.0, 1.0}, bad),
               std::invalid_argument);
  EXPECT_THROW(AssignChannelsWeighted(net, {1.0}, {}), std::invalid_argument);
  EXPECT_THROW(AssignChannelsWeighted(net, {1.0, -0.5}, {}),
               std::invalid_argument);
}

}  // namespace
}  // namespace wolt::wifi
