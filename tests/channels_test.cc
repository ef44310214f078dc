#include "wifi/channels.h"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>

#include "model/evaluator.h"
#include "sim/scenario.h"
#include "util/rng.h"

namespace wolt::wifi {
namespace {

model::Network LineOfExtenders(std::size_t count, double spacing_m) {
  model::Network net(0, count);
  for (std::size_t j = 0; j < count; ++j) {
    net.SetExtenderPosition(j, {static_cast<double>(j) * spacing_m, 0.0});
    net.SetPlcRate(j, 100.0);
  }
  return net;
}

TEST(InterferenceEdgesTest, RangeCutoff) {
  const model::Network net = LineOfExtenders(3, 50.0);
  // 50 m apart: neighbours interfere at 60 m range, 0-2 (100 m apart) not.
  const auto edges = InterferenceEdges(net, 60.0);
  EXPECT_EQ(edges.size(), 2u);
  const auto none = InterferenceEdges(net, 10.0);
  EXPECT_TRUE(none.empty());
}

TEST(AssignChannelsTest, NeighboursGetDistinctChannels) {
  const model::Network net = LineOfExtenders(3, 50.0);
  const auto channels = AssignChannels(net, {3, 60.0});
  EXPECT_NE(channels[0], channels[1]);
  EXPECT_NE(channels[1], channels[2]);
  EXPECT_EQ(CountConflicts(net, channels, 60.0), 0u);
}

TEST(AssignChannelsTest, RejectsZeroChannels) {
  const model::Network net = LineOfExtenders(2, 10.0);
  EXPECT_THROW(AssignChannels(net, {0, 60.0}), std::invalid_argument);
}

TEST(AssignChannelsTest, ChannelsWithinRange) {
  util::Rng rng(3);
  sim::ScenarioParams p;
  p.num_users = 0;
  const model::Network net = sim::ScenarioGenerator(p).Generate(rng);
  const ChannelPlanParams params{3, 60.0};
  const auto channels = AssignChannels(net, params);
  for (int c : channels) {
    EXPECT_GE(c, 0);
    EXPECT_LT(c, 3);
  }
}

TEST(AssignChannelsTest, GracefulDegradationWhenChannelsExhausted) {
  // 5 mutually interfering extenders, 3 channels: colouring must still
  // return a valid plan (with some conflicts).
  const model::Network net = LineOfExtenders(5, 1.0);
  const auto channels = AssignChannels(net, {3, 60.0});
  EXPECT_EQ(channels.size(), 5u);
  // A clique of 5 with 3 colours has at least 2 monochromatic edges.
  EXPECT_GE(CountConflicts(net, channels, 60.0), 2u);
  // But far fewer than the same-channel plan's 10.
  EXPECT_LT(CountConflicts(net, channels, 60.0),
            CountConflicts(net, SameChannelPlan(net), 60.0));
}

TEST(AssignChannelsTest, BeatsRandomAndSameChannelOnEnterpriseFloor) {
  util::Rng rng(7);
  sim::ScenarioParams p;
  p.num_users = 0;
  const model::Network net = sim::ScenarioGenerator(p).Generate(rng);
  const auto planned = AssignChannels(net, {3, 60.0});
  const auto same = SameChannelPlan(net);
  std::vector<int> random(net.NumExtenders());
  for (auto& c : random) c = rng.UniformInt(0, 2);
  EXPECT_LT(CountConflicts(net, planned, 60.0),
            CountConflicts(net, same, 60.0));
  EXPECT_LE(CountConflicts(net, planned, 60.0),
            CountConflicts(net, random, 60.0));
}

std::vector<int> Domains(const model::Network& net,
                         const std::vector<int>& channels, double range_m) {
  std::vector<int> domains;
  model::CoChannelDomains(net, channels, range_m, domains);
  return domains;
}

TEST(CoChannelDomainsTest, SameChannelNeighboursShareDomain) {
  const model::Network net = LineOfExtenders(4, 50.0);
  // Channels: 0,0,1,1 -> domains {0,1} merged, {2,3} merged.
  const std::vector<int> channels = {0, 0, 1, 1};
  const auto domains = Domains(net, channels, 60.0);
  EXPECT_EQ(domains[0], domains[1]);
  EXPECT_EQ(domains[2], domains[3]);
  EXPECT_NE(domains[0], domains[2]);
}

TEST(CoChannelDomainsTest, DistinctChannelsAreSingletons) {
  const model::Network net = LineOfExtenders(3, 10.0);
  const std::vector<int> channels = {0, 1, 2};
  const auto domains = Domains(net, channels, 60.0);
  std::set<int> unique(domains.begin(), domains.end());
  EXPECT_EQ(unique.size(), 3u);
}

TEST(CoChannelDomainsTest, SizeMismatchThrows) {
  const model::Network net = LineOfExtenders(3, 10.0);
  EXPECT_THROW(Domains(net, {0, 1}, 60.0), std::invalid_argument);
  EXPECT_THROW(CountConflicts(net, {0}, 60.0), std::invalid_argument);
}

// Evaluator integration: co-channel cells time-share the WiFi air.
TEST(CoChannelEvaluatorTest, SharedDomainHalvesWifiThroughput) {
  model::Network net(2, 2);
  net.SetPlcRate(0, 1000.0);
  net.SetPlcRate(1, 1000.0);
  net.SetWifiRate(0, 0, 40.0);
  net.SetWifiRate(1, 1, 40.0);
  model::Assignment a(2);
  a.Assign(0, 0);
  a.Assign(1, 1);

  model::EvalOptions separate;  // default: own channel each
  const double free_air =
      model::Evaluator(separate).AggregateThroughput(net, a);
  EXPECT_NEAR(free_air, 80.0, 1e-9);

  model::EvalOptions shared;
  shared.wifi_channel = {0, 0};  // same channel, in range (both at origin)
  const double contended =
      model::Evaluator(shared).AggregateThroughput(net, a);
  EXPECT_NEAR(contended, 40.0, 1e-9);  // each cell halved
}

TEST(CoChannelEvaluatorTest, IdleCellsDoNotContend) {
  model::Network net(1, 2);
  net.SetPlcRate(0, 1000.0);
  net.SetPlcRate(1, 1000.0);
  net.SetWifiRate(0, 0, 40.0);
  model::Assignment a(1);
  a.Assign(0, 0);
  model::EvalOptions shared;
  shared.wifi_channel = {0, 0};
  // Extender 1 has no users: extender 0 keeps the full air.
  EXPECT_NEAR(model::Evaluator(shared).AggregateThroughput(net, a), 40.0,
              1e-9);
}

TEST(CoChannelEvaluatorTest, BadChannelPlanThrows) {
  model::Network net(1, 2);
  net.SetPlcRate(0, 100.0);
  net.SetWifiRate(0, 0, 10.0);
  model::Assignment a(1);
  a.Assign(0, 0);
  model::EvalOptions opts;
  opts.wifi_channel = {0};  // wrong size
  EXPECT_THROW(model::Evaluator(opts).Evaluate(net, a),
               std::invalid_argument);
  opts.wifi_channel = {-1, 0};
  EXPECT_THROW(model::Evaluator(opts).Evaluate(net, a),
               std::invalid_argument);
}

}  // namespace
}  // namespace wolt::wifi
