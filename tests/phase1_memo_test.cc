// Differential battery for WoltPolicy's exact Phase-I memo: one long-lived
// policy (whose memo carries over between calls) must produce exactly what a
// fresh policy per call produces — the same Phase1Result and the same
// Associate output — over seeded sequences of network edits. The edits cover
// single-row rate changes that keep or change u_ij, arrivals, departures,
// SetPlcRate, WOLT-S activation masks, several PLC domains, the kWifiOnly
// utility and tie-heavy matrices where every reachable u_ij equals the PLC
// share. The deadline rules are checked separately: an expired deadline
// bypasses the memo, a truncated solve is never stored, and an unchanged
// re-solve is answered from the memo.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <vector>

#include "core/wolt.h"
#include "model/assignment.h"
#include "model/network.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "sim/scenario.h"
#include "util/deadline.h"
#include "util/rng.h"

namespace wolt::core {
namespace {

using model::Assignment;
using model::Network;

// Sanitized builds run a smaller battery: the sequences are single-threaded,
// so the sanitizers gain nothing from the extra seeds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr int kSeeds = 6;
#else
constexpr int kSeeds = 30;
#endif
constexpr int kSteps = 60;

struct Config {
  std::string name{};
  WoltOptions options{};
  std::size_t users = 24;
  std::size_t extenders = 6;
  int domains = 1;
  bool ties = false;  // clamp every reachable u_ij to the PLC share
  bool masks = false;  // also compare ComputePhase1 under activation masks
};

void PrintTo(const Config& config, std::ostream* os) { *os << config.name; }

std::vector<Config> Configs() {
  std::vector<Config> configs;
  configs.push_back({.name = "wolt"});
  Config wifi_only{.name = "wifi_only"};
  wifi_only.options.phase1_utility = Phase1Utility::kWifiOnly;
  configs.push_back(wifi_only);
  Config subset{.name = "wolt_s", .masks = true};
  subset.options.subset_search = true;
  configs.push_back(subset);
  configs.push_back({.name = "domains", .domains = 3, .masks = true});
  configs.push_back({.name = "ties", .ties = true});
  configs.push_back({.name = "ties_domains", .domains = 2, .ties = true});
  Config fresh{.name = "non_sticky"};
  fresh.options.sticky = false;
  configs.push_back(fresh);
  // Fewer users than extenders: users become the Hungarian rows.
  configs.push_back({.name = "few_users", .users = 4, .extenders = 7});
  return configs;
}

// A tie-heavy floor's PLC capacity: every share c_j/|A| sits below the
// slowest MCS rate, so min(c_j/|A|, r_ij) is the share wherever r_ij > 0.
constexpr double kTiePlcMbps = 12.0;

Network MakeNetwork(const Config& config, util::Rng& rng) {
  sim::ScenarioParams p;
  p.width_m = 60.0;
  p.height_m = 60.0;
  p.num_users = config.users;
  p.num_extenders = config.extenders;
  Network net = sim::ScenarioGenerator(p).Generate(rng);
  for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
    net.SetPlcDomain(j, static_cast<int>(j) % config.domains);
    if (config.ties) net.SetPlcRate(j, kTiePlcMbps);
  }
  return net;
}

// Per-extender PLC share c_j/|A| over the unmasked serviceable extenders
// (the same definition Phase I uses).
std::vector<double> Shares(const Network& net) {
  std::vector<int> serviceable(net.NumExtenders(), 0);
  std::vector<double> per_domain;
  for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
    if (net.PlcRate(j) <= 0.0) continue;
    for (std::size_t i = 0; i < net.NumUsers(); ++i) {
      if (net.WifiRate(i, j) > 0.0) {
        serviceable[j] = 1;
        break;
      }
    }
    if (!serviceable[j]) continue;
    const std::size_t d = static_cast<std::size_t>(net.PlcDomain(j));
    if (d >= per_domain.size()) per_domain.resize(d + 1, 0.0);
    per_domain[d] += 1.0;
  }
  std::vector<double> share(net.NumExtenders(), 0.0);
  for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
    if (serviceable[j]) {
      share[j] =
          net.PlcRate(j) / per_domain[static_cast<std::size_t>(net.PlcDomain(j))];
    }
  }
  return share;
}

std::size_t Pick(util::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.UniformInt(0, static_cast<int>(n) - 1));
}

// One seeded edit of the network (and of `previous`, whose user count must
// track the network's). Returns the edit's name for failure messages.
std::string Mutate(const Config& config, Network& net, Assignment& previous,
                   util::Rng& rng) {
  const int kind = rng.UniformInt(0, 7);
  const std::size_t user = Pick(rng, net.NumUsers());
  switch (kind) {
    case 0: {
      // Raise every rate of one user that already exceeds its extender's
      // share: u_ij stays the share under the paper's utility.
      const std::vector<double> share = Shares(net);
      for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
        const double r = net.WifiRate(user, j);
        if (r > share[j]) net.SetWifiRate(user, j, r * 1.5);
      }
      return "rate_edit_keep";
    }
    case 1: {
      // Drop one reachable rate below the share, or cut the link.
      const std::size_t ext = Pick(rng, net.NumExtenders());
      const double share = Shares(net)[ext];
      const double r = rng.NextDouble() < 0.3 || share <= 0.0
                           ? 0.0
                           : share * rng.Uniform(0.2, 0.9);
      net.SetWifiRate(user, ext, config.ties && r > 0.0 ? 6.5 : r);
      return "rate_edit_change";
    }
    case 2: {
      // Arrival: often a copy of an existing user's row (exact ties).
      std::vector<double> rates(net.WifiRateRow(user),
                                net.WifiRateRow(user) + net.NumExtenders());
      if (rng.NextDouble() < 0.5) {
        const std::size_t ext = Pick(rng, net.NumExtenders());
        rates[ext] = rates[ext] > 0.0 ? 0.0 : 26.0;
      }
      net.AddUser(model::User{}, rates);
      previous.AppendUser();
      return "arrival";
    }
    case 3:
      if (net.NumUsers() <= 2) return "none";
      net.RemoveUser(user);
      previous.EraseUser(user);
      return "departure";
    case 4: {
      const std::size_t ext = Pick(rng, net.NumExtenders());
      net.SetPlcRate(ext, config.ties ? kTiePlcMbps * rng.Uniform(0.5, 1.0)
                                      : rng.Uniform(20.0, 200.0));
      return "set_plc_rate";
    }
    case 5: {
      // One-ulp nudges: a change only the low mantissa bits can see, which
      // still breaks ties among equal utilities.
      const std::size_t ext = Pick(rng, net.NumExtenders());
      const double inf = std::numeric_limits<double>::infinity();
      if (rng.NextDouble() < 0.5) {
        net.SetPlcRate(ext, std::nextafter(net.PlcRate(ext), inf));
      } else if (net.WifiRate(user, ext) > 0.0) {
        net.SetWifiRate(user, ext, std::nextafter(net.WifiRate(user, ext), inf));
      }
      return "ulp_nudge";
    }
    default:
      return "none";  // unchanged re-solve: the memo must answer it
  }
}

void ExpectSamePhase1(const Phase1Result& memo, const Phase1Result& fresh,
                      const std::string& where) {
  EXPECT_EQ(memo.user_of_extender, fresh.user_of_extender) << where;
  EXPECT_EQ(memo.u1_users, fresh.u1_users) << where;
  EXPECT_EQ(memo.total_utility, fresh.total_utility) << where;
  EXPECT_EQ(memo.deadline_hit, fresh.deadline_hit) << where;
}

#if WOLT_OBS_ENABLED
std::uint64_t Hits(obs::MetricsRegistry& r) {
  return r.GetCounter("wolt.phase1.memo_hits").Value();
}
std::uint64_t Solves(obs::MetricsRegistry& r) {
  return r.GetCounter("hungarian.solves").Value();
}
#endif

class Phase1MemoDifferentialTest : public ::testing::TestWithParam<Config> {};

TEST_P(Phase1MemoDifferentialTest, LongLivedPolicyMatchesFreshPolicy) {
  const Config& config = GetParam();
  obs::MetricsRegistry registry;
  obs::ScopedMetrics scoped(registry);
  for (int seed = 0; seed < kSeeds; ++seed) {
    util::Rng rng(0x9e3779b9u + static_cast<std::uint64_t>(seed) * 7919u);
    Network net = MakeNetwork(config, rng);
    Assignment previous(net.NumUsers());
    WoltPolicy memo(config.options);
    std::vector<std::uint8_t> mask(net.NumExtenders(), 1);
    for (int step = 0; step < kSteps; ++step) {
      const std::string edit = Mutate(config, net, previous, rng);
      const std::string where = config.name + " seed=" + std::to_string(seed) +
                                " step=" + std::to_string(step) + " " + edit;

      ExpectSamePhase1(memo.ComputePhase1(net),
                       WoltPolicy(config.options).ComputePhase1(net), where);
      if (config.masks) {
        // Masks persist for a few steps so masked solves can hit too.
        if (rng.NextDouble() < 0.3) {
          for (auto& m : mask) m = rng.NextDouble() < 0.6 ? 1 : 0;
        }
        ExpectSamePhase1(memo.ComputePhase1(net, mask),
                         WoltPolicy(config.options).ComputePhase1(net, mask),
                         where + " masked");
      }

      const Assignment got = memo.Associate(net, previous);
      const Assignment want =
          WoltPolicy(config.options).Associate(net, previous);
      ASSERT_EQ(got, want) << where;
      previous = got;
    }
  }
#if WOLT_OBS_ENABLED
  // A memo that never answers would pass the comparison trivially.
  EXPECT_GT(Hits(registry), 0u) << config.name;
#endif
}

INSTANTIATE_TEST_SUITE_P(
    Configs, Phase1MemoDifferentialTest, ::testing::ValuesIn(Configs()),
    [](const ::testing::TestParamInfo<Config>& info) {
      return info.param.name;
    });

Network SmallNetwork(std::uint64_t seed) {
  util::Rng rng(seed);
  return MakeNetwork({.name = "small", .users = 12, .extenders = 5}, rng);
}

TEST(Phase1MemoTest, UnchangedResolveIsAnsweredFromTheMemo) {
#if WOLT_OBS_ENABLED
  const Network net = SmallNetwork(11);
  WoltPolicy policy;
  obs::MetricsRegistry registry;
  obs::ScopedMetrics scoped(registry);
  const Phase1Result first = policy.ComputePhase1(net);
  EXPECT_EQ(Solves(registry), 1u);
  EXPECT_EQ(Hits(registry), 0u);
  const Phase1Result second = policy.ComputePhase1(net);
  EXPECT_EQ(Solves(registry), 1u);
  EXPECT_EQ(Hits(registry), 1u);
  ExpectSamePhase1(second, first, "resolve");
  // A different activation mask is a different key.
  std::vector<std::uint8_t> mask(net.NumExtenders(), 1);
  mask[0] = 0;
  policy.ComputePhase1(net, mask);
  EXPECT_EQ(Solves(registry), 2u);
  EXPECT_EQ(Hits(registry), 1u);
#else
  GTEST_SKIP() << "WOLT_OBS=OFF: solver counters compiled out";
#endif
}

TEST(Phase1MemoTest, HitMapsThroughTheCurrentExtenderList) {
  // Extenders 0 and 1 are twins: the same PLC rate and the same rate
  // column. Masks {0, 2} and {1, 2} then build bit-identical utility
  // matrices over different extender lists. The second solve is a memo hit,
  // and its matching must land on the enabled twin.
  Network net(4, 3);
  const double rates[4][3] = {
      {30.0, 30.0, 12.0}, {20.0, 20.0, 40.0}, {10.0, 10.0, 25.0},
      {15.0, 15.0, 0.0}};
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 3; ++j) net.SetWifiRate(i, j, rates[i][j]);
  }
  for (std::size_t j = 0; j < 3; ++j) net.SetPlcRate(j, 60.0);
  const std::vector<std::uint8_t> first = {1, 0, 1};
  const std::vector<std::uint8_t> second = {0, 1, 1};
  WoltPolicy policy;
  obs::MetricsRegistry registry;
  Phase1Result a, b;
  {
    obs::ScopedMetrics scoped(registry);
    a = policy.ComputePhase1(net, first);
    b = policy.ComputePhase1(net, second);
  }
  ExpectSamePhase1(a, WoltPolicy().ComputePhase1(net, first), "first twin");
  ExpectSamePhase1(b, WoltPolicy().ComputePhase1(net, second), "second twin");
  EXPECT_GE(b.user_of_extender[1], 0);
  EXPECT_EQ(b.user_of_extender[0], -1);
#if WOLT_OBS_ENABLED
  EXPECT_EQ(Hits(registry), 1u);
#endif
}

TEST(Phase1MemoTest, ExpiredDeadlineBypassesAWouldBeHit) {
  const Network net = SmallNetwork(12);
  WoltPolicy policy;
  const Phase1Result complete = policy.ComputePhase1(net);
  ASSERT_FALSE(complete.deadline_hit);
  ASSERT_FALSE(complete.u1_users.empty());

  const util::Deadline expired = util::Deadline::After(0.0);
  policy.SetDeadline(&expired);
  const Phase1Result truncated = policy.ComputePhase1(net);
  EXPECT_TRUE(truncated.deadline_hit);
  EXPECT_TRUE(truncated.u1_users.empty());
  WoltPolicy fresh;
  fresh.SetDeadline(&expired);
  ExpectSamePhase1(truncated, fresh.ComputePhase1(net), "expired");

  // The matrix did not change, so the bypass kept the stored solve: the
  // next call without a deadline is a hit.
  policy.SetDeadline(nullptr);
  obs::MetricsRegistry registry;
  obs::ScopedMetrics scoped(registry);
  ExpectSamePhase1(policy.ComputePhase1(net), complete, "after expiry");
#if WOLT_OBS_ENABLED
  EXPECT_EQ(Hits(registry), 1u);
  EXPECT_EQ(Solves(registry), 0u);
#endif
}

TEST(Phase1MemoTest, TruncatedSolveIsNeverReused) {
  Network net = SmallNetwork(13);
  WoltPolicy policy;
  policy.ComputePhase1(net);  // memo holds the original matrix

  // Change the matrix, then solve it under an expired deadline.
  net.SetPlcRate(1, net.PlcRate(1) * 0.25);
  const util::Deadline expired = util::Deadline::After(0.0);
  policy.SetDeadline(&expired);
  ASSERT_TRUE(policy.ComputePhase1(net).deadline_hit);
  policy.SetDeadline(nullptr);

  obs::MetricsRegistry registry;
  obs::ScopedMetrics scoped(registry);
  const Phase1Result after = policy.ComputePhase1(net);
  EXPECT_FALSE(after.deadline_hit);
  ExpectSamePhase1(after, WoltPolicy().ComputePhase1(net), "after truncation");
#if WOLT_OBS_ENABLED
  // The fresh policy and the long-lived one each ran a full solve.
  EXPECT_EQ(Hits(registry), 0u);
  EXPECT_EQ(Solves(registry), 2u);
  policy.ComputePhase1(net);
  EXPECT_EQ(Hits(registry), 1u);
#endif
}

}  // namespace
}  // namespace wolt::core
