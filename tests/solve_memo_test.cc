// Differential battery for WoltPolicy's exact whole-solve memo: one
// long-lived policy, whose memo carries over between calls, must return
// exactly what a fresh policy per call returns. The seeded sequences repeat
// identical scans (bit-identical rewrites of stored values, which keep
// Network::Version()), change rates, demands and PLC capacities, add and
// remove users, and vary `previous` between the last output, the last input
// and perturbed copies. They run sticky and non-sticky WOLT, WOLT-S and
// several PLC domains. The deadline rule is checked separately: a budgeted
// call neither reads nor writes the memo. A controller-level check drives
// the same comparison through CentralController's wire path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/controller.h"
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

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr int kSeeds = 4;
#else
constexpr int kSeeds = 40;
#endif
constexpr int kSteps = 50;

struct Config {
  std::string name{};
  WoltOptions options{};
  std::size_t users = 18;
  std::size_t extenders = 5;
  int domains = 1;
};

void PrintTo(const Config& config, std::ostream* os) { *os << config.name; }

std::vector<Config> Configs() {
  std::vector<Config> configs;
  configs.push_back({.name = "sticky"});
  Config fresh{.name = "non_sticky"};
  fresh.options.sticky = false;
  configs.push_back(fresh);
  Config subset{.name = "wolt_s", .users = 12};
  subset.options.subset_search = true;
  configs.push_back(subset);
  configs.push_back({.name = "domains", .domains = 3});
  return configs;
}

Network MakeNetwork(const Config& config, util::Rng& rng) {
  sim::ScenarioParams p;
  p.width_m = 50.0;
  p.height_m = 50.0;
  p.num_users = config.users;
  p.num_extenders = config.extenders;
  Network net = sim::ScenarioGenerator(p).Generate(rng);
  for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
    net.SetPlcDomain(j, static_cast<int>(j) % config.domains);
  }
  return net;
}

std::size_t Pick(util::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.UniformInt(0, static_cast<int>(n) - 1));
}

// One seeded edit of the network and of `previous` (whose user count must
// track the network's). Identical rewrites dominate, as on a real wire
// where most scans repeat the last one. Returns the edit's name.
std::string Mutate(Network& net, Assignment& previous,
                   const Assignment& last_input, const Assignment& last_output,
                   util::Rng& rng) {
  const std::size_t user = Pick(rng, net.NumUsers());
  switch (rng.UniformInt(0, 9)) {
    case 0:
    case 1:
    case 2: {
      // An identical scan: every value rewritten with the same bits.
      for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
        net.SetWifiRate(user, j, net.WifiRate(user, j));
        net.SetPlcRate(j, net.PlcRate(j));
      }
      net.SetUserDemand(user, net.UserDemand(user));
      previous = last_output;
      return "identical_scan";
    }
    case 3:
      // Same network, the last call's own input: a guaranteed hit.
      previous = last_input;
      return "repeat_input";
    case 4: {
      // Same network, a perturbed previous: a different key.
      const std::size_t ext = Pick(rng, net.NumExtenders());
      if (net.WifiRate(user, ext) > 0.0) {
        previous.Assign(user, ext);
      } else {
        previous.Unassign(user);
      }
      return "perturb_previous";
    }
    case 5: {
      const std::size_t ext = Pick(rng, net.NumExtenders());
      net.SetWifiRate(user, ext,
                      rng.Bernoulli(0.3) ? 0.0 : rng.Uniform(6.5, 300.0));
      previous = last_output;
      return "rate_change";
    }
    case 6:
      net.SetPlcRate(Pick(rng, net.NumExtenders()), rng.Uniform(20.0, 200.0));
      return "plc_change";
    case 7:
      net.SetUserDemand(user, rng.Bernoulli(0.5) ? 0.0 : rng.Uniform(1, 20));
      return "demand_change";
    case 8: {
      std::vector<double> rates(net.WifiRateRow(user),
                                net.WifiRateRow(user) + net.NumExtenders());
      net.AddUser(model::User{}, rates);
      previous = last_output;
      previous.AppendUser();
      return "arrival";
    }
    default:
      if (net.NumUsers() <= 3) return "none";
      net.RemoveUser(user);
      previous = last_output;
      previous.EraseUser(user);
      return "departure";
  }
}

#if WOLT_OBS_ENABLED
std::uint64_t Hits(obs::MetricsRegistry& r) {
  return r.GetCounter("wolt.solve_memo_hits").Value();
}
#endif

class SolveMemoDifferentialTest : public ::testing::TestWithParam<Config> {};

TEST_P(SolveMemoDifferentialTest, LongLivedPolicyMatchesFreshPolicy) {
  const Config& config = GetParam();
  obs::MetricsRegistry registry;
  obs::ScopedMetrics scoped(registry);
  for (int seed = 0; seed < kSeeds; ++seed) {
    util::Rng rng(0x5eed0000u + static_cast<std::uint64_t>(seed) * 104729u);
    Network net = MakeNetwork(config, rng);
    WoltPolicy memo(config.options);
    Assignment last_input(net.NumUsers());
    Assignment last_output = memo.Associate(net, last_input);
    Assignment previous = last_output;
    for (int step = 0; step < kSteps; ++step) {
      const std::uint64_t version = net.Version();
      const std::string edit =
          Mutate(net, previous, last_input, last_output, rng);
      const std::string where = config.name + " seed=" + std::to_string(seed) +
                                " step=" + std::to_string(step) + " " + edit;
      if (edit == "identical_scan") {
        ASSERT_EQ(net.Version(), version) << where;
      }
      ASSERT_EQ(previous.NumUsers(), net.NumUsers()) << where;

      const Assignment got = memo.Associate(net, previous);
      const Assignment want =
          WoltPolicy(config.options).Associate(net, previous);
      ASSERT_EQ(got, want) << where;
      last_input = previous;
      last_output = got;
    }
  }
#if WOLT_OBS_ENABLED
  // A memo that never answers would pass the comparison trivially.
  EXPECT_GT(Hits(registry), 0u) << config.name;
#endif
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SolveMemoDifferentialTest, ::testing::ValuesIn(Configs()),
    [](const ::testing::TestParamInfo<Config>& info) {
      return info.param.name;
    });

Network SmallNetwork(std::uint64_t seed) {
  util::Rng rng(seed);
  return MakeNetwork({.name = "small", .users = 12, .extenders = 4}, rng);
}

TEST(SolveMemoTest, RepeatedInputIsAHitAndChangedInputIsNot) {
#if WOLT_OBS_ENABLED
  Network net = SmallNetwork(21);
  WoltPolicy policy;
  const Assignment previous(net.NumUsers());
  obs::MetricsRegistry registry;
  obs::ScopedMetrics scoped(registry);
  const Assignment first = policy.Associate(net, previous);
  EXPECT_EQ(Hits(registry), 0u);
  const std::uint64_t solves =
      registry.GetCounter("hungarian.solves").Value() +
      registry.GetCounter("wolt.phase1.memo_hits").Value();
  EXPECT_EQ(policy.Associate(net, previous), first);
  EXPECT_EQ(Hits(registry), 1u);
  // A hit runs neither phase.
  EXPECT_EQ(registry.GetCounter("hungarian.solves").Value() +
                registry.GetCounter("wolt.phase1.memo_hits").Value(),
            solves);
  // A copy shares the stamp of the state it was copied from.
  const Network copy = net;
  EXPECT_EQ(policy.Associate(copy, previous), first);
  EXPECT_EQ(Hits(registry), 2u);
  // A different previous is a different key.
  EXPECT_EQ(policy.Associate(net, first), WoltPolicy().Associate(net, first));
  EXPECT_EQ(Hits(registry), 2u);
  // So is a changed network, even when the change is one ulp.
  net.SetPlcRate(0, std::nextafter(net.PlcRate(0), 1e9));
  EXPECT_EQ(policy.Associate(net, first), WoltPolicy().Associate(net, first));
  EXPECT_EQ(Hits(registry), 2u);
#else
  GTEST_SKIP() << "WOLT_OBS=OFF: solver counters compiled out";
#endif
}

TEST(SolveMemoTest, DeadlineBypassesTheMemo) {
  Network net = SmallNetwork(22);
  const Assignment previous(net.NumUsers());
  WoltPolicy policy;
  const Assignment complete = policy.Associate(net, previous);

  obs::MetricsRegistry registry;
  obs::ScopedMetrics scoped(registry);
  // An unexpired deadline on the stored input: the solve still runs.
  const util::Deadline generous = util::Deadline::After(3600.0);
  policy.SetDeadline(&generous);
  EXPECT_EQ(policy.Associate(net, previous), complete);
#if WOLT_OBS_ENABLED
  EXPECT_EQ(Hits(registry), 0u);
#endif

  // An expired deadline on a new input: the truncated result is not stored.
  net.SetPlcRate(1, net.PlcRate(1) * 0.5);
  const util::Deadline expired = util::Deadline::After(0.0);
  policy.SetDeadline(&expired);
  const Assignment truncated = policy.Associate(net, previous);
  policy.SetDeadline(nullptr);
  const Assignment full = WoltPolicy().Associate(net, previous);
  (void)truncated;
  EXPECT_EQ(policy.Associate(net, previous), full);
#if WOLT_OBS_ENABLED
  EXPECT_EQ(Hits(registry), 0u);
  // The deadline-free solve was stored: repeating it is a hit.
  EXPECT_EQ(policy.Associate(net, previous), full);
  EXPECT_EQ(Hits(registry), 1u);
#endif
}

// Delegates every call to a fresh WoltPolicy: the memo-free reference.
class FreshWolt : public AssociationPolicy {
 public:
  std::string Name() const override { return "fresh-WOLT"; }
  Assignment Associate(const Network& net,
                       const Assignment& previous) override {
    WoltPolicy policy;
    policy.SetDeadline(deadline_);
    return policy.Associate(net, previous);
  }
};

std::string Render(const std::vector<AssociationDirective>& ds) {
  std::string out;
  for (const auto& d : ds) out += Encode(d) + "\n";
  return out;
}

TEST(SolveMemoTest, ControllerRepliesMatchAMemoFreePolicy) {
  constexpr std::size_t kExtenders = 4;
  CentralController memo(kExtenders, std::make_unique<WoltPolicy>());
  CentralController fresh(kExtenders, std::make_unique<FreshWolt>());
  obs::MetricsRegistry registry;
  obs::ScopedMetrics scoped(registry);
  util::Rng rng(0xC7A1);
  std::vector<std::vector<double>> rates(10);
  for (std::size_t j = 0; j < kExtenders; ++j) {
    const std::string cap = Encode(
        CapacityReport{static_cast<int>(j), rng.Uniform(40.0, 160.0)});
    ASSERT_EQ(memo.HandleCapacityReport(*DecodeCapacityReport(cap)),
              fresh.HandleCapacityReport(*DecodeCapacityReport(cap)));
  }
  for (int step = 0; step < 400; ++step) {
    const std::size_t u = Pick(rng, rates.size());
    if (rates[u].empty() || rng.Bernoulli(0.2)) {
      rates[u].clear();
      for (std::size_t j = 0; j < kExtenders; ++j) {
        rates[u].push_back(rng.Bernoulli(0.2) ? 0.0 : rng.Uniform(6.5, 150.0));
      }
    }
    // Most scans repeat the user's last report byte for byte.
    ScanReport scan;
    scan.user_id = static_cast<std::int64_t>(u);
    scan.rates_mbps = rates[u];
    const std::string line = Encode(scan);
    const auto report = DecodeScanReport(line);
    ASSERT_TRUE(report.has_value());
    const bool known = memo.KnowsUser(scan.user_id);
    const HandleResult a = known ? memo.HandleScanUpdate(*report)
                                 : memo.HandleUserArrival(*report);
    const HandleResult b = known ? fresh.HandleScanUpdate(*report)
                                 : fresh.HandleUserArrival(*report);
    ASSERT_EQ(a.status, b.status) << "step " << step;
    ASSERT_EQ(Render(a.directives), Render(b.directives)) << "step " << step;
    ASSERT_EQ(memo.assignment(), fresh.assignment()) << "step " << step;
  }
#if WOLT_OBS_ENABLED
  EXPECT_GT(Hits(registry), 0u);
#endif
}

}  // namespace
}  // namespace wolt::core
