// Exhaustive small-scope equivalence check of the throughput kernel.
//
// Every instance of at most 3 users x 3 extenders over a small rate grid is
// enumerated together with every PLC-domain set partition, every valid
// assignment (unassigned users included) and all three PlcSharing modes:
//
//  * Evaluator::Evaluate must be BIT-IDENTICAL to the self-contained
//    test-only reference (reference_evaluator.h) in every EvalResult field,
//    and report as many max-min rounds (eval.maxmin_rounds) as it runs.
//  * IncrementalEvaluator must stay within 1e-9 of a fresh Evaluate — when
//    freshly built on each assignment, after every ApplyMove of a walk
//    through all assignments, and for every PeekMove and PeekSwap.
//
// Scope (the saturated grid, then the demand and channel-plan grid):
//  * U x E <= 6: WiFi rates {0, 2, 6}, PLC rates {0, 3, 12}, demands 0.
//  * 3 x 3: WiFi rates {0, 6}, PLC rates {0, 3, 12}, demands 0.
//  * U x E <= 6, users in one canonical (sorted) order: WiFi rates {2, 6},
//    PLC rates {0, 3, 12}, every PLC-domain partition for E <= 2 and one
//    domain for E = 3, demands {0, 1, 4}, and either no channel plan or a
//    plan from {0, 1}^E (channel of extender 0 fixed to 0: the mirrored plan
//    has the same domains) on extenders at x = 0, 50, 100 m with a 60 m
//    carrier-sense range, so only neighbours can hear each other.
//  * 3 x 3 on the same demand and plan grid with every WiFi rate 5, PLC
//    rates {0, 3, 12} and one PLC domain (three co-channel active cells).
//
// The suite also asserts it reached every Bottleneck value, a dead backhaul,
// a multi-round max-min, both demand regimes and a multi-cell co-channel
// domain, so a shrunken grid cannot pass vacuously.
//
// On the same enumeration helpers, Theorem 3 (the Phase-II relaxation has an
// integral optimum) is checked against brute force: one fixed user per
// extender (E in {2, 3}) plus 1-3 free users, WiFi rates {2, 6, 13}.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "assign/brute_force.h"
#include "assign/local_search.h"
#include "assign/nlp.h"
#include "model/assignment.h"
#include "model/evaluator.h"
#include "model/incremental.h"
#include "model/network.h"
#include "obs/obs.h"
#include "reference_evaluator.h"

namespace wolt::model {
namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr std::uint64_t kStride = 97;  // sampled instances (slow builds)
#else
constexpr std::uint64_t kStride = 1;  // exhaustive
#endif

constexpr double kTol = 1e-9;
constexpr int kMaxReportedFailures = 10;
const PlcSharing kModes[] = {PlcSharing::kMaxMinActive,
                             PlcSharing::kEqualActive, PlcSharing::kEqualAll};

// ---------------------------------------------------------------------------
// Enumeration helpers

// Odometer: advances `digits` (each in [0, radix)) to the next tuple;
// false once every tuple has been visited (digits wrap back to zero).
bool NextTuple(std::vector<int>& digits, int radix) {
  for (int& d : digits) {
    if (++d < radix) return true;
    d = 0;
  }
  return false;
}

// Like NextTuple, but only visits non-decreasing tuples (multisets).
bool NextSortedTuple(std::vector<int>& digits, int radix) {
  for (std::size_t k = digits.size(); k-- > 0;) {
    if (digits[k] + 1 < radix) {
      ++digits[k];
      for (std::size_t m = k + 1; m < digits.size(); ++m) {
        digits[m] = digits[k];
      }
      return true;
    }
  }
  std::fill(digits.begin(), digits.end(), 0);
  return false;
}

// Every set partition of {0, ..., n-1} as a restricted growth string.
std::vector<std::vector<int>> SetPartitions(std::size_t n) {
  std::vector<std::vector<int>> out;
  std::vector<int> a(n, 0);
  const auto rec = [&](auto& self, std::size_t k, int max_block) -> void {
    if (k == n) {
      out.push_back(a);
      return;
    }
    for (int b = 0; b <= max_block + 1; ++b) {
      a[k] = b;
      self(self, k + 1, std::max(max_block, b));
    }
  };
  if (n == 0) return {{}};
  rec(rec, 1, 0);
  return out;
}

// Index of an assignment in the (E+1)^U table of all extender choices.
std::size_t Code(const int* ext_of, std::size_t num_users,
                 std::size_t num_ext) {
  std::size_t code = 0;
  for (std::size_t i = num_users; i-- > 0;) {
    code = code * (num_ext + 1) + static_cast<std::size_t>(ext_of[i] + 1);
  }
  return code;
}

// Every valid assignment of `net`: each user unassigned or on an extender
// it can reach, in odometer order (user 0 fastest).
std::vector<Assignment> AllAssignments(const Network& net) {
  const std::size_t num_users = net.NumUsers();
  const std::size_t num_ext = net.NumExtenders();
  std::vector<Assignment> out;
  std::vector<int> digits(num_users, 0);  // 0 = unassigned, e + 1 = on e
  do {
    Assignment a(num_users);
    bool valid = true;
    for (std::size_t i = 0; i < num_users && valid; ++i) {
      if (digits[i] == 0) continue;
      const std::size_t e = static_cast<std::size_t>(digits[i] - 1);
      valid = net.WifiRate(i, e) > 0.0;
      a.Assign(i, e);
    }
    if (valid) out.push_back(a);
  } while (NextTuple(digits, static_cast<int>(num_ext) + 1));
  return out;
}

// ---------------------------------------------------------------------------
// Kernel equivalence

struct Coverage {
  std::uint64_t instances = 0;
  std::uint64_t triples = 0;  // (instance, assignment, mode)
  std::uint64_t peeks = 0;
  std::uint64_t moves = 0;
  std::uint64_t failures = 0;
  bool bottleneck[4] = {false, false, false, false};
  bool dead_backhaul = false;
  bool multi_round_maxmin = false;
  bool saturated_regime = false;
  bool demand_regime = false;
  bool multi_cell_domain = false;
};

std::string Describe(const Network& net, const Assignment& a,
                     const EvalOptions& opts) {
  std::ostringstream os;
  os << "sharing=" << ToString(opts.plc_sharing) << " users=[";
  for (std::size_t i = 0; i < net.NumUsers(); ++i) {
    os << " {d=" << net.UserDemand(i) << " on=" << a.ExtenderOf(i) << " r=";
    for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
      os << (j ? "," : "") << net.WifiRate(i, j);
    }
    os << "}";
  }
  os << " ] extenders=[";
  for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
    os << " {c=" << net.PlcRate(j) << " dom=" << net.PlcDomain(j);
    if (!opts.wifi_channel.empty()) os << " ch=" << opts.wifi_channel[j];
    os << "}";
  }
  os << " ]";
  return os.str();
}

bool BitIdentical(const EvalResult& a, const EvalResult& b) {
  if (a.aggregate_mbps != b.aggregate_mbps ||
      a.active_extenders != b.active_extenders ||
      a.extenders.size() != b.extenders.size() ||
      a.user_throughput_mbps != b.user_throughput_mbps) {
    return false;
  }
  for (std::size_t j = 0; j < a.extenders.size(); ++j) {
    const ExtenderReport& x = a.extenders[j];
    const ExtenderReport& y = b.extenders[j];
    if (x.num_users != y.num_users ||
        x.wifi_throughput_mbps != y.wifi_throughput_mbps ||
        x.plc_time_share != y.plc_time_share ||
        x.plc_throughput_mbps != y.plc_throughput_mbps ||
        x.end_to_end_mbps != y.end_to_end_mbps ||
        x.bottleneck != y.bottleneck) {
      return false;
    }
  }
  return true;
}

double LogUtility(const EvalResult& r, const Assignment& a) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.NumUsers(); ++i) {
    if (!a.IsAssigned(i)) continue;
    sum += std::log(std::max(r.user_throughput_mbps[i],
                             IncrementalEvaluator::kDefaultLogFloorMbps));
  }
  return sum;
}

// The eval.maxmin_rounds counter of the calling thread's metrics scope;
// -1 in builds without observability hooks.
std::int64_t MaxMinRoundsSoFar() {
#if WOLT_OBS_ENABLED
  return static_cast<std::int64_t>(
      obs::CurrentScope()->eval.maxmin_rounds.Value());
#else
  return -1;
#endif
}

// Objective values of every assignment of one (instance, mode), by Code.
struct ValueTable {
  std::vector<IncrementalValues> values;
  std::vector<char> known;
};

class KernelChecker {
 public:
  explicit KernelChecker(Coverage& cov) : cov_(cov), metrics_(registry_) {}

  void Check(const Network& net, const EvalOptions& base) {
    ++cov_.instances;
    const std::vector<Assignment> assignments = AllAssignments(net);
    std::size_t table_size = 1;
    for (std::size_t i = 0; i < net.NumUsers(); ++i) {
      table_size *= net.NumExtenders() + 1;
    }
    for (PlcSharing mode : kModes) {
      EvalOptions opts = base;
      opts.plc_sharing = mode;
      const Evaluator evaluator(opts);
      table_.values.assign(table_size, IncrementalValues{});
      table_.known.assign(table_size, 0);
      for (const Assignment& a : assignments) {
        ++cov_.triples;
        const std::int64_t rounds_before = MaxMinRoundsSoFar();
        const EvalResult& fast = evaluator.Evaluate(net, a, scratch_);
        const std::int64_t rounds = MaxMinRoundsSoFar() - rounds_before;
        reference::Trace trace;
        const EvalResult ref = reference::Evaluate(opts, net, a, &trace);
        if (!BitIdentical(fast, ref)) {
          Fail("Evaluate differs from the reference", net, a, opts);
        }
        if (rounds_before >= 0 && rounds != trace.maxmin_rounds) {
          Fail("max-min round count differs", net, a, opts);
        }
        const std::size_t code = Code(a.Data(), a.NumUsers(), net.NumExtenders());
        table_.values[code] = {fast.aggregate_mbps, LogUtility(fast, a)};
        table_.known[code] = 1;
        for (const ExtenderReport& rep : ref.extenders) {
          cov_.bottleneck[static_cast<int>(rep.bottleneck)] = true;
        }
        cov_.dead_backhaul |= trace.dead_backhaul;
        cov_.multi_round_maxmin |= trace.max_maxmin_rounds >= 2;
        cov_.demand_regime |= trace.demand_regime;
        cov_.saturated_regime |= !trace.demand_regime;
        cov_.multi_cell_domain |= trace.max_contending_cells >= 2;
      }
      CheckIncremental(net, opts, assignments);
    }
  }

 private:
  void Fail(const std::string& what, const Network& net, const Assignment& a,
            const EvalOptions& opts) {
    if (++cov_.failures <= kMaxReportedFailures) {
      ADD_FAILURE() << what << ": " << Describe(net, a, opts);
    }
  }

  void Expect(const IncrementalValues& got, const int* ext_of,
              const Network& net, const Assignment& at,
              const EvalOptions& opts, const char* what) {
    const std::size_t code =
        Code(ext_of, net.NumUsers(), net.NumExtenders());
    const IncrementalValues& want = table_.values[code];
    if (!table_.known[code] ||
        !(std::abs(got.aggregate_mbps - want.aggregate_mbps) <= kTol) ||
        !(std::abs(got.log_utility - want.log_utility) <= kTol)) {
      Fail(what, net, at, opts);
    }
  }

  void CheckIncremental(const Network& net, const EvalOptions& opts,
                        const std::vector<Assignment>& assignments) {
    const std::size_t num_users = net.NumUsers();
    const std::size_t num_ext = net.NumExtenders();
    std::vector<int> probe(num_users);
    for (const Assignment& a : assignments) {
      IncrementalEvaluator inc(net, a, opts);
      Expect(inc.values(), a.Data(), net, a, opts, "fresh engine differs");
      std::copy(a.Data(), a.Data() + num_users, probe.begin());
      for (std::size_t u = 0; u < num_users; ++u) {
        const int from = probe[u];
        for (int to = Assignment::kUnassigned;
             to < static_cast<int>(num_ext); ++to) {
          if (to == from) continue;
          if (to >= 0 && net.WifiRate(u, static_cast<std::size_t>(to)) <= 0.0) {
            continue;
          }
          ++cov_.peeks;
          const IncrementalValues peeked = inc.PeekMove(u, to);
          probe[u] = to;
          Expect(peeked, probe.data(), net, a, opts, "PeekMove differs");
          probe[u] = from;
        }
      }
      for (std::size_t u1 = 0; u1 < num_users; ++u1) {
        for (std::size_t u2 = u1 + 1; u2 < num_users; ++u2) {
          const int e1 = probe[u1];
          const int e2 = probe[u2];
          if (e1 < 0 || e2 < 0 || e1 == e2) continue;
          if (net.WifiRate(u1, static_cast<std::size_t>(e2)) <= 0.0 ||
              net.WifiRate(u2, static_cast<std::size_t>(e1)) <= 0.0) {
            continue;
          }
          ++cov_.peeks;
          const IncrementalValues peeked = inc.PeekSwap(u1, u2);
          probe[u1] = e2;
          probe[u2] = e1;
          Expect(peeked, probe.data(), net, a, opts, "PeekSwap differs");
          probe[u1] = e1;
          probe[u2] = e2;
        }
      }
      Expect(inc.values(), a.Data(), net, a, opts,
             "peeks changed the engine state");
    }

    // One engine walked through every assignment, one ApplyMove per changed
    // user, checked after each move (every intermediate is valid too).
    IncrementalEvaluator walker(net, assignments.front(), opts);
    std::copy(assignments.front().Data(),
              assignments.front().Data() + num_users, probe.begin());
    for (const Assignment& next : assignments) {
      for (std::size_t u = 0; u < num_users; ++u) {
        if (next.ExtenderOf(u) == probe[u]) continue;
        ++cov_.moves;
        walker.ApplyMove(u, next.ExtenderOf(u));
        probe[u] = next.ExtenderOf(u);
        Expect(walker.values(), probe.data(), net, next, opts,
               "ApplyMove walk differs");
      }
    }
  }

  Coverage& cov_;
  obs::MetricsRegistry registry_;
  obs::ScopedMetrics metrics_;
  EvalScratch scratch_;  // warm across instances: exercises the SoA cache
  ValueTable table_;
};

struct GridSpec {
  std::size_t users = 0;
  std::size_t extenders = 0;
  std::vector<double> wifi;
  std::vector<double> plc;
  std::vector<double> demand;  // {0} = saturated only
  bool channel_plans = false;  // also every plan with channel[0] = 0
  bool all_partitions = true;  // else one PLC domain
};

// Enumerates every instance of `spec` and checks each one. With demands,
// users are enumerated in one canonical order: their (WiFi row, demand)
// types form a non-decreasing sequence, since permuting users permutes the
// assignments along with them.
void Sweep(const GridSpec& spec, KernelChecker& checker,
           std::uint64_t& index) {
  const std::size_t num_users = spec.users;
  const std::size_t num_ext = spec.extenders;
  const int wifi_radix = static_cast<int>(spec.wifi.size());
  int row_types = 1;
  for (std::size_t j = 0; j < num_ext; ++j) row_types *= wifi_radix;
  const int user_types = row_types * static_cast<int>(spec.demand.size());
  const bool canonical = spec.demand.size() > 1;
  const std::vector<std::vector<int>> partitions =
      spec.all_partitions ? SetPartitions(num_ext)
                          : std::vector<std::vector<int>>{
                                std::vector<int>(num_ext, 0)};

  std::vector<std::vector<int>> plans = {{}};
  if (spec.channel_plans) {
    std::vector<int> bits(num_ext - 1, 0);
    do {
      std::vector<int> plan = {0};
      plan.insert(plan.end(), bits.begin(), bits.end());
      plans.push_back(plan);
    } while (NextTuple(bits, 2));
  }

  std::vector<int> users(num_users, 0);  // per-user type index
  do {
    std::vector<int> plc(num_ext, 0);
    do {
      for (const std::vector<int>& partition : partitions) {
        for (const std::vector<int>& plan : plans) {
          if (index++ % kStride != 0) continue;
          Network net(num_users, num_ext);
          for (std::size_t j = 0; j < num_ext; ++j) {
            net.SetPlcRate(j, spec.plc[static_cast<std::size_t>(plc[j])]);
            net.SetPlcDomain(j, partition[j]);
            net.SetExtenderPosition(j, {50.0 * static_cast<double>(j), 0.0});
          }
          for (std::size_t i = 0; i < num_users; ++i) {
            int type = users[i];
            net.SetUserDemand(i, spec.demand[static_cast<std::size_t>(
                                     type / row_types)]);
            type %= row_types;
            for (std::size_t j = 0; j < num_ext; ++j) {
              const double r =
                  spec.wifi[static_cast<std::size_t>(type % wifi_radix)];
              type /= wifi_radix;
              if (r > 0.0) net.SetWifiRate(i, j, r);
            }
          }
          EvalOptions opts;
          opts.wifi_channel = plan;
          opts.carrier_sense_range_m = 60.0;
          checker.Check(net, opts);
        }
      }
    } while (NextTuple(plc, static_cast<int>(spec.plc.size())));
  } while (canonical ? NextSortedTuple(users, user_types)
                     : NextTuple(users, user_types));
}

std::vector<GridSpec> SaturatedGrid() {
  std::vector<GridSpec> out;
  for (std::size_t u = 1; u <= 3; ++u) {
    for (std::size_t e = 1; e <= 3; ++e) {
      GridSpec spec{u, e, {0.0, 2.0, 6.0}, {0.0, 3.0, 12.0}, {0.0}, false};
      if (u * e > 6) spec.wifi = {0.0, 6.0};
      out.push_back(spec);
    }
  }
  return out;
}

std::vector<GridSpec> DemandAndPlanGrid() {
  std::vector<GridSpec> out;
  for (std::size_t u = 1; u <= 3; ++u) {
    for (std::size_t e = 1; e <= 3 && u * e <= 6; ++e) {
      out.push_back(GridSpec{u, e, {2.0, 6.0}, {0.0, 3.0, 12.0},
                             {0.0, 1.0, 4.0}, true, e < 3});
    }
  }
  // Three active cells in one co-channel domain need 3 x 3. There 1/peers =
  // 1/3 is not a power of two, so at rate 5 the saturated n / sum / peers
  // form and the demand-aware level round differently: the only scope where
  // a per-cell demand regime would show.
  out.push_back(
      GridSpec{3, 3, {5.0}, {0.0, 3.0, 12.0}, {0.0, 1.0, 4.0}, true, false});
  return out;
}

void ExpectFullCoverage(const Coverage& cov, bool with_demands) {
  EXPECT_EQ(cov.failures, 0u);
  EXPECT_TRUE(cov.bottleneck[static_cast<int>(Bottleneck::kIdle)]);
  EXPECT_TRUE(cov.bottleneck[static_cast<int>(Bottleneck::kWifi)]);
  EXPECT_TRUE(cov.bottleneck[static_cast<int>(Bottleneck::kPlc)]);
  EXPECT_TRUE(cov.bottleneck[static_cast<int>(Bottleneck::kBalanced)]);
  EXPECT_TRUE(cov.dead_backhaul);
  EXPECT_TRUE(cov.multi_round_maxmin);
  EXPECT_TRUE(cov.saturated_regime);
  EXPECT_EQ(cov.demand_regime, with_demands);
  EXPECT_EQ(cov.multi_cell_domain, with_demands);
  std::printf(
      "instances=%llu triples=%llu peeks=%llu moves=%llu (stride %llu)\n",
      static_cast<unsigned long long>(cov.instances),
      static_cast<unsigned long long>(cov.triples),
      static_cast<unsigned long long>(cov.peeks),
      static_cast<unsigned long long>(cov.moves),
      static_cast<unsigned long long>(kStride));
}

TEST(KernelExhaustiveTest, SaturatedGrid) {
  Coverage cov;
  KernelChecker checker(cov);
  std::uint64_t index = 0;
  for (const GridSpec& spec : SaturatedGrid()) Sweep(spec, checker, index);
  ExpectFullCoverage(cov, /*with_demands=*/false);
}

TEST(KernelExhaustiveTest, DemandsAndChannelPlans) {
  Coverage cov;
  KernelChecker checker(cov);
  std::uint64_t index = 0;
  for (const GridSpec& spec : DemandAndPlanGrid()) Sweep(spec, checker, index);
  ExpectFullCoverage(cov, /*with_demands=*/true);
}

// ---------------------------------------------------------------------------
// Theorem 3: the Phase-II relaxation never beats Problem 2's integral
// optimum, and lands on an integral point whenever that optimum is unique.

TEST(KernelExhaustiveTest, Theorem3NlpAgainstBruteForce) {
  const std::vector<double> grid = {2.0, 6.0, 13.0};
  std::uint64_t instances = 0, ties = 0, fractional_ties = 0;
  std::uint64_t index = 0;
  for (std::size_t num_ext = 2; num_ext <= 3; ++num_ext) {
    int row_types = 1;
    for (std::size_t j = 0; j < num_ext; ++j) row_types *= 3;
    for (std::size_t num_free = 1; num_free <= 3; ++num_free) {
      const std::size_t num_users = num_ext + num_free;
      std::vector<int> fixed_rates(num_ext, 0);
      do {
        std::vector<int> free_rows(num_free, 0);  // one canonical order
        do {
          if (index++ % kStride != 0) continue;
          Network net(num_users, num_ext);
          Assignment fixed(num_users);
          for (std::size_t j = 0; j < num_ext; ++j) {
            net.SetPlcRate(j, 100.0);
            net.SetWifiRate(j, j, grid[static_cast<std::size_t>(
                                      fixed_rates[j])]);
            fixed.Assign(j, j);
          }
          std::vector<std::size_t> movable;
          for (std::size_t f = 0; f < num_free; ++f) {
            const std::size_t i = num_ext + f;
            movable.push_back(i);
            int type = free_rows[f];
            for (std::size_t j = 0; j < num_ext; ++j) {
              net.SetWifiRate(i, j, grid[static_cast<std::size_t>(type % 3)]);
              type /= 3;
            }
          }
          ++instances;
          std::vector<double> values;
          const assign::BruteForceResult best =
              assign::SolveBruteForceObjective(
                  net, fixed, [&](const Assignment& a) {
                    values.push_back(assign::Phase2Value(
                        net, a, assign::Phase2Objective::kWifiSum, {}));
                    return values.back();
                  });
          const double optimum = best.best_aggregate_mbps;
          const bool tie =
              std::count_if(values.begin(), values.end(), [&](double v) {
                return v >= optimum - 1e-9 * std::max(1.0, optimum);
              }) > 1;
          const assign::NlpResult r =
              assign::SolvePhase2Nlp(net, fixed, movable);
          EXPECT_LE(r.objective_continuous, optimum + 1e-6)
              << "E=" << num_ext << " free=" << num_free;
          if (tie) {
            ++ties;
            if (r.max_fractionality > 0.0) ++fractional_ties;
          } else {
            EXPECT_EQ(r.max_fractionality, 0.0)
                << "E=" << num_ext << " free=" << num_free;
          }
        } while (NextSortedTuple(free_rows, row_types));
      } while (NextTuple(fixed_rates, 3));
    }
  }
  std::printf("theorem3: instances=%llu ties=%llu fractional_ties=%llu\n",
              static_cast<unsigned long long>(instances),
              static_cast<unsigned long long>(ties),
              static_cast<unsigned long long>(fractional_ties));
  EXPECT_GT(instances, 0u);
}

}  // namespace
}  // namespace wolt::model
