// Unit and property tests for the in-place PLC airtime allocators the
// evaluator, the incremental engine and the high-fidelity simulator share
// (model::detail::MaxMinSharesInPlace / EqualSharesInPlace, dispatched by
// AllocateAirtime): time-fair sharing of one contention domain (§III-A),
// with the Fig. 3c max-min re-allocation of leftover airtime.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include "model/evaluator.h"
#include "util/rng.h"

namespace wolt::model {
namespace {

struct TimeShareResult {
  std::vector<double> time_share;
  // Delivered PLC throughput min(d_j, t_j * c_j) per extender.
  std::vector<double> throughput;
};

// Runs the allocator for `sharing` over one domain holding every extender.
TimeShareResult Allocate(PlcSharing sharing, const std::vector<double>& rates,
                         const std::vector<double>& demands) {
  const std::size_t n = rates.size();
  std::vector<int> members(n);
  std::iota(members.begin(), members.end(), 0);
  std::vector<std::size_t> idx(n);
  TimeShareResult r;
  r.time_share.assign(n, -1.0);  // the allocator must write every member
  detail::AllocateAirtime(sharing, members.data(), n, rates.data(),
                          demands.data(), r.time_share.data(), idx.data());
  r.throughput.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    r.throughput[j] = std::min(demands[j], r.time_share[j] * rates[j]);
  }
  return r;
}

TimeShareResult MaxMinTimeShare(const std::vector<double>& rates,
                                const std::vector<double>& demands) {
  return Allocate(PlcSharing::kMaxMinActive, rates, demands);
}

TimeShareResult EqualTimeShare(const std::vector<double>& rates,
                               const std::vector<double>& demands) {
  return Allocate(PlcSharing::kEqualActive, rates, demands);
}

TEST(MaxMinTimeShareTest, SingleBackloggedExtenderGetsNeededTime) {
  // One extender with demand below capacity uses only the time it needs.
  const std::vector<double> rates = {60.0};
  const std::vector<double> demands = {30.0};
  const TimeShareResult r = MaxMinTimeShare(rates, demands);
  EXPECT_DOUBLE_EQ(r.time_share[0], 0.5);
  EXPECT_DOUBLE_EQ(r.throughput[0], 30.0);
}

TEST(MaxMinTimeShareTest, SaturatedExtendersShareEqually) {
  // Fig. 2c behaviour: k saturated extenders each get 1/k of airtime.
  const std::vector<double> rates = {60.0, 90.0, 120.0, 160.0};
  const std::vector<double> demands = {1e9, 1e9, 1e9, 1e9};
  const TimeShareResult r = MaxMinTimeShare(rates, demands);
  for (std::size_t j = 0; j < rates.size(); ++j) {
    EXPECT_NEAR(r.time_share[j], 0.25, 1e-12);
    EXPECT_NEAR(r.throughput[j], rates[j] / 4.0, 1e-9);
  }
}

TEST(MaxMinTimeShareTest, LeftoverFlowsToBackloggedExtender) {
  // The paper's Fig. 3c greedy case: extender 1 (60 Mbps link) demands only
  // 15, using 1/4 of the time; extender 2 (20 Mbps link) is saturated and
  // receives the remaining 3/4, delivering 15 Mbps.
  const std::vector<double> rates = {60.0, 20.0};
  const std::vector<double> demands = {15.0, 20.0};
  const TimeShareResult r = MaxMinTimeShare(rates, demands);
  EXPECT_NEAR(r.time_share[0], 0.25, 1e-12);
  EXPECT_NEAR(r.time_share[1], 0.75, 1e-12);
  EXPECT_NEAR(r.throughput[0], 15.0, 1e-9);
  EXPECT_NEAR(r.throughput[1], 15.0, 1e-9);
}

TEST(MaxMinTimeShareTest, AllDemandsFitLeavesSlack) {
  const std::vector<double> rates = {100.0, 100.0};
  const std::vector<double> demands = {10.0, 20.0};
  const TimeShareResult r = MaxMinTimeShare(rates, demands);
  EXPECT_DOUBLE_EQ(r.throughput[0], 10.0);
  EXPECT_DOUBLE_EQ(r.throughput[1], 20.0);
  EXPECT_LT(r.time_share[0] + r.time_share[1], 1.0);
}

TEST(MaxMinTimeShareTest, ZeroDemandGetsNoAirtime) {
  const std::vector<double> rates = {50.0, 50.0};
  const std::vector<double> demands = {0.0, 100.0};
  const TimeShareResult r = MaxMinTimeShare(rates, demands);
  EXPECT_DOUBLE_EQ(r.time_share[0], 0.0);
  EXPECT_DOUBLE_EQ(r.throughput[0], 0.0);
  EXPECT_NEAR(r.time_share[1], 1.0, 1e-12);
  EXPECT_NEAR(r.throughput[1], 50.0, 1e-9);
}

TEST(MaxMinTimeShareTest, CascadedRedistribution) {
  // Three extenders: two low-demand ones release time in successive rounds.
  const std::vector<double> rates = {90.0, 90.0, 30.0};
  const std::vector<double> demands = {10.0, 33.0, 1e9};
  const TimeShareResult r = MaxMinTimeShare(rates, demands);
  // Round 1 share = 1/3: ext0 needs 1/9 < 1/3 (sated). Round 2: remaining
  // 8/9 split over 2 -> 4/9; ext1 needs 33/90 = 0.3667 < 4/9 (sated).
  // Ext2 gets 1 - 1/9 - 0.3667 = 0.5222.
  EXPECT_NEAR(r.throughput[0], 10.0, 1e-9);
  EXPECT_NEAR(r.throughput[1], 33.0, 1e-9);
  EXPECT_NEAR(r.time_share[2], 1.0 - 1.0 / 9.0 - 33.0 / 90.0, 1e-9);
  EXPECT_NEAR(r.throughput[2], r.time_share[2] * 30.0, 1e-9);
}

TEST(MaxMinTimeShareTest, OnlyListedMembersAreTouched) {
  // A domain is a member list into per-extender arrays: extenders outside
  // it keep whatever the caller's arrays hold.
  const std::vector<double> rates = {60.0, 50.0, 20.0};
  const std::vector<double> demands = {15.0, 1e9, 20.0};
  const int members[] = {0, 2};
  std::vector<double> time_share = {-1.0, 7.0, -1.0};
  std::vector<std::size_t> idx(2);
  detail::MaxMinSharesInPlace(members, 2, rates.data(), demands.data(),
                              time_share.data(), idx.data());
  EXPECT_NEAR(time_share[0], 0.25, 1e-12);
  EXPECT_EQ(time_share[1], 7.0);
  EXPECT_NEAR(time_share[2], 0.75, 1e-12);
}

TEST(EqualTimeShareTest, StrictShares) {
  const std::vector<double> rates = {60.0, 20.0};
  const std::vector<double> demands = {15.0, 20.0};
  const TimeShareResult r = EqualTimeShare(rates, demands);
  EXPECT_DOUBLE_EQ(r.time_share[0], 0.5);
  EXPECT_DOUBLE_EQ(r.time_share[1], 0.5);
  EXPECT_DOUBLE_EQ(r.throughput[0], 15.0);  // demand-capped
  EXPECT_DOUBLE_EQ(r.throughput[1], 10.0);  // share-capped (no leftover)
}

TEST(EqualTimeShareTest, IdleExtendersExcludedFromCount) {
  const std::vector<double> rates = {60.0, 60.0, 60.0};
  const std::vector<double> demands = {0.0, 100.0, 100.0};
  const TimeShareResult r = EqualTimeShare(rates, demands);
  EXPECT_DOUBLE_EQ(r.time_share[1], 0.5);
  EXPECT_DOUBLE_EQ(r.throughput[1], 30.0);
}

TEST(EqualTimeShareTest, EmptyAndAllIdle) {
  const std::vector<double> none;
  const TimeShareResult r0 = EqualTimeShare(none, none);
  EXPECT_TRUE(r0.time_share.empty());
  const std::vector<double> rates = {10.0};
  const std::vector<double> demands = {0.0};
  const TimeShareResult r1 = EqualTimeShare(rates, demands);
  EXPECT_DOUBLE_EQ(r1.time_share[0], 0.0);
  EXPECT_DOUBLE_EQ(r1.throughput[0], 0.0);
}

TEST(EqualTimeShareTest, EqualAllCountsIdleExtenders) {
  // The kEqualAll planning model: 1/|A| of airtime per active extender with
  // |A| counting the idle one too; the idle extender still gets nothing.
  const std::vector<double> rates = {60.0, 60.0, 60.0};
  const std::vector<double> demands = {0.0, 100.0, 100.0};
  const TimeShareResult r = Allocate(PlcSharing::kEqualAll, rates, demands);
  EXPECT_DOUBLE_EQ(r.time_share[0], 0.0);
  EXPECT_DOUBLE_EQ(r.time_share[1], 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(r.time_share[2], 1.0 / 3.0);
}

// Properties that must hold for any random instance.
class TimeShareProperty : public ::testing::TestWithParam<int> {};

TEST_P(TimeShareProperty, InvariantsHold) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 1337);
  const int n = rng.UniformInt(1, 12);
  std::vector<double> rates(static_cast<std::size_t>(n));
  std::vector<double> demands(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    rates[static_cast<std::size_t>(j)] = rng.Uniform(10.0, 200.0);
    demands[static_cast<std::size_t>(j)] =
        rng.Bernoulli(0.2) ? 0.0 : rng.Uniform(1.0, 150.0);
  }
  const TimeShareResult mm = MaxMinTimeShare(rates, demands);
  const TimeShareResult eq = EqualTimeShare(rates, demands);

  double total_time = 0.0;
  for (std::size_t j = 0; j < rates.size(); ++j) {
    // Airtime nonnegative, throughput never exceeds demand or allocation.
    ASSERT_GE(mm.time_share[j], 0.0);
    ASSERT_LE(mm.throughput[j], demands[j] + 1e-9);
    ASSERT_LE(mm.throughput[j], mm.time_share[j] * rates[j] + 1e-9);
    // Redistribution never hurts any extender vs strict equal shares.
    ASSERT_GE(mm.throughput[j], eq.throughput[j] - 1e-9);
    total_time += mm.time_share[j];
  }
  ASSERT_LE(total_time, 1.0 + 1e-9);

  // Work conservation: either all time is used, or every extender met its
  // demand.
  bool all_sated = true;
  for (std::size_t j = 0; j < rates.size(); ++j) {
    if (mm.throughput[j] < demands[j] - 1e-9) all_sated = false;
  }
  if (!all_sated) {
    EXPECT_NEAR(total_time, 1.0, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TimeShareProperty, ::testing::Range(1, 41));

}  // namespace
}  // namespace wolt::model
