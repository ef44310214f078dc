#include "plc/tdma.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "model/evaluator.h"
#include "util/rng.h"

namespace wolt::plc {
namespace {

TEST(TdmaTest, RejectsBadInputs) {
  const std::vector<double> r = {100.0};
  const std::vector<double> d = {50.0};
  const std::vector<double> w = {1.0};
  EXPECT_THROW(ScheduleTdma(r, {}, w), std::invalid_argument);
  EXPECT_THROW(ScheduleTdma(r, d, {}), std::invalid_argument);
  EXPECT_THROW(ScheduleTdma(r, d, w, {0}), std::invalid_argument);
  // Backlogged extender with zero weight.
  EXPECT_THROW(ScheduleTdma(r, d, std::vector<double>{0.0}),
               std::invalid_argument);
  // Backlogged extender with zero rate.
  EXPECT_THROW(
      ScheduleTdma(std::vector<double>{0.0}, d, w),
      std::invalid_argument);
}

TEST(TdmaTest, SingleSaturatedExtenderGetsAllSlots) {
  const std::vector<double> r = {100.0};
  const std::vector<double> d = {1e9};
  const TdmaSchedule s = ScheduleTdmaEqual(r, d);
  EXPECT_EQ(s.slots[0], 50);
  EXPECT_DOUBLE_EQ(s.time_share[0], 1.0);
  EXPECT_NEAR(s.throughput[0], 100.0, 1e-9);
  EXPECT_EQ(s.unused_slots, 0);
}

TEST(TdmaTest, EqualWeightsSplitEqually) {
  const std::vector<double> r = {60.0, 160.0};
  const std::vector<double> d = {1e9, 1e9};
  const TdmaSchedule s = ScheduleTdmaEqual(r, d);
  EXPECT_EQ(s.slots[0], 25);
  EXPECT_EQ(s.slots[1], 25);
  EXPECT_NEAR(s.throughput[0], 30.0, 1e-9);
  EXPECT_NEAR(s.throughput[1], 80.0, 1e-9);
}

TEST(TdmaTest, WeightsSkewTheSchedule) {
  const std::vector<double> r = {100.0, 100.0};
  const std::vector<double> d = {1e9, 1e9};
  const std::vector<double> w = {3.0, 1.0};
  const TdmaSchedule s = ScheduleTdma(r, d, w);
  // QoS: 3:1 slot split.
  EXPECT_NEAR(static_cast<double>(s.slots[0]) / s.slots[1], 3.0, 0.2);
  EXPECT_GT(s.throughput[0], 2.5 * s.throughput[1]);
}

TEST(TdmaTest, DemandCappedSlotsAreReapportioned) {
  // Extender 0 only needs a quarter of the beacon; extender 1 is
  // saturated and receives the released slots (the TDMA analogue of the
  // max-min leftover redistribution).
  const std::vector<double> r = {60.0, 20.0};
  const std::vector<double> d = {15.0, 1e9};
  const TdmaSchedule s = ScheduleTdmaEqual(r, d);
  EXPECT_NEAR(s.throughput[0], 15.0, 1.0);
  // Fig. 3c fluid answer is 15; slot quantization keeps it close.
  EXPECT_NEAR(s.throughput[1], 15.0, 1.0);
  EXPECT_EQ(s.unused_slots, 0);
}

TEST(TdmaTest, AllDemandsMetLeavesSlackSlots) {
  const std::vector<double> r = {100.0, 100.0};
  const std::vector<double> d = {10.0, 10.0};
  const TdmaSchedule s = ScheduleTdmaEqual(r, d);
  EXPECT_NEAR(s.throughput[0], 10.0, 1e-9);
  EXPECT_NEAR(s.throughput[1], 10.0, 1e-9);
  EXPECT_GT(s.unused_slots, 0);
}

TEST(TdmaTest, ZeroDemandGetsNoSlots) {
  const std::vector<double> r = {100.0, 100.0};
  const std::vector<double> d = {0.0, 1e9};
  const TdmaSchedule s = ScheduleTdmaEqual(r, d);
  EXPECT_EQ(s.slots[0], 0);
  EXPECT_EQ(s.slots[1], 50);
}

TEST(TdmaTest, ConvergesToFluidMaxMinWithFinerSlots) {
  util::Rng rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const int n = rng.UniformInt(2, 6);
    std::vector<double> r(static_cast<std::size_t>(n));
    std::vector<double> d(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) {
      r[static_cast<std::size_t>(j)] = rng.Uniform(20.0, 200.0);
      d[static_cast<std::size_t>(j)] =
          rng.Bernoulli(0.3) ? rng.Uniform(1.0, 40.0) : 1e9;
    }
    // The fluid limit: the evaluator's max-min airtime allocator.
    std::vector<int> members(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) members[static_cast<std::size_t>(j)] = j;
    std::vector<double> time_share(static_cast<std::size_t>(n));
    std::vector<std::size_t> idx(static_cast<std::size_t>(n));
    model::detail::MaxMinSharesInPlace(members.data(), members.size(),
                                       r.data(), d.data(), time_share.data(),
                                       idx.data());
    const TdmaSchedule fine = ScheduleTdmaEqual(r, d, {2000});
    for (int j = 0; j < n; ++j) {
      const std::size_t k = static_cast<std::size_t>(j);
      EXPECT_NEAR(fine.throughput[k], std::min(d[k], time_share[k] * r[k]),
                  0.02 * r[k] + 0.5)
          << "trial=" << trial << " j=" << j;
    }
  }
}

class TdmaPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(TdmaPropertyTest, SlotConservationAndCaps) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 271);
  const int n = rng.UniformInt(1, 8);
  std::vector<double> r(static_cast<std::size_t>(n));
  std::vector<double> d(static_cast<std::size_t>(n));
  std::vector<double> w(static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    r[static_cast<std::size_t>(j)] = rng.Uniform(10.0, 300.0);
    d[static_cast<std::size_t>(j)] =
        rng.Bernoulli(0.25) ? 0.0 : rng.Uniform(1.0, 200.0);
    w[static_cast<std::size_t>(j)] = rng.Uniform(0.5, 4.0);
  }
  const TdmaParams params{50};
  const TdmaSchedule s = ScheduleTdma(r, d, w, params);
  int used = 0;
  for (int j = 0; j < n; ++j) {
    const std::size_t k = static_cast<std::size_t>(j);
    ASSERT_GE(s.slots[k], 0);
    used += s.slots[k];
    // Throughput never exceeds demand or slot capacity.
    ASSERT_LE(s.throughput[k], d[k] + 1e-9);
    ASSERT_LE(s.throughput[k], s.time_share[k] * r[k] + 1e-9);
    if (d[k] == 0.0) {
      ASSERT_EQ(s.slots[k], 0);
    }
  }
  ASSERT_EQ(used + s.unused_slots, params.slots_per_beacon);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TdmaPropertyTest, ::testing::Range(1, 31));

}  // namespace
}  // namespace wolt::plc
