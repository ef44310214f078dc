#include "model/network.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>

namespace wolt::model {
namespace {

TEST(NetworkTest, ConstructionSizes) {
  Network net(3, 2);
  EXPECT_EQ(net.NumUsers(), 3u);
  EXPECT_EQ(net.NumExtenders(), 2u);
  EXPECT_DOUBLE_EQ(net.WifiRate(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(net.PlcRate(1), 0.0);
}

TEST(NetworkTest, SetAndGetRates) {
  Network net(2, 2);
  net.SetWifiRate(0, 1, 39.0);
  net.SetPlcRate(1, 120.0);
  EXPECT_DOUBLE_EQ(net.WifiRate(0, 1), 39.0);
  EXPECT_DOUBLE_EQ(net.WifiRate(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(net.PlcRate(1), 120.0);
}

TEST(NetworkTest, NegativeRatesRejected) {
  Network net(1, 1);
  EXPECT_THROW(net.SetWifiRate(0, 0, -1.0), std::invalid_argument);
  EXPECT_THROW(net.SetPlcRate(0, -5.0), std::invalid_argument);
}

TEST(NetworkTest, OutOfRangeIndicesThrow) {
  Network net(1, 1);
  EXPECT_THROW(net.SetWifiRate(1, 0, 1.0), std::out_of_range);
  EXPECT_THROW(net.SetPlcRate(3, 1.0), std::out_of_range);
  EXPECT_THROW((void)net.WifiRate(0, 2), std::out_of_range);
}

TEST(NetworkTest, ReachabilityAndBestExtender) {
  Network net(2, 3);
  net.SetWifiRate(0, 0, 10.0);
  net.SetWifiRate(0, 2, 25.0);
  EXPECT_TRUE(net.UserReachable(0));
  EXPECT_FALSE(net.UserReachable(1));
  ASSERT_TRUE(net.BestRateExtender(0).has_value());
  EXPECT_EQ(*net.BestRateExtender(0), 2u);
  EXPECT_FALSE(net.BestRateExtender(1).has_value());
}

TEST(NetworkTest, AddUserAppendsRow) {
  Network net(1, 2);
  net.SetWifiRate(0, 0, 5.0);
  User u;
  u.label = "new";
  const std::size_t idx = net.AddUser(u, {7.0, 8.0});
  EXPECT_EQ(idx, 1u);
  EXPECT_EQ(net.NumUsers(), 2u);
  EXPECT_DOUBLE_EQ(net.WifiRate(1, 0), 7.0);
  EXPECT_DOUBLE_EQ(net.WifiRate(1, 1), 8.0);
  EXPECT_DOUBLE_EQ(net.WifiRate(0, 0), 5.0);  // original row intact
  EXPECT_EQ(net.UserAt(1).label, "new");
}

TEST(NetworkTest, AddUserRejectsWrongRowSize) {
  Network net(0, 2);
  EXPECT_THROW(net.AddUser(User{}, {1.0}), std::invalid_argument);
}

TEST(NetworkTest, RemoveUserShiftsRows) {
  Network net(3, 2);
  net.SetWifiRate(0, 0, 1.0);
  net.SetWifiRate(1, 0, 2.0);
  net.SetWifiRate(2, 0, 3.0);
  net.RemoveUser(1);
  EXPECT_EQ(net.NumUsers(), 2u);
  EXPECT_DOUBLE_EQ(net.WifiRate(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(net.WifiRate(1, 0), 3.0);
  EXPECT_THROW(net.RemoveUser(5), std::out_of_range);
}

TEST(NetworkTest, DistanceHelper) {
  EXPECT_DOUBLE_EQ(Distance({0.0, 0.0}, {3.0, 4.0}), 5.0);
  EXPECT_DOUBLE_EQ(Distance({1.0, 1.0}, {1.0, 1.0}), 0.0);
}

TEST(NetworkTest, RssiMatrixOptional) {
  Network net(2, 2);
  EXPECT_FALSE(net.HasRssi());
  net.SetWifiRate(0, 0, 10.0);
  net.SetWifiRate(0, 1, 40.0);
  // No RSSI recorded: best-RSSI falls back to best rate.
  EXPECT_EQ(*net.BestRssiExtender(0), 1u);

  // Record RSSI that contradicts the rate ordering (possible with
  // heterogeneous hardware): RSSI ranking must win.
  net.SetRssi(0, 0, -50.0);
  net.SetRssi(0, 1, -70.0);
  EXPECT_TRUE(net.HasRssi());
  EXPECT_EQ(*net.BestRssiExtender(0), 0u);
  EXPECT_DOUBLE_EQ(net.Rssi(0, 0), -50.0);
}

TEST(NetworkTest, BestRssiSkipsUnreachableExtenders) {
  Network net(1, 2);
  net.SetWifiRate(0, 1, 5.0);
  net.SetRssi(0, 0, -40.0);  // strong signal but rate 0 (e.g. 5 GHz-only AP)
  net.SetRssi(0, 1, -75.0);
  EXPECT_EQ(*net.BestRssiExtender(0), 1u);
}

TEST(NetworkTest, RemoveUserKeepsRssiAligned) {
  Network net(2, 1);
  net.SetWifiRate(0, 0, 1.0);
  net.SetWifiRate(1, 0, 2.0);
  net.SetRssi(0, 0, -80.0);
  net.SetRssi(1, 0, -60.0);
  net.RemoveUser(0);
  EXPECT_DOUBLE_EQ(net.Rssi(0, 0), -60.0);
}

TEST(NetworkTest, MaxUsersDefaultsUnlimited) {
  Network net(1, 1);
  EXPECT_EQ(net.MaxUsers(0), 0);
  net.SetMaxUsers(0, 4);
  EXPECT_EQ(net.MaxUsers(0), 4);
}

TEST(NetworkTest, BitIdenticalSetKeepsVersion) {
  Network net(2, 2);
  net.SetWifiRate(0, 1, 39.0);
  net.SetPlcRate(1, 120.5);
  net.SetUserDemand(0, 4.0);
  net.SetMaxUsers(1, 3);
  net.SetPlcDomain(1, 2);
  net.SetWifiChannel(1, 6);
  net.SetExtenderPosition(1, Position{3.0, 4.0});
  const std::uint64_t v = net.Version();
  net.SetWifiRate(0, 1, 39.0);
  net.SetWifiRate(1, 0, 0.0);
  net.SetPlcRate(1, 120.5);
  net.SetPlcRate(0, 0.0);
  net.SetUserDemand(0, 4.0);
  net.SetMaxUsers(1, 3);
  net.SetPlcDomain(1, 2);
  net.SetWifiChannel(1, 6);
  net.SetExtenderPosition(1, Position{3.0, 4.0});
  EXPECT_EQ(net.Version(), v);
  // Fields no solver reads never bump.
  net.SetRssi(0, 0, -60.0);
  net.SetUserPosition(0, Position{1.0, 1.0});
  net.SetUserLabel(0, "a");
  net.SetExtenderLabel(0, "b");
  EXPECT_EQ(net.Version(), v);
}

TEST(NetworkTest, ChangedValueBumpsVersion) {
  Network net(1, 2);
  const auto bumps = [&net](const auto& set) {
    const std::uint64_t before = net.Version();
    set();
    return net.Version() != before;
  };
  // 0.0 -> -0.0 compares equal as a double but is a different value.
  EXPECT_TRUE(bumps([&] { net.SetWifiRate(0, 0, -0.0); }));
  EXPECT_TRUE(bumps([&] { net.SetWifiRate(0, 0, 0.0); }));
  EXPECT_TRUE(bumps([&] { net.SetWifiRate(0, 0, 10.0); }));
  EXPECT_TRUE(bumps([&] {
    net.SetWifiRate(0, 0, std::nextafter(10.0, 11.0));
  }));
  EXPECT_TRUE(bumps([&] { net.SetPlcRate(0, -0.0); }));
  EXPECT_TRUE(bumps([&] { net.SetPlcRate(0, 50.0); }));
  EXPECT_TRUE(bumps([&] { net.SetUserDemand(0, -0.0); }));
  EXPECT_TRUE(bumps([&] { net.SetUserDemand(0, 2.0); }));
  EXPECT_TRUE(bumps([&] { net.SetMaxUsers(0, 1); }));
  EXPECT_TRUE(bumps([&] { net.SetPlcDomain(0, 1); }));
  EXPECT_TRUE(bumps([&] { net.SetWifiChannel(0, 3); }));
  EXPECT_TRUE(bumps([&] { net.SetExtenderPosition(0, Position{-0.0, 0.0}); }));
  EXPECT_TRUE(bumps([&] { net.SetExtenderPosition(0, Position{-0.0, 1.0}); }));
  // Membership changes and mutable access always bump.
  EXPECT_TRUE(bumps([&] { net.AddUser(User{}, {0.0, 0.0}); }));
  EXPECT_TRUE(bumps([&] { net.RemoveUser(1); }));
  EXPECT_TRUE(bumps([&] { net.MutableUser(0); }));
  EXPECT_TRUE(bumps([&] { net.MutableExtender(0); }));
  // A rejected value leaves the stamp alone.
  EXPECT_FALSE(bumps([&] {
    EXPECT_THROW(net.SetWifiRate(0, 0, -1.0), std::invalid_argument);
  }));
}

}  // namespace
}  // namespace wolt::model
