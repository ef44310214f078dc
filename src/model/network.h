// The static network model of the paper (§IV-A, Table I): a set of users U,
// a set of PLC-WiFi extenders A, a WiFi PHY-rate matrix r_ij (Mbit/s, 0 when
// user i cannot reach extender j), per-extender PLC backhaul rates c_j
// (Mbit/s, the isolation capacity of the power-line link to the master
// router), and optional per-extender user limits B_j.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace wolt::model {

// 2D position on the enterprise floor plan (metres). Only used by the
// scenario generators; the association algorithms consume rates, not
// geometry.
struct Position {
  double x = 0.0;
  double y = 0.0;
};

double Distance(const Position& a, const Position& b);

// One PLC-WiFi extender (the paper's TP-Link TL-WPA8630 class device).
struct Extender {
  Position position;
  // PLC backhaul rate c_j: throughput this extender's power-line link
  // achieves in isolation (Mbit/s).
  double plc_rate_mbps = 0.0;
  // Max users B_j; 0 means unconstrained (constraint (8) relaxed).
  int max_users = 0;
  // PLC contention domain. The paper models one shared power-line medium
  // (§IV-A); real buildings often have several electrically separated
  // segments (phases, breaker panels) whose extenders do not contend with
  // each other. Extenders time-share only within their domain.
  int plc_domain = 0;
  // WiFi channel index; -1 means unplanned (the paper's non-overlapping-
  // channels assumption: every extender is treated as if isolated). A pinned
  // plan lets scenario files and the joint solver make co-channel airtime
  // sharing solver-visible (see EvalOptions::wifi_channel).
  int wifi_channel = -1;
  std::string label;
};

// Largest representable channel index + 1. Generous for 2.4/5 GHz plans;
// exists so serialized plans stay bounded and typed errors can reject junk.
inline constexpr int kMaxWifiChannels = 32;

// One client device.
struct User {
  Position position;
  std::string label;
  // Offered load in Mbit/s; 0 means saturated (the paper's assumption,
  // §IV-A). Finite demands cap the user's share of both link segments.
  double demand_mbps = 0.0;
};

// Immutable-after-construction network instance. Row-major rate matrix,
// rates_[i * num_extenders + j] = r_ij.
class Network {
 public:
  Network() = default;
  Network(std::size_t num_users, std::size_t num_extenders);

  // Builder-style mutators (used by scenario/testbed generators).
  void SetWifiRate(std::size_t user, std::size_t extender, double mbps);
  // Optional: record the measured RSSI behind r_ij. The RSSI baseline uses
  // this (continuous signal strength) to rank extenders; when it was never
  // set the rate itself is the ranking proxy.
  void SetRssi(std::size_t user, std::size_t extender, double dbm);
  void SetPlcRate(std::size_t extender, double mbps);
  void SetMaxUsers(std::size_t extender, int max_users);
  // PLC contention domain id (>= 0); all extenders default to domain 0,
  // the paper's single-medium assumption.
  void SetPlcDomain(std::size_t extender, int domain);
  int PlcDomain(std::size_t extender) const;
  // WiFi channel index: -1 (unplanned, the default) or [0, kMaxWifiChannels).
  void SetWifiChannel(std::size_t extender, int channel);
  int WifiChannel(std::size_t extender) const;
  void SetUserPosition(std::size_t user, Position p);
  // Offered load; 0 = saturated. Negative values are rejected.
  void SetUserDemand(std::size_t user, double mbps);
  double UserDemand(std::size_t user) const;
  void SetExtenderPosition(std::size_t extender, Position p);
  void SetUserLabel(std::size_t user, std::string label);
  void SetExtenderLabel(std::size_t extender, std::string label);

  std::size_t NumUsers() const { return users_.size(); }
  std::size_t NumExtenders() const { return extenders_.size(); }

  // Content stamp of what the solvers see (rates, capacities, user limits,
  // domains, channels, extender positions, demands, membership). The Set*
  // mutators of those fields refresh it only when the stored value actually
  // changes: writing a bit-identical value (compared with std::bit_cast, so
  // 0.0 -> -0.0 is a change) keeps the stamp, which is what lets an
  // unchanged scan skip every cache rebuild and an unchanged solve. AddUser,
  // RemoveUser and the Mutable* accessors always refresh it. Stamps are
  // drawn from a process-wide counter, never reused, so a stamp never names
  // two different contents — even across objects, and when a destroyed
  // network's address is recycled for a new one. Copies share the stamp of
  // the state they were copied from, which is sound: an equal stamp implies
  // equal solver-visible content. (A moved-from network keeps the stamp
  // but not the content; assign it before reading it again.) Derived
  // caches (model::NetworkSoA, the evaluator's channel cache) key their
  // validity on (object address, Version()); WoltPolicy's solve memo keys
  // on Version() alone.
  std::uint64_t Version() const { return version_; }

  // r_ij in Mbit/s; 0 means unreachable.
  double WifiRate(std::size_t user, std::size_t extender) const;
  // Contiguous rate row of one user (NumExtenders() values).
  const double* WifiRateRow(std::size_t user) const {
    return rates_.data() + user * NumExtenders();
  }
  // c_j in Mbit/s.
  double PlcRate(std::size_t extender) const;
  int MaxUsers(std::size_t extender) const;

  // True once any RSSI value was recorded.
  bool HasRssi() const { return has_rssi_; }
  // Recorded RSSI in dBm; -infinity when never set.
  double Rssi(std::size_t user, std::size_t extender) const;

  const User& UserAt(std::size_t i) const { return users_[i]; }
  const Extender& ExtenderAt(std::size_t j) const { return extenders_[j]; }
  // Mutable access conservatively bumps Version(): the caller may change
  // solver-visible fields (demand, PLC rate, domain) through the reference.
  User& MutableUser(std::size_t i) {
    version_ = NextVersionStamp();
    return users_[i];
  }
  Extender& MutableExtender(std::size_t j) {
    version_ = NextVersionStamp();
    return extenders_[j];
  }

  // True iff user i has at least one extender with r_ij > 0.
  bool UserReachable(std::size_t user) const;

  // Index of the extender with the highest WiFi rate for this user
  // (proxy for strongest RSSI under a monotone rate-vs-RSSI mapping), or
  // nullopt if the user is unreachable.
  std::optional<std::size_t> BestRateExtender(std::size_t user) const;

  // Index of the reachable extender with the strongest recorded RSSI; falls
  // back to BestRateExtender when no RSSI was recorded. Only extenders with
  // r_ij > 0 qualify.
  std::optional<std::size_t> BestRssiExtender(std::size_t user) const;

  // Append a new user with the given rate row (size must be NumExtenders()).
  // Returns the new user's index. Used by the dynamic simulator on arrivals.
  std::size_t AddUser(const User& user, const std::vector<double>& rates);

  // Remove user by index; subsequent user indices shift down by one.
  void RemoveUser(std::size_t user);

 private:
  // Next value of the process-wide stamp counter (see Version()).
  static std::uint64_t NextVersionStamp();

  std::vector<User> users_;
  std::vector<Extender> extenders_;
  std::vector<double> rates_;  // row-major [user][extender]
  std::vector<double> rssi_;   // row-major, -inf when unset
  bool has_rssi_ = false;
  std::uint64_t version_ = NextVersionStamp();
};

}  // namespace wolt::model
