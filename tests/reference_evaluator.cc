#include "reference_evaluator.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace wolt::model::reference {
namespace {

constexpr double kBalanceTolerance = 1e-9;

// Max-min fair airtime over one domain's members (progressive filling with
// demand caps): equal shares of the time left among the backlogged
// members; a member whose demand fits is capped at exactly demand/rate and
// the rest re-split the surplus. Zero demand gets no airtime.
std::vector<double> MaxMinShares(const std::vector<double>& rates,
                                 const std::vector<double>& demands,
                                 int* rounds) {
  const std::size_t n = rates.size();
  std::vector<double> time_share(n, 0.0);
  std::vector<std::size_t> backlogged;
  for (std::size_t k = 0; k < n; ++k) {
    if (demands[k] > 0.0) backlogged.push_back(k);
  }
  double remaining = 1.0;
  while (!backlogged.empty() && remaining > 0.0) {
    ++*rounds;
    const double share = remaining / static_cast<double>(backlogged.size());
    std::vector<std::size_t> still_backlogged;
    bool any_sated = false;
    for (std::size_t k : backlogged) {
      const double needed = demands[k] / rates[k];
      if (needed <= share) {
        time_share[k] += needed;
        any_sated = true;
      } else {
        still_backlogged.push_back(k);
      }
    }
    if (!any_sated) {
      for (std::size_t k : still_backlogged) time_share[k] += share;
      break;
    }
    double used = 0.0;
    for (std::size_t k = 0; k < n; ++k) used += time_share[k];
    remaining = std::max(0.0, 1.0 - used);
    backlogged = std::move(still_backlogged);
  }
  return time_share;
}

// Strict 1/k shares: k counts the members with demand, or every member of
// the domain under the kEqualAll planning model.
std::vector<double> EqualShares(const std::vector<double>& demands,
                                bool denominator_all) {
  const std::size_t n = demands.size();
  std::vector<double> time_share(n, 0.0);
  std::size_t active = 0;
  for (double d : demands) {
    if (d > 0.0) ++active;
  }
  if (active == 0) return time_share;
  const double share =
      1.0 / static_cast<double>(denominator_all ? n : active);
  for (std::size_t k = 0; k < n; ++k) {
    if (demands[k] > 0.0) time_share[k] = share;
  }
  return time_share;
}

// Demand-aware Eq. 1 for one cell: raise a common level over the
// backlogged users within the cell's airtime; users whose demand is below
// the level freeze at it and return their airtime.
std::vector<double> CellAllocation(const std::vector<double>& rates,
                                   const std::vector<double>& demands,
                                   double airtime) {
  std::vector<double> out(rates.size(), 0.0);
  std::vector<std::size_t> backlogged(rates.size());
  for (std::size_t k = 0; k < rates.size(); ++k) backlogged[k] = k;
  while (!backlogged.empty() && airtime > 1e-15) {
    double inv_sum = 0.0;
    for (std::size_t k : backlogged) inv_sum += 1.0 / rates[k];
    const double level = airtime / inv_sum;
    std::vector<std::size_t> still;
    for (std::size_t k : backlogged) {
      if (demands[k] > 0.0 && demands[k] <= level) {
        out[k] = demands[k];
        airtime -= demands[k] / rates[k];
      } else {
        still.push_back(k);
      }
    }
    if (still.size() == backlogged.size()) {
      for (std::size_t k : still) out[k] = level;
      break;
    }
    backlogged = std::move(still);
  }
  return out;
}

// Max-min division of `total` among users capped at `caps`.
std::vector<double> CappedSplit(const std::vector<double>& caps,
                                double total) {
  std::vector<double> out(caps.size(), 0.0);
  if (caps.empty() || total <= 0.0) return out;
  std::vector<std::size_t> open;
  for (std::size_t k = 0; k < caps.size(); ++k) {
    if (caps[k] > 0.0) open.push_back(k);
  }
  double remaining = total;
  while (!open.empty() && remaining > 1e-15) {
    const double share = remaining / static_cast<double>(open.size());
    std::vector<std::size_t> still;
    for (std::size_t k : open) {
      if (caps[k] <= share) {
        out[k] = caps[k];
        remaining -= caps[k];
      } else {
        still.push_back(k);
      }
    }
    if (still.size() == open.size()) {
      for (std::size_t k : still) out[k] = share;
      break;
    }
    open = std::move(still);
  }
  return out;
}

// Co-channel contention domain label per extender: label propagation to a
// fixed point over co-channel pairs within range (each component ends up
// labelled by its smallest extender id).
std::vector<int> CoChannelLabels(const Network& net,
                                 const std::vector<int>& channels,
                                 double range_m) {
  const std::size_t n = net.NumExtenders();
  if (channels.size() != n) {
    throw std::invalid_argument("channel plan size mismatch");
  }
  for (int c : channels) {
    if (c < 0) throw std::invalid_argument("negative channel index");
  }
  if (range_m < 0.0) {
    throw std::invalid_argument("negative carrier-sense range");
  }
  std::vector<int> label(n);
  for (std::size_t j = 0; j < n; ++j) label[j] = static_cast<int>(j);
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        if (a == b || channels[a] != channels[b]) continue;
        if (Distance(net.ExtenderAt(a).position, net.ExtenderAt(b).position) >
            range_m) {
          continue;
        }
        if (label[b] < label[a]) {
          label[a] = label[b];
          changed = true;
        }
      }
    }
  }
  return label;
}

}  // namespace

EvalResult Evaluate(const EvalOptions& options, const Network& net,
                    const Assignment& assign, Trace* trace) {
  Trace local;
  if (trace == nullptr) trace = &local;
  *trace = Trace{};
  if (assign.NumUsers() != net.NumUsers()) {
    throw std::invalid_argument("assignment/network user count mismatch");
  }
  const std::size_t num_ext = net.NumExtenders();
  const std::size_t num_users = net.NumUsers();

  EvalResult result;
  result.extenders.assign(num_ext, ExtenderReport{});
  result.user_throughput_mbps.assign(num_users, 0.0);

  // WiFi side: per-extender loads, harmonic sums and member lists.
  std::vector<int> load(num_ext, 0);
  std::vector<double> inv_rate_sum(num_ext, 0.0);
  std::vector<std::vector<std::size_t>> cell_users(num_ext);
  for (std::size_t i = 0; i < num_users; ++i) {
    const int e = assign.ExtenderOf(i);
    if (e == Assignment::kUnassigned) continue;
    if (e < 0 || static_cast<std::size_t>(e) >= num_ext) {
      throw std::invalid_argument("assignment references unknown extender");
    }
    const std::size_t j = static_cast<std::size_t>(e);
    const double r = net.WifiRate(i, j);
    if (r <= 0.0) {
      throw std::invalid_argument("user assigned to unreachable extender");
    }
    inv_rate_sum[j] += 1.0 / r;
    ++load[j];
    cell_users[j].push_back(i);
  }

  // One regime for the whole evaluation: demand-aware as soon as any
  // assigned user carries a finite demand.
  bool any_demand = false;
  for (std::size_t i = 0; i < num_users; ++i) {
    if (assign.IsAssigned(i) && net.UserDemand(i) > 0.0) any_demand = true;
  }
  trace->demand_regime = any_demand;

  // Co-channel contention: active cells in one domain time-share the air.
  std::vector<double> peers(num_ext, 1.0);
  if (!options.wifi_channel.empty()) {
    const std::vector<int> label = CoChannelLabels(
        net, options.wifi_channel, options.carrier_sense_range_m);
    for (std::size_t j = 0; j < num_ext; ++j) {
      if (load[j] == 0) continue;
      int contending = 0;
      for (std::size_t k = 0; k < num_ext; ++k) {
        if (label[k] == label[j] && load[k] > 0) ++contending;
      }
      peers[j] = static_cast<double>(contending);
      trace->max_contending_cells =
          std::max(trace->max_contending_cells, contending);
    }
  }

  std::vector<double> wifi_demand(num_ext, 0.0);
  std::vector<std::vector<double>> user_caps(num_ext);
  std::vector<bool> dead(num_ext, false);
  for (std::size_t j = 0; j < num_ext; ++j) {
    if (load[j] == 0) continue;
    ++result.active_extenders;
    if (net.PlcRate(j) <= 0.0) {
      dead[j] = true;  // no airtime, nothing delivered
      trace->dead_backhaul = true;
      continue;
    }
    if (!any_demand) {
      wifi_demand[j] =
          static_cast<double>(load[j]) / inv_rate_sum[j] / peers[j];
      continue;
    }
    std::vector<double> rates, demands;
    for (std::size_t i : cell_users[j]) {
      rates.push_back(net.WifiRate(i, j));
      demands.push_back(net.UserDemand(i));
    }
    user_caps[j] = CellAllocation(rates, demands, 1.0 / peers[j]);
    for (double x : user_caps[j]) wifi_demand[j] += x;
  }

  // PLC side: airtime per contention domain, members in ascending id.
  int num_domains = 0;
  for (std::size_t j = 0; j < num_ext; ++j) {
    num_domains = std::max(num_domains, net.PlcDomain(j) + 1);
  }
  std::vector<double> time_share(num_ext, 0.0);
  std::vector<int> domain_size(static_cast<std::size_t>(num_domains), 0);
  std::vector<int> domain_active(static_cast<std::size_t>(num_domains), 0);
  for (int d = 0; d < num_domains; ++d) {
    std::vector<std::size_t> members;
    std::vector<double> rates, demands;
    for (std::size_t j = 0; j < num_ext; ++j) {
      if (net.PlcDomain(j) != d) continue;
      members.push_back(j);
      rates.push_back(net.PlcRate(j));
      demands.push_back(wifi_demand[j]);
      if (load[j] > 0) ++domain_active[static_cast<std::size_t>(d)];
    }
    domain_size[static_cast<std::size_t>(d)] =
        static_cast<int>(members.size());
    std::vector<double> shares;
    switch (options.plc_sharing) {
      case PlcSharing::kMaxMinActive: {
        int rounds = 0;
        shares = MaxMinShares(rates, demands, &rounds);
        trace->maxmin_rounds += rounds;
        trace->max_maxmin_rounds = std::max(trace->max_maxmin_rounds, rounds);
        break;
      }
      case PlcSharing::kEqualActive:
        shares = EqualShares(demands, /*denominator_all=*/false);
        break;
      case PlcSharing::kEqualAll:
        shares = EqualShares(demands, /*denominator_all=*/true);
        break;
    }
    for (std::size_t k = 0; k < members.size(); ++k) {
      time_share[members[k]] = shares[k];
    }
  }

  for (std::size_t j = 0; j < num_ext; ++j) {
    ExtenderReport& rep = result.extenders[j];
    rep.num_users = load[j];
    rep.wifi_throughput_mbps = wifi_demand[j];
    rep.plc_time_share = time_share[j];
    rep.plc_throughput_mbps = time_share[j] * net.PlcRate(j);
    if (load[j] == 0) {
      rep.bottleneck = Bottleneck::kIdle;
      continue;
    }
    if (dead[j]) {
      rep.bottleneck = Bottleneck::kPlc;
      continue;
    }
    rep.end_to_end_mbps =
        std::min(rep.wifi_throughput_mbps, rep.plc_throughput_mbps);
    const std::size_t d = static_cast<std::size_t>(net.PlcDomain(j));
    const double denominator = options.plc_sharing == PlcSharing::kEqualAll
                                   ? static_cast<double>(domain_size[d])
                                   : static_cast<double>(domain_active[d]);
    const double equal_share_capacity = net.PlcRate(j) / denominator;
    if (std::abs(rep.wifi_throughput_mbps - equal_share_capacity) <=
        kBalanceTolerance) {
      rep.bottleneck = Bottleneck::kBalanced;
    } else if (rep.end_to_end_mbps >=
               rep.wifi_throughput_mbps - kBalanceTolerance) {
      rep.bottleneck = Bottleneck::kWifi;
    } else {
      rep.bottleneck = Bottleneck::kPlc;
    }
    result.aggregate_mbps += rep.end_to_end_mbps;
  }

  // TCP fair split of each live extender's end-to-end throughput.
  for (std::size_t j = 0; j < num_ext; ++j) {
    if (load[j] == 0 || dead[j]) continue;
    const double e2e = result.extenders[j].end_to_end_mbps;
    const std::vector<double> split =
        any_demand ? CappedSplit(user_caps[j], e2e)
                   : std::vector<double>(cell_users[j].size(),
                                         e2e / static_cast<double>(load[j]));
    for (std::size_t k = 0; k < split.size(); ++k) {
      result.user_throughput_mbps[cell_users[j][k]] = split[k];
    }
  }
  return result;
}

}  // namespace wolt::model::reference
