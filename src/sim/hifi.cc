#include "sim/hifi.h"

#include <algorithm>
#include <stdexcept>

#include "model/evaluator.h"

namespace wolt::sim {

HifiResult SimulateHifi(const model::Network& net,
                        const model::Assignment& assign,
                        const HifiParams& params, util::Rng& rng) {
  if (assign.NumUsers() != net.NumUsers()) {
    throw std::invalid_argument("assignment/network user count mismatch");
  }
  if (params.wifi_mac_efficiency <= 0.0 || params.wifi_mac_efficiency > 1.0) {
    throw std::invalid_argument("bad WiFi MAC efficiency");
  }
  const std::size_t num_ext = net.NumExtenders();

  HifiResult result;
  result.wifi_cell_mbps.assign(num_ext, 0.0);
  result.plc_share_mbps.assign(num_ext, 0.0);
  result.extender_mbps.assign(num_ext, 0.0);
  result.user_throughput_mbps.assign(net.NumUsers(), 0.0);

  // --- Hop 1: slot-level DCF per WiFi cell. ---
  std::vector<std::vector<std::size_t>> cell_users(num_ext);
  for (std::size_t i = 0; i < net.NumUsers(); ++i) {
    const int e = assign.ExtenderOf(i);
    if (e == model::Assignment::kUnassigned) continue;
    if (e < 0 || static_cast<std::size_t>(e) >= num_ext) {
      throw std::invalid_argument("assignment references unknown extender");
    }
    if (net.WifiRate(i, static_cast<std::size_t>(e)) <= 0.0) {
      throw std::invalid_argument("user assigned to unreachable extender");
    }
    cell_users[static_cast<std::size_t>(e)].push_back(i);
  }

  std::vector<std::vector<double>> cell_user_wifi(num_ext);
  std::vector<int> active;  // member list for the airtime allocator
  for (std::size_t j = 0; j < num_ext; ++j) {
    if (cell_users[j].empty()) continue;
    active.push_back(static_cast<int>(j));
    std::vector<double> phy_rates;
    phy_rates.reserve(cell_users[j].size());
    for (std::size_t i : cell_users[j]) {
      phy_rates.push_back(net.WifiRate(i, j) / params.wifi_mac_efficiency);
    }
    const wifi::DcfResult cell = wifi::SimulateDcf(
        phy_rates, params.wifi_duration_s, params.dcf, rng);
    result.wifi_cell_mbps[j] = cell.aggregate_mbps;
    cell_user_wifi[j].reserve(cell.stations.size());
    for (const auto& st : cell.stations) {
      cell_user_wifi[j].push_back(st.throughput_mbps);
    }
  }
  if (active.empty()) return result;

  // --- Hop 2: slot-level 1901 across the active extenders. ---
  // Per-link MAC rates chosen so that a lone extender's simulated isolation
  // throughput reproduces its measured capacity c_j.
  const double unit = plc::IsolationThroughput(1.0, params.csma);
  std::vector<double> mac_rates;
  std::vector<double> sim_isolation(num_ext, 0.0);
  for (std::size_t j : active) {
    const double c = net.PlcRate(j);
    if (c <= 0.0) {
      throw std::invalid_argument("hifi simulation needs live PLC links");
    }
    mac_rates.push_back(c / unit);
  }
  const plc::Csma1901Result backhaul = plc::SimulateCsma1901(
      mac_rates, params.plc_duration_s, params.csma, rng);

  // Contention efficiency observed in the simulation: how much of the
  // ideal 1/k shares the CSMA actually delivered.
  double ideal_total = 0.0;
  for (std::size_t k = 0; k < active.size(); ++k) {
    sim_isolation[active[k]] = mac_rates[k] * unit;
    ideal_total += sim_isolation[active[k]] /
                   static_cast<double>(active.size());
  }
  const double efficiency =
      ideal_total > 0.0 ? backhaul.aggregate_mbps / ideal_total : 1.0;

  // --- Composition: demand-capped max-min over the *simulated* rates. ---
  std::vector<double> plc_rates(num_ext, 0.0);
  std::vector<double> demands(num_ext, 0.0);
  for (std::size_t j : active) {
    plc_rates[j] = sim_isolation[j] * efficiency;
    demands[j] = result.wifi_cell_mbps[j];
  }
  // The evaluator's airtime allocator, over the active set.
  std::vector<double> time_share(num_ext, 0.0);
  std::vector<std::size_t> idx(active.size());
  model::detail::MaxMinSharesInPlace(active.data(), active.size(),
                                     plc_rates.data(), demands.data(),
                                     time_share.data(), idx.data());

  for (std::size_t j : active) {
    result.plc_share_mbps[j] = time_share[j] * plc_rates[j];
    result.extender_mbps[j] =
        std::min(result.wifi_cell_mbps[j], result.plc_share_mbps[j]);
    result.aggregate_mbps += result.extender_mbps[j];
    // Users keep their simulated WiFi proportions, scaled down when the
    // backhaul throttles the cell.
    const double scale = result.wifi_cell_mbps[j] > 0.0
                             ? result.extender_mbps[j] /
                                   result.wifi_cell_mbps[j]
                             : 0.0;
    for (std::size_t k = 0; k < cell_users[j].size(); ++k) {
      result.user_throughput_mbps[cell_users[j][k]] =
          cell_user_wifi[j][k] * scale;
    }
  }
  return result;
}

}  // namespace wolt::sim
