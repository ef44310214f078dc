#include "model/evaluator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "obs/obs.h"

namespace wolt::model {
namespace {

constexpr double kBalanceTolerance = 1e-9;

// Demand regime, first half: group the assigned users by cell (counting
// sort over the loads, ascending user order within a cell) and replace each
// live cell's saturated throughput by the demand-aware Eq. 1 allocation on
// the raw rates. Each user's allocation is the cap the TCP re-sharing
// respects when PLC throttles the cell. Both halves stay out of line so the
// saturated path keeps its compact code.
__attribute__((noinline)) void AllocateDemandCells(const Network& net, const int* ext_of,
                         EvalScratch& s) {
  const std::size_t num_ext = s.soa.num_extenders;
  s.cell_start.assign(num_ext + 1, 0);
  for (std::size_t j = 0; j < num_ext; ++j) {
    s.cell_start[j + 1] = s.cell_start[j] + s.load[j];
  }
  s.cell_users.resize(static_cast<std::size_t>(s.cell_start[num_ext]));
  s.cell_caps.assign(s.cell_users.size(), 0.0);
  s.mm_idx.assign(s.cell_start.begin(), s.cell_start.end() - 1);  // cursors
  for (std::size_t i = 0; i < s.soa.num_users; ++i) {
    const int e = ext_of[i];
    if (e != Assignment::kUnassigned) {
      s.cell_users[s.mm_idx[static_cast<std::size_t>(e)]++] = i;
    }
  }
  for (std::size_t j = 0; j < num_ext; ++j) {
    if (s.load[j] == 0 || s.dead_backhaul[j]) continue;
    const std::size_t begin = static_cast<std::size_t>(s.cell_start[j]);
    const std::size_t end = static_cast<std::size_t>(s.cell_start[j + 1]);
    s.tmp_rates.clear();
    s.tmp_demands.clear();
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t i = s.cell_users[k];
      s.tmp_rates.push_back(net.WifiRateRow(i)[j]);
      s.tmp_demands.push_back(s.soa.demand[i]);
    }
    const CellAllocation alloc =
        WifiCellAllocation(s.tmp_rates, s.tmp_demands, 1.0 / s.peers[j]);
    s.wifi_demand[j] = alloc.total_mbps;
    std::copy(alloc.user_throughput_mbps.begin(),
              alloc.user_throughput_mbps.end(), s.cell_caps.data() + begin);
  }
}

// Demand regime, second half: split each live cell's end-to-end throughput
// max-min among its users, capped at their WiFi allocations.
__attribute__((noinline)) void SplitDemandCells(EvalScratch& s) {
  EvalResult& result = s.result;
  for (std::size_t j = 0; j < s.soa.num_extenders; ++j) {
    if (s.load[j] == 0 || s.dead_backhaul[j]) continue;
    const std::size_t begin = static_cast<std::size_t>(s.cell_start[j]);
    const std::size_t end = static_cast<std::size_t>(s.cell_start[j + 1]);
    s.tmp_demands.assign(s.cell_caps.data() + begin, s.cell_caps.data() + end);
    const std::vector<double> split =
        MaxMinWithCaps(s.tmp_demands, result.extenders[j].end_to_end_mbps);
    for (std::size_t k = begin; k < end; ++k) {
      result.user_throughput_mbps[s.cell_users[k]] = split[k - begin];
    }
  }
}

}  // namespace

namespace detail {

void MaxMinSharesInPlace(const int* members, std::size_t count,
                         const double* rates, const double* demands,
                         double* time_share, std::size_t* idx) {
  std::size_t m = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t j = static_cast<std::size_t>(members[k]);
    time_share[j] = 0.0;
    if (demands[j] > 0.0) idx[m++] = j;
  }
  double remaining = 1.0;
  std::uint64_t rounds = 0;
  // Each round either sates at least one extender or terminates, so this
  // loop runs at most `count` times.
  while (m > 0 && remaining > 0.0) {
    ++rounds;
    const double share = remaining / static_cast<double>(m);
    std::size_t w = 0;
    bool any_sated = false;
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t j = idx[k];
      const double needed = demands[j] / rates[j];
      if (needed <= share) {
        time_share[j] += needed;
        any_sated = true;
      } else {
        idx[w++] = j;
      }
    }
    if (!any_sated) {
      for (std::size_t k = 0; k < w; ++k) time_share[idx[k]] += share;
      break;
    }
    double used = 0.0;
    for (std::size_t k = 0; k < count; ++k) {
      used += time_share[static_cast<std::size_t>(members[k])];
    }
    remaining = std::max(0.0, 1.0 - used);
    m = w;
  }
  if (rounds > 0) {
    if (obs::MetricsScope* s = obs::CurrentScope()) {
      s->eval.maxmin_rounds.Add(rounds);
    }
  }
}

void EqualSharesInPlace(const int* members, std::size_t count,
                        const double* demands, double* time_share,
                        bool denominator_all) {
  std::size_t active = 0;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t j = static_cast<std::size_t>(members[k]);
    time_share[j] = 0.0;
    if (demands[j] > 0.0) ++active;
  }
  if (active == 0) return;
  const double share =
      1.0 / static_cast<double>(denominator_all ? count : active);
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t j = static_cast<std::size_t>(members[k]);
    if (demands[j] > 0.0) time_share[j] = share;
  }
}

void AllocateAirtime(PlcSharing sharing, const int* members,
                     std::size_t count, const double* rates,
                     const double* demands, double* time_share,
                     std::size_t* idx) {
  switch (sharing) {
    case PlcSharing::kMaxMinActive:
      MaxMinSharesInPlace(members, count, rates, demands, time_share, idx);
      return;
    case PlcSharing::kEqualActive:
      EqualSharesInPlace(members, count, demands, time_share,
                         /*denominator_all=*/false);
      return;
    case PlcSharing::kEqualAll:
      // Every extender of the domain owns 1/|A_d| of its airtime, whether
      // or not it uses it.
      EqualSharesInPlace(members, count, demands, time_share,
                         /*denominator_all=*/true);
      return;
  }
}

}  // namespace detail

const char* ToString(PlcSharing s) {
  switch (s) {
    case PlcSharing::kMaxMinActive:
      return "maxmin-active";
    case PlcSharing::kEqualActive:
      return "equal-active";
    case PlcSharing::kEqualAll:
      return "equal-all";
  }
  return "?";
}

const char* ToString(Bottleneck b) {
  switch (b) {
    case Bottleneck::kIdle:
      return "idle";
    case Bottleneck::kWifi:
      return "wifi";
    case Bottleneck::kPlc:
      return "plc";
    case Bottleneck::kBalanced:
      return "balanced";
  }
  return "?";
}

double WifiCellThroughput(const std::vector<double>& user_rates) {
  if (user_rates.empty()) return 0.0;
  double inv_sum = 0.0;
  for (double r : user_rates) {
    if (r <= 0.0) throw std::invalid_argument("non-positive WiFi rate");
    inv_sum += 1.0 / r;
  }
  return static_cast<double>(user_rates.size()) / inv_sum;
}

CellAllocation WifiCellAllocation(const std::vector<double>& user_rates,
                                  const std::vector<double>& demands_mbps,
                                  double airtime) {
  if (user_rates.size() != demands_mbps.size()) {
    throw std::invalid_argument("rates/demands size mismatch");
  }
  if (airtime < 0.0 || airtime > 1.0) {
    throw std::invalid_argument("airtime must be in [0, 1]");
  }
  const std::size_t n = user_rates.size();
  CellAllocation alloc;
  alloc.user_throughput_mbps.assign(n, 0.0);
  if (n == 0) return alloc;

  for (std::size_t i = 0; i < n; ++i) {
    if (user_rates[i] <= 0.0) {
      throw std::invalid_argument("non-positive WiFi rate");
    }
    if (demands_mbps[i] < 0.0) {
      throw std::invalid_argument("negative demand");
    }
  }

  // Raise a common throughput level over the backlogged users; users whose
  // demand lies below the level freeze at their demand and return their
  // airtime. Each round freezes at least one user, so O(n) rounds. One
  // index buffer, compacted in place (no per-round reallocation).
  std::vector<std::size_t> backlogged(n);
  for (std::size_t i = 0; i < n; ++i) backlogged[i] = i;
  std::size_t m = n;
  while (m > 0 && airtime > 1e-15) {
    double inv_sum = 0.0;
    for (std::size_t k = 0; k < m; ++k) {
      inv_sum += 1.0 / user_rates[backlogged[k]];
    }
    const double level = airtime / inv_sum;
    std::size_t w = 0;
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t i = backlogged[k];
      const double d = demands_mbps[i];
      if (d > 0.0 && d <= level) {
        alloc.user_throughput_mbps[i] = d;
        airtime -= d / user_rates[i];
      } else {
        backlogged[w++] = i;
      }
    }
    if (w == m) {
      for (std::size_t k = 0; k < m; ++k) {
        alloc.user_throughput_mbps[backlogged[k]] = level;
      }
      break;
    }
    m = w;
  }
  for (double x : alloc.user_throughput_mbps) alloc.total_mbps += x;
  return alloc;
}

std::vector<double> MaxMinWithCaps(const std::vector<double>& caps,
                                   double total) {
  const std::size_t n = caps.size();
  std::vector<double> out(n, 0.0);
  if (n == 0 || total <= 0.0) return out;
  for (double c : caps) {
    if (c < 0.0) throw std::invalid_argument("negative cap");
  }
  // One index buffer over the uncapped users, compacted in place.
  std::vector<std::size_t> open;
  open.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (caps[i] > 0.0) open.push_back(i);
  }
  std::size_t m = open.size();
  double remaining = total;
  while (m > 0 && remaining > 1e-15) {
    const double share = remaining / static_cast<double>(m);
    std::size_t w = 0;
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t i = open[k];
      if (caps[i] <= share) {
        out[i] = caps[i];
        remaining -= caps[i];
      } else {
        open[w++] = i;
      }
    }
    if (w == m) {
      for (std::size_t k = 0; k < m; ++k) out[open[k]] = share;
      break;
    }
    m = w;
  }
  return out;
}

EvalResult Evaluator::Evaluate(const Network& net,
                               const Assignment& assign) const {
  EvalScratch scratch;
  Evaluate(net, assign, scratch);
  return std::move(scratch.result);
}

void CoChannelDomains(const Network& net, const std::vector<int>& channels,
                      double range_m, std::vector<int>& domains) {
  const std::size_t num_ext = net.NumExtenders();
  if (channels.size() != num_ext) {
    throw std::invalid_argument("channel plan size mismatch");
  }
  for (int c : channels) {
    if (c < 0) throw std::invalid_argument("negative channel index");
  }
  if (range_m < 0.0) {
    throw std::invalid_argument("negative carrier-sense range");
  }

  // Union-find (union by min id, path halving) over co-channel extender
  // pairs within carrier-sense range, built in `domains` itself. Co-channel
  // cells that can hear each other defer to each other's transmissions, so
  // a whole connected component shares one airtime budget.
  std::vector<int>& parent = domains;
  parent.resize(num_ext);
  for (std::size_t j = 0; j < num_ext; ++j) parent[j] = static_cast<int>(j);
  const auto find = [&parent](int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(
              parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };
  for (std::size_t a = 0; a < num_ext; ++a) {
    for (std::size_t b = a + 1; b < num_ext; ++b) {
      if (channels[a] != channels[b]) continue;
      if (Distance(net.ExtenderAt(a).position, net.ExtenderAt(b).position) >
          range_m) {
        continue;
      }
      const int ra = find(static_cast<int>(a));
      const int rb = find(static_cast<int>(b));
      if (ra == rb) continue;
      // Attach the larger root under the smaller so every component's root
      // is its minimum extender id.
      parent[static_cast<std::size_t>(std::max(ra, rb))] = std::min(ra, rb);
    }
  }
  // Full compression, then label components in one ascending pass: with
  // min-id roots every parent index is below its child, so a root is met
  // before its members and its label is already in place when they copy it.
  for (std::size_t j = 0; j < num_ext; ++j) {
    parent[j] = find(static_cast<int>(j));
  }
  int next_label = 0;
  for (std::size_t j = 0; j < num_ext; ++j) {
    domains[j] = parent[j] == static_cast<int>(j)
                     ? next_label++
                     : domains[static_cast<std::size_t>(parent[j])];
  }
}

const std::vector<int>* Evaluator::ResolveWifiDomains(
    const Network& net, EvalScratch& scratch) const {
  if (options_.wifi_channel.empty()) return nullptr;
  if (!scratch.chan_cache_valid ||
      scratch.chan_cache_version != net.Version() ||
      scratch.chan_cache_range != options_.carrier_sense_range_m ||
      scratch.chan_cache_plan != options_.wifi_channel) {
    scratch.chan_cache_valid = false;
    CoChannelDomains(net, options_.wifi_channel,
                     options_.carrier_sense_range_m, scratch.channel_domains);
    scratch.chan_cache_plan = options_.wifi_channel;
    scratch.chan_cache_range = options_.carrier_sense_range_m;
    scratch.chan_cache_version = net.Version();
    scratch.chan_cache_valid = true;
  }
  return &scratch.channel_domains;
}

const EvalResult& Evaluator::Evaluate(const Network& net,
                                      const Assignment& assign,
                                      EvalScratch& scratch) const {
  if (assign.NumUsers() != net.NumUsers()) {
    throw std::invalid_argument("assignment/network user count mismatch");
  }
  if (obs::MetricsScope* s = obs::CurrentScope()) {
    s->eval.evaluations.Add(1);
  }
  scratch.soa.Refresh(net);
  const NetworkSoA& soa = scratch.soa;
  const std::size_t num_users = soa.num_users;
  const std::size_t num_ext = soa.num_extenders;
  const int* ext_of = assign.Data();

  EvalResult& result = scratch.result;
  result.extenders.assign(num_ext, ExtenderReport{});
  result.user_throughput_mbps.assign(num_users, 0.0);
  result.aggregate_mbps = 0.0;
  result.active_extenders = 0;

  // WiFi side: per-extender harmonic sums, gathered from the contiguous
  // reciprocal-rate rows (1/r precomputed once per network version, so the
  // accumulation is an add per assigned user with no division and no
  // bounds-checked accessor).
  scratch.inv_rate_sum.assign(num_ext, 0.0);
  scratch.load.assign(num_ext, 0);
  double* sums = scratch.inv_rate_sum.data();
  int* load = scratch.load.data();
  const double* inv_rate = soa.inv_rate.data();
  for (std::size_t i = 0; i < num_users; ++i) {
    const int e = ext_of[i];
    if (e == Assignment::kUnassigned) continue;
    if (e < 0 || static_cast<std::size_t>(e) >= num_ext) {
      throw std::invalid_argument("assignment references unknown extender");
    }
    const double inv = inv_rate[i * num_ext + static_cast<std::size_t>(e)];
    if (inv == 0.0) {
      throw std::invalid_argument("user assigned to unreachable extender");
    }
    sums[static_cast<std::size_t>(e)] += inv;
    ++load[static_cast<std::size_t>(e)];
  }

  // Co-channel contention: active cells in one domain time-share the air.
  // peers[j] = number of active cells contending with extender j (1 when
  // every extender has its own channel).
  scratch.peers.assign(num_ext, 1.0);
  if (const std::vector<int>* wifi_domain = ResolveWifiDomains(net, scratch)) {
    scratch.active_in_wifi_domain.clear();
    for (std::size_t j = 0; j < num_ext; ++j) {
      const int d = (*wifi_domain)[j];
      if (static_cast<std::size_t>(d) >= scratch.active_in_wifi_domain.size()) {
        scratch.active_in_wifi_domain.resize(static_cast<std::size_t>(d) + 1,
                                             0);
      }
      if (load[j] > 0) {
        ++scratch.active_in_wifi_domain[static_cast<std::size_t>(d)];
      }
    }
    for (std::size_t j = 0; j < num_ext; ++j) {
      if (load[j] == 0) continue;
      scratch.peers[j] = static_cast<double>(
          scratch.active_in_wifi_domain[static_cast<std::size_t>(
              (*wifi_domain)[j])]);
    }
  }

  // Per-extender WiFi demand (Eq. 1 aggregate) and dead-backhaul flags.
  // Users camped on an extender whose power-line link is dead (c_j = 0,
  // e.g. a failure injected mid-run) get zero end-to-end throughput; the
  // extender consumes no PLC airtime.
  scratch.wifi_demand.assign(num_ext, 0.0);
  scratch.dead_backhaul.assign(num_ext, 0);
  const double* plc = soa.plc_rate.data();
  const double* peers = scratch.peers.data();
  double* wifi_demand = scratch.wifi_demand.data();
  unsigned char* dead = scratch.dead_backhaul.data();
  for (std::size_t j = 0; j < num_ext; ++j) {
    if (load[j] == 0) continue;
    ++result.active_extenders;
    if (plc[j] <= 0.0) {
      dead[j] = 1;
      continue;  // leave wifi_demand at 0 so the airtime allocator skips it
    }
    wifi_demand[j] = static_cast<double>(load[j]) / sums[j] / peers[j];
  }

  // The demand regime, chosen once per evaluation: does any ASSIGNED user
  // carry a finite offered load? (0 = saturated, the paper's assumption.) It
  // cannot be chosen per cell: the saturated n / sum / peers form and the
  // demand-aware allocation's level round differently, so a cell of
  // saturated users reports the allocation's value whenever any other cell
  // carries a demand.
  bool any_demand = false;
  if (soa.any_finite_demand) {
    for (std::size_t i = 0; i < num_users; ++i) {
      if (ext_of[i] != Assignment::kUnassigned && soa.demand[i] > 0.0) {
        any_demand = true;
        break;
      }
    }
  }
  if (any_demand) AllocateDemandCells(net, ext_of, scratch);

  // PLC side: airtime allocation, independently per contention domain
  // (extenders on separate power-line segments do not share airtime; with
  // the default single domain this is the paper's model verbatim), over the
  // CSR cached in the SoA view.
  scratch.domain_active.assign(soa.num_domains, 0);
  for (std::size_t j = 0; j < num_ext; ++j) {
    if (load[j] > 0) {
      ++scratch.domain_active[static_cast<std::size_t>(soa.plc_domain[j])];
    }
  }
  scratch.time_share.assign(num_ext, 0.0);
  scratch.mm_idx.assign(num_ext, 0);
  for (std::size_t d = 0; d < soa.num_domains; ++d) {
    const std::size_t begin = static_cast<std::size_t>(soa.domain_start[d]);
    const std::size_t count =
        static_cast<std::size_t>(soa.domain_start[d + 1]) - begin;
    if (count == 0) continue;
    detail::AllocateAirtime(options_.plc_sharing,
                            soa.domain_items.data() + begin, count, plc,
                            wifi_demand, scratch.time_share.data(),
                            scratch.mm_idx.data());
  }

  for (std::size_t j = 0; j < num_ext; ++j) {
    ExtenderReport& rep = result.extenders[j];
    rep.num_users = load[j];
    rep.wifi_throughput_mbps = wifi_demand[j];
    rep.plc_time_share = scratch.time_share[j];
    rep.plc_throughput_mbps = scratch.time_share[j] * plc[j];
    if (load[j] == 0) {
      rep.bottleneck = Bottleneck::kIdle;
      continue;
    }
    if (dead[j]) {
      rep.bottleneck = Bottleneck::kPlc;  // the backhaul delivers nothing
      continue;
    }
    rep.end_to_end_mbps =
        std::min(rep.wifi_throughput_mbps, rep.plc_throughput_mbps);
    // Demand fully met -> the WiFi side limits (under max-min allocation a
    // sated extender's airtime is capped at exactly its demand, so comparing
    // wifi vs allocated-plc throughput would misread it as balanced). An
    // extender is "balanced" only when its demand coincides with the equal
    // airtime share it is entitled to within its contention domain.
    const std::size_t d = static_cast<std::size_t>(soa.plc_domain[j]);
    const double share_denominator =
        options_.plc_sharing == PlcSharing::kEqualAll
            ? static_cast<double>(soa.domain_size[d])
            : static_cast<double>(scratch.domain_active[d]);
    const double equal_share_capacity = plc[j] / share_denominator;
    const bool demand_met = rep.end_to_end_mbps >=
                            rep.wifi_throughput_mbps - kBalanceTolerance;
    if (std::abs(rep.wifi_throughput_mbps - equal_share_capacity) <=
        kBalanceTolerance) {
      rep.bottleneck = Bottleneck::kBalanced;
    } else {
      rep.bottleneck = demand_met ? Bottleneck::kWifi : Bottleneck::kPlc;
    }
    result.aggregate_mbps += rep.end_to_end_mbps;
  }

  if (obs::MetricsScope* s = obs::CurrentScope()) {
    std::uint64_t wifi = 0, plcn = 0, balanced = 0, idle = 0, dead_n = 0;
    for (std::size_t j = 0; j < num_ext; ++j) {
      switch (result.extenders[j].bottleneck) {
        case Bottleneck::kWifi:
          ++wifi;
          break;
        case Bottleneck::kPlc:
          ++plcn;
          break;
        case Bottleneck::kBalanced:
          ++balanced;
          break;
        case Bottleneck::kIdle:
          ++idle;
          break;
      }
      if (dead[j]) ++dead_n;
    }
    if (wifi) s->eval.bottleneck_wifi.Add(wifi);
    if (plcn) s->eval.bottleneck_plc.Add(plcn);
    if (balanced) s->eval.bottleneck_balanced.Add(balanced);
    if (idle) s->eval.bottleneck_idle.Add(idle);
    if (dead_n) s->eval.dead_backhaul.Add(dead_n);
  }

  // TCP shares the extender's bottleneck throughput fairly among its users
  // (§IV-A): equal split when everyone is saturated, max-min with each
  // user's WiFi allocation as the cap otherwise.
  if (any_demand) {
    SplitDemandCells(scratch);
    return result;
  }
  for (std::size_t i = 0; i < num_users; ++i) {
    const int e = ext_of[i];
    if (e == Assignment::kUnassigned) continue;
    const ExtenderReport& rep = result.extenders[static_cast<std::size_t>(e)];
    result.user_throughput_mbps[i] =
        rep.end_to_end_mbps / static_cast<double>(rep.num_users);
  }
  return result;
}

double Evaluator::AggregateThroughput(const Network& net,
                                      const Assignment& assign) const {
  EvalScratch scratch;
  return Evaluate(net, assign, scratch).aggregate_mbps;
}

}  // namespace wolt::model
