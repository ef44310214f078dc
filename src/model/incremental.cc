#include "model/incremental.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wolt::model {

IncrementalEvaluator::IncrementalEvaluator(const Network& net,
                                           const Assignment& assign,
                                           EvalOptions options,
                                           double log_floor_mbps,
                                           bool track_log_utility)
    : net_(&net),
      evaluator_(std::move(options)),
      log_floor_(log_floor_mbps),
      log_of_floor_(std::log(log_floor_mbps)),
      track_log_(track_log_utility) {
  if (assign.NumUsers() != net.NumUsers()) {
    throw std::invalid_argument("assignment/network user count mismatch");
  }
  scratch_.soa.Refresh(net);
  const NetworkSoA& soa = scratch_.soa;
  const std::size_t num_users = soa.num_users;
  const std::size_t num_ext = soa.num_extenders;

  // Deltas are separable only in the saturated, contention-free model; any
  // finite demand (even on a currently unassigned user — it could be moved
  // in later) or a channel plan's co-channel coupling forces the exact
  // fallback.
  incremental_ =
      evaluator_.options().wifi_channel.empty() && !soa.any_finite_demand;

  ext_of_.assign(assign.Data(), assign.Data() + num_users);
  load_.assign(num_ext, 0);

  if (!incremental_) {
    mirror_ = assign;
    for (std::size_t i = 0; i < num_users; ++i) {
      const int e = ext_of_[i];
      if (e >= 0) ++load_[static_cast<std::size_t>(e)];
    }
    RecomputeFallback();
    return;
  }

  inv_sum_.assign(num_ext, 0.0);
  for (std::size_t i = 0; i < num_users; ++i) {
    const int e = ext_of_[i];
    if (e == Assignment::kUnassigned) continue;
    if (e < 0 || static_cast<std::size_t>(e) >= num_ext) {
      throw std::invalid_argument("assignment references unknown extender");
    }
    const double inv = soa.InvRow(i)[static_cast<std::size_t>(e)];
    if (inv <= 0.0) {
      throw std::invalid_argument("user assigned to unreachable extender");
    }
    ++load_[static_cast<std::size_t>(e)];
    inv_sum_[static_cast<std::size_t>(e)] += inv;
  }

  wifi_demand_.assign(num_ext, 0.0);
  for (std::size_t j = 0; j < num_ext; ++j) RefreshWifiDemand(j);

  time_share_.assign(num_ext, 0.0);
  contrib_agg_.assign(num_ext, 0.0);
  contrib_log_.assign(num_ext, 0.0);
  mm_idx_.assign(num_ext, 0);
  peek_ts_.assign(num_ext, 0.0);
  values_ = IncrementalValues{};
  for (std::size_t d = 0; d < soa.num_domains; ++d) {
    ReshareDomain(d, time_share_.data(), values_, /*commit=*/true);
  }
}

double IncrementalEvaluator::log_utility() const {
  if (!track_log_) {
    throw std::logic_error(
        "log_utility() on an engine built with track_log_utility = false");
  }
  return values_.log_utility;
}

void IncrementalEvaluator::RefreshWifiDemand(std::size_t ext) {
  wifi_demand_[ext] = (load_[ext] > 0 && scratch_.soa.plc_rate[ext] > 0.0)
                          ? static_cast<double>(load_[ext]) / inv_sum_[ext]
                          : 0.0;
}

void IncrementalEvaluator::ContributionOf(std::size_t ext,
                                          const double* time_share,
                                          double* agg, double* log) const {
  *agg = 0.0;
  *log = 0.0;
  const int n = load_[ext];
  if (n == 0) return;
  const double plc = scratch_.soa.plc_rate[ext];
  if (plc <= 0.0) {
    // Dead backhaul: users are stuck at zero end-to-end throughput; the
    // proportional-fair objective floors them.
    if (track_log_) *log = static_cast<double>(n) * log_of_floor_;
    return;
  }
  const double end_to_end = std::min(wifi_demand_[ext], time_share[ext] * plc);
  *agg = end_to_end;
  if (track_log_) {
    const double per_user = end_to_end / static_cast<double>(n);
    *log = static_cast<double>(n) * std::log(std::max(per_user, log_floor_));
  }
}

void IncrementalEvaluator::ReshareDomain(std::size_t domain,
                                         double* time_share,
                                         IncrementalValues& values,
                                         bool commit) {
  const NetworkSoA& soa = scratch_.soa;
  const std::size_t begin = static_cast<std::size_t>(soa.domain_start[domain]);
  const std::size_t count =
      static_cast<std::size_t>(soa.domain_start[domain + 1]) - begin;
  if (count == 0) return;
  const int* members = soa.domain_items.data() + begin;

  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t j = static_cast<std::size_t>(members[k]);
    values.aggregate_mbps -= contrib_agg_[j];
    values.log_utility -= contrib_log_[j];
  }
  detail::AllocateAirtime(evaluator_.options().plc_sharing, members, count,
                          soa.plc_rate.data(), wifi_demand_.data(), time_share,
                          mm_idx_.data());
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t j = static_cast<std::size_t>(members[k]);
    double agg = 0.0, lg = 0.0;
    ContributionOf(j, time_share, &agg, &lg);
    values.aggregate_mbps += agg;
    values.log_utility += lg;
    if (commit) {
      contrib_agg_[j] = agg;
      contrib_log_[j] = lg;
    }
  }
}

IncrementalValues IncrementalEvaluator::PeekCells(const std::size_t* cells,
                                                  const int* peek_load,
                                                  const double* peek_demand,
                                                  std::size_t count) {
  // Temporarily install the hypothetical (load, wifi_demand) of the touched
  // cells; the reshare reads only those two arrays plus the PLC rates.
  int saved_load[2];
  double saved_demand[2];
  for (std::size_t k = 0; k < count; ++k) {
    saved_load[k] = load_[cells[k]];
    saved_demand[k] = wifi_demand_[cells[k]];
    load_[cells[k]] = peek_load[k];
    wifi_demand_[cells[k]] = peek_demand[k];
  }

  IncrementalValues peeked = values_;
  const int* domain_of = scratch_.soa.plc_domain.data();
  for (std::size_t k = 0; k < count; ++k) {
    // A second cell in the first cell's domain was already recomputed.
    if (k > 0 && domain_of[cells[k]] == domain_of[cells[0]]) continue;
    ReshareDomain(static_cast<std::size_t>(domain_of[cells[k]]),
                  peek_ts_.data(), peeked, /*commit=*/false);
  }

  for (std::size_t k = 0; k < count; ++k) {
    load_[cells[k]] = saved_load[k];
    wifi_demand_[cells[k]] = saved_demand[k];
  }
  return peeked;
}

void IncrementalEvaluator::RecomputeFallback() {
  const EvalResult& result = evaluator_.Evaluate(*net_, mirror_, scratch_);
  values_.aggregate_mbps = result.aggregate_mbps;
  result_stale_ = false;
  if (!track_log_) return;
  double logsum = 0.0;
  for (std::size_t i = 0; i < mirror_.NumUsers(); ++i) {
    if (!mirror_.IsAssigned(i)) continue;
    logsum +=
        std::log(std::max(result.user_throughput_mbps[i], log_floor_));
  }
  values_.log_utility = logsum;
}

double IncrementalEvaluator::UserThroughput(std::size_t user) {
  const int e = ext_of_[user];
  if (e == Assignment::kUnassigned) return 0.0;
  if (!incremental_) {
    if (result_stale_) RecomputeFallback();
    return scratch_.result.user_throughput_mbps[user];
  }
  const std::size_t j = static_cast<std::size_t>(e);
  const double plc = scratch_.soa.plc_rate[j];
  if (plc <= 0.0) return 0.0;
  const double end_to_end = std::min(wifi_demand_[j], time_share_[j] * plc);
  return end_to_end / static_cast<double>(load_[j]);
}

void IncrementalEvaluator::ApplyMove(std::size_t user, int to) {
  if (user >= ext_of_.size()) {
    throw std::invalid_argument("unknown user");
  }
  const int from = ext_of_[user];
  if (to == from) return;
  if (to != Assignment::kUnassigned) {
    if (to < 0 || static_cast<std::size_t>(to) >= load_.size()) {
      throw std::invalid_argument("move references unknown extender");
    }
    if (scratch_.soa.InvRow(user)[static_cast<std::size_t>(to)] <= 0.0) {
      throw std::invalid_argument("move to unreachable extender");
    }
  }
  ++mutations_;

  if (!incremental_) {
    if (to == Assignment::kUnassigned) {
      mirror_.Unassign(user);
      --load_[static_cast<std::size_t>(from)];
    } else {
      if (from != Assignment::kUnassigned) {
        --load_[static_cast<std::size_t>(from)];
      }
      mirror_.Assign(user, static_cast<std::size_t>(to));
      ++load_[static_cast<std::size_t>(to)];
    }
    ext_of_[user] = to;
    RecomputeFallback();
    return;
  }

  const double* inv = scratch_.soa.InvRow(user);
  if (from != Assignment::kUnassigned) {
    const std::size_t f = static_cast<std::size_t>(from);
    --load_[f];
    inv_sum_[f] -= inv[f];
    if (load_[f] == 0) inv_sum_[f] = 0.0;  // kill accumulated error
    RefreshWifiDemand(f);
  }
  if (to != Assignment::kUnassigned) {
    const std::size_t t = static_cast<std::size_t>(to);
    ++load_[t];
    inv_sum_[t] += inv[t];
    RefreshWifiDemand(t);
  }
  ext_of_[user] = to;

  const int* domain_of = scratch_.soa.plc_domain.data();
  const int d_from = from != Assignment::kUnassigned
                         ? domain_of[static_cast<std::size_t>(from)]
                         : -1;
  const int d_to = to != Assignment::kUnassigned
                       ? domain_of[static_cast<std::size_t>(to)]
                       : -1;
  if (d_from >= 0) {
    ReshareDomain(static_cast<std::size_t>(d_from), time_share_.data(),
                  values_, /*commit=*/true);
  }
  if (d_to >= 0 && d_to != d_from) {
    ReshareDomain(static_cast<std::size_t>(d_to), time_share_.data(), values_,
                  /*commit=*/true);
  }
}

IncrementalValues IncrementalEvaluator::PeekMove(std::size_t user, int to) {
  const int from = ext_of_[user];
  if (to == from) return values_;

  if (!incremental_) {
    // Evaluate the hypothetical assignment, then restore the mirror and the
    // cached values without a second evaluation; the cached EvalResult is
    // refreshed lazily if per-user throughputs are queried before the next
    // ApplyMove.
    const IncrementalValues saved = values_;
    if (to == Assignment::kUnassigned) {
      mirror_.Unassign(user);
    } else {
      if (static_cast<std::size_t>(to) >= load_.size() ||
          scratch_.soa.InvRow(user)[static_cast<std::size_t>(to)] <= 0.0) {
        throw std::invalid_argument("move to unreachable extender");
      }
      mirror_.Assign(user, static_cast<std::size_t>(to));
    }
    RecomputeFallback();
    const IncrementalValues peeked = values_;
    if (from == Assignment::kUnassigned) {
      mirror_.Unassign(user);
    } else {
      mirror_.Assign(user, static_cast<std::size_t>(from));
    }
    values_ = saved;
    result_stale_ = true;
    return peeked;
  }

  const std::size_t num_ext = load_.size();
  const double* plc = scratch_.soa.plc_rate.data();
  const double* inv = scratch_.soa.InvRow(user);
  std::size_t cells[2];
  int peek_load[2];
  double peek_demand[2];
  std::size_t count = 0;
  if (from != Assignment::kUnassigned) {
    const std::size_t f = static_cast<std::size_t>(from);
    const int n = load_[f] - 1;
    double s = inv_sum_[f] - inv[f];
    if (n == 0) s = 0.0;  // kill accumulated error, as ApplyMove does
    cells[count] = f;
    peek_load[count] = n;
    peek_demand[count] =
        (n > 0 && plc[f] > 0.0) ? static_cast<double>(n) / s : 0.0;
    ++count;
  }
  if (to != Assignment::kUnassigned) {
    const std::size_t t = static_cast<std::size_t>(to);
    if (t >= num_ext || inv[t] <= 0.0) {
      throw std::invalid_argument("move to unreachable extender");
    }
    const int n = load_[t] + 1;
    cells[count] = t;
    peek_load[count] = n;
    peek_demand[count] = plc[t] > 0.0
                             ? static_cast<double>(n) / (inv_sum_[t] + inv[t])
                             : 0.0;
    ++count;
  }
  if (count == 0) return values_;
  return PeekCells(cells, peek_load, peek_demand, count);
}

IncrementalValues IncrementalEvaluator::PeekSwap(std::size_t u1,
                                                 std::size_t u2) {
  if (u1 >= ext_of_.size() || u2 >= ext_of_.size()) {
    throw std::invalid_argument("unknown user");
  }
  const int e1 = ext_of_[u1];
  const int e2 = ext_of_[u2];
  if (e1 == Assignment::kUnassigned || e2 == Assignment::kUnassigned) {
    throw std::invalid_argument("swap requires two assigned users");
  }
  if (e1 == e2) return values_;
  const std::size_t x1 = static_cast<std::size_t>(e1);
  const std::size_t x2 = static_cast<std::size_t>(e2);

  if (!incremental_) {
    const IncrementalValues saved = values_;
    if (scratch_.soa.InvRow(u1)[x2] <= 0.0 ||
        scratch_.soa.InvRow(u2)[x1] <= 0.0) {
      throw std::invalid_argument("swap to unreachable extender");
    }
    mirror_.Assign(u1, x2);
    mirror_.Assign(u2, x1);
    RecomputeFallback();
    const IncrementalValues peeked = values_;
    mirror_.Assign(u1, x1);
    mirror_.Assign(u2, x2);
    values_ = saved;
    result_stale_ = true;
    return peeked;
  }

  const double* plc = scratch_.soa.plc_rate.data();
  const double* inv1 = scratch_.soa.InvRow(u1);
  const double* inv2 = scratch_.soa.InvRow(u2);
  if (inv1[x2] <= 0.0 || inv2[x1] <= 0.0) {
    throw std::invalid_argument("swap to unreachable extender");
  }
  // Loads are unchanged by an exchange; only the harmonic sums move.
  const std::size_t cells[2] = {x1, x2};
  const int peek_load[2] = {load_[x1], load_[x2]};
  double peek_demand[2];
  const double s1 = inv_sum_[x1] - inv1[x1] + inv2[x1];
  const double s2 = inv_sum_[x2] - inv2[x2] + inv1[x2];
  peek_demand[0] =
      plc[x1] > 0.0 ? static_cast<double>(load_[x1]) / s1 : 0.0;
  peek_demand[1] =
      plc[x2] > 0.0 ? static_cast<double>(load_[x2]) / s2 : 0.0;
  return PeekCells(cells, peek_load, peek_demand, 2);
}

IncrementalValues IncrementalEvaluator::MoveDelta(std::size_t user, int to) {
  const IncrementalValues before = values_;
  const IncrementalValues after = PeekMove(user, to);
  return {after.aggregate_mbps - before.aggregate_mbps,
          after.log_utility - before.log_utility};
}

}  // namespace wolt::model
