#include "wifi/channels.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace wolt::wifi {

std::vector<std::pair<std::size_t, std::size_t>> InterferenceEdges(
    const model::Network& net, double interference_range_m) {
  std::vector<std::pair<std::size_t, std::size_t>> edges;
  for (std::size_t a = 0; a < net.NumExtenders(); ++a) {
    for (std::size_t b = a + 1; b < net.NumExtenders(); ++b) {
      const double d = model::Distance(net.ExtenderAt(a).position,
                                       net.ExtenderAt(b).position);
      if (d <= interference_range_m) edges.emplace_back(a, b);
    }
  }
  return edges;
}

std::vector<int> AssignChannels(const model::Network& net,
                                const ChannelPlanParams& params) {
  if (params.num_channels <= 0) {
    throw std::invalid_argument("need at least one channel");
  }
  const std::size_t n = net.NumExtenders();
  std::vector<std::vector<std::size_t>> adj(n);
  for (const auto& [a, b] :
       InterferenceEdges(net, params.interference_range_m)) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }

  // Highest-degree-first order (Welsh-Powell). Ties break on extender id so
  // the plan is a pure function of the instance (std::sort is unstable;
  // without the tie-break equal-degree vertices could colour in any order).
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (adj[a].size() != adj[b].size()) return adj[a].size() > adj[b].size();
    return a < b;
  });

  std::vector<int> channel(n, -1);
  for (std::size_t v : order) {
    std::vector<int> used_count(static_cast<std::size_t>(params.num_channels),
                                0);
    for (std::size_t u : adj[v]) {
      if (channel[u] >= 0) ++used_count[static_cast<std::size_t>(channel[u])];
    }
    // First free channel; otherwise the channel least used by neighbours.
    int best = 0;
    for (int c = 0; c < params.num_channels; ++c) {
      if (used_count[static_cast<std::size_t>(c)] <
          used_count[static_cast<std::size_t>(best)]) {
        best = c;
      }
      if (used_count[static_cast<std::size_t>(c)] == 0) {
        best = c;
        break;
      }
    }
    channel[v] = best;
  }
  return channel;
}

std::vector<int> AssignChannelsWeighted(const model::Network& net,
                                        const std::vector<double>& weights,
                                        const ChannelPlanParams& params) {
  if (params.num_channels <= 0) {
    throw std::invalid_argument("need at least one channel");
  }
  const std::size_t n = net.NumExtenders();
  if (weights.size() != n) {
    throw std::invalid_argument("weight vector size mismatch");
  }
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("negative extender weight");
  }
  std::vector<std::vector<std::size_t>> adj(n);
  for (const auto& [a, b] :
       InterferenceEdges(net, params.interference_range_m)) {
    adj[a].push_back(b);
    adj[b].push_back(a);
  }

  // Weighted interference degree: how much neighbour traffic a vertex would
  // contend with if it collided with everyone. Heaviest-conflict vertices
  // colour first, so they get first pick of clean channels.
  std::vector<double> wdeg(n, 0.0);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t u : adj[v]) wdeg[v] += weights[u];
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (wdeg[a] != wdeg[b]) return wdeg[a] > wdeg[b];
    return a < b;
  });

  std::vector<int> channel(n, -1);
  std::vector<double> used_weight(static_cast<std::size_t>(params.num_channels),
                                  0.0);
  for (std::size_t v : order) {
    std::fill(used_weight.begin(), used_weight.end(), 0.0);
    for (std::size_t u : adj[v]) {
      if (channel[u] >= 0) {
        used_weight[static_cast<std::size_t>(channel[u])] += weights[u];
      }
    }
    // Channel with the least already-committed neighbour weight; strict <
    // keeps the lowest index on ties (deterministic).
    int best = 0;
    for (int c = 1; c < params.num_channels; ++c) {
      if (used_weight[static_cast<std::size_t>(c)] <
          used_weight[static_cast<std::size_t>(best)]) {
        best = c;
      }
    }
    channel[v] = best;
  }
  return channel;
}

std::vector<int> SameChannelPlan(const model::Network& net) {
  return std::vector<int>(net.NumExtenders(), 0);
}

std::size_t CountConflicts(const model::Network& net,
                           const std::vector<int>& channels,
                           double interference_range_m) {
  if (channels.size() != net.NumExtenders()) {
    throw std::invalid_argument("channel vector size mismatch");
  }
  std::size_t conflicts = 0;
  for (const auto& [a, b] : InterferenceEdges(net, interference_range_m)) {
    if (channels[a] == channels[b]) ++conflicts;
  }
  return conflicts;
}

}  // namespace wolt::wifi
