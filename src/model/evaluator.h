// Flow-level throughput engine: given a Network and an Assignment, compute
// what every user and extender actually achieves end-to-end.
//
// Model (§III-A / §IV-A of the paper):
//  * WiFi cell of extender j is throughput-fair (802.11 performance-anomaly
//    behaviour, Eq. 1): every associated user gets the same WiFi throughput,
//    so the cell's aggregate is T_WiFi_j = |N_j| / sum_{i in N_j} 1/r_ij.
//  * The PLC backhaul is one time-fair contention domain shared by the
//    *active* extenders. Under the real (evaluation) model, airtime unused
//    by an extender whose WiFi demand is below its share is re-allocated
//    max-min fairly (Fig. 3c); under the planning model used inside the
//    optimization (Eq. 2), each active extender gets exactly 1/k of airtime.
//  * Extender j's end-to-end throughput is min(T_WiFi_j, t_j * c_j), split
//    equally among its users (saturated TCP fair sharing).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/assignment.h"
#include "model/network.h"
#include "model/soa.h"

namespace wolt::model {

enum class Bottleneck {
  kIdle,      // no users associated
  kWifi,      // WiFi cell throughput below the PLC share
  kPlc,       // PLC share below the WiFi cell throughput
  kBalanced,  // equal within tolerance
};

const char* ToString(Bottleneck b);

// How the single PLC contention domain divides airtime between extenders.
enum class PlcSharing {
  // Max-min fair airtime over the *active* extenders with demand caps —
  // what the measurement study's hardware actually does (Fig. 2c time
  // fairness + the Fig. 3c leftover re-allocation). The physical default.
  kMaxMinActive,
  // Strict 1/k shares over the active extenders, no leftover
  // redistribution (ablation Abl-1).
  kEqualActive,
  // The paper's Problem-1 planning model taken literally: T_PLC_j =
  // c_j / |A| with |A| = ALL extenders, idle or not (constraint (4)).
  // Under this model activating every extender is always worthwhile, which
  // is the regime in which the paper's simulation results (Fig. 6) arise.
  kEqualAll,
};

const char* ToString(PlcSharing s);

struct EvalOptions {
  PlcSharing plc_sharing = PlcSharing::kMaxMinActive;
  // Optional channel plan: one WiFi channel index (>= 0) per extender.
  // Empty (default) models the paper's assumption that every extender has
  // its own channel. When set, co-channel contention domains are derived by
  // CoChannelDomains — connected components of the "same channel AND within
  // carrier_sense_range_m" graph over extender positions — and active cells
  // sharing a domain time-share the air: each cell's WiFi throughput is
  // divided by the number of active cells in its domain. A plan in which no
  // two co-channel extenders are in range (in particular, any all-distinct
  // plan) yields singleton domains and is bit-identical to no plan.
  std::vector<int> wifi_channel{};
  // Carrier-sense range for deriving co-channel contention from geometry.
  double carrier_sense_range_m = 60.0;
};

struct ExtenderReport {
  int num_users = 0;
  double wifi_throughput_mbps = 0.0;  // T_WiFi_j
  double plc_time_share = 0.0;        // t_j
  double plc_throughput_mbps = 0.0;   // t_j * c_j (capacity made available)
  double end_to_end_mbps = 0.0;       // min(T_WiFi_j, t_j * c_j)
  Bottleneck bottleneck = Bottleneck::kIdle;
};

struct EvalResult {
  std::vector<ExtenderReport> extenders;
  std::vector<double> user_throughput_mbps;  // 0 for unassigned users
  double aggregate_mbps = 0.0;               // objective (3) of Problem 1
  int active_extenders = 0;
};

// Reusable workspace for Evaluator::Evaluate. Holding one of these across
// calls makes the saturated (no per-user demands) path allocation-free in
// steady state: every buffer, including the result, keeps its capacity
// between evaluations. The contents are owned by the evaluator between
// calls; only `result` is meaningful to callers.
struct EvalScratch {
  EvalResult result;

  // Cached SoA view of the last evaluated network; rebuilt only when the
  // network's Version() changed. The kernel reads rates, demands and the
  // PLC-domain CSR from here instead of the Network.
  NetworkSoA soa;

  // Per-extender accumulators.
  std::vector<double> inv_rate_sum;
  std::vector<int> load;
  std::vector<double> peers;
  std::vector<double> wifi_demand;
  std::vector<double> time_share;
  std::vector<unsigned char> dead_backhaul;

  // Per-domain active counts (PLC domains; co-channel WiFi domains).
  std::vector<int> domain_active;
  std::vector<int> active_in_wifi_domain;

  // Co-channel contention domains derived from the channel plan, plus the
  // cache key they were computed under: deriving runs a union-find over
  // extender pairs, so it is cached on (network Version, plan, carrier-sense
  // range) and reused while none of those change.
  std::vector<int> channel_domains;
  std::vector<int> chan_cache_plan;
  double chan_cache_range = 0.0;
  std::uint64_t chan_cache_version = 0;
  bool chan_cache_valid = false;

  // Max-min progressive-filling index buffer (two-pointer compaction).
  std::vector<std::size_t> mm_idx;

  // Demand-regime buffers (grow only when finite demands are present):
  // the users of each cell as a CSR in ascending user order, each user's
  // WiFi allocation (its cap in the TCP re-sharing), and gather buffers.
  std::vector<int> cell_start;
  std::vector<std::size_t> cell_users;
  std::vector<double> cell_caps;
  std::vector<double> tmp_rates;
  std::vector<double> tmp_demands;
};

class Evaluator {
 public:
  explicit Evaluator(EvalOptions options = {}) : options_(options) {}

  // Full per-user / per-extender report. Throws std::invalid_argument if an
  // assigned user has zero WiFi rate to its extender or the assignment
  // references an unknown extender.
  EvalResult Evaluate(const Network& net, const Assignment& assign) const;

  // Hot-path variant: evaluates into `scratch` and returns scratch.result.
  // No heap allocation on the saturated path once the scratch has warmed up.
  // The one throughput kernel: structure-of-arrays reads (contiguous
  // reciprocal-rate rows, cached PLC-domain CSR), with the demand regime
  // chosen once per evaluation — when any assigned user carries a finite
  // demand, every live cell is allocated by WifiCellAllocation on the raw
  // rates and its users split by MaxMinWithCaps; otherwise the saturated
  // Eq. 1 harmonic sums apply.
  const EvalResult& Evaluate(const Network& net, const Assignment& assign,
                             EvalScratch& scratch) const;

  // Aggregate end-to-end throughput only (same computation, convenience).
  double AggregateThroughput(const Network& net,
                             const Assignment& assign) const;

  const EvalOptions& options() const { return options_; }

 private:
  // Co-channel WiFi contention domains for this evaluation (cached in
  // `scratch` keyed on (Version, plan, range)), or nullptr when no channel
  // plan is set (the paper's orthogonal assumption).
  const std::vector<int>* ResolveWifiDomains(const Network& net,
                                             EvalScratch& scratch) const;

  EvalOptions options_;
};

// Co-channel contention domains of a channel plan: connected components of
// the graph joining co-channel extender pairs within `range_m` (distance
// <= range). Writes one dense domain id per extender into `domains`,
// numbered by each component's lowest extender id (so ids are
// deterministic). Throws std::invalid_argument on a plan of the wrong size,
// a negative channel index or a negative range.
void CoChannelDomains(const Network& net, const std::vector<int>& channels,
                      double range_m, std::vector<int>& domains);

namespace detail {

// Max-min fair airtime over the extenders listed in `members` (progressive
// filling with demand caps, §III-A / Fig. 3c): equal shares of the time
// left among the backlogged extenders; an extender whose demand fits its
// share is capped at exactly demand/rate and the surplus is re-split among
// the rest until no one is sated. Operates in place on per-extender arrays
// with a caller-provided index buffer (size >= count), so hot paths never
// allocate. An extender demanding 0 gets no airtime.
void MaxMinSharesInPlace(const int* members, std::size_t count,
                         const double* rates, const double* demands,
                         double* time_share, std::size_t* idx);

// Strict 1/k shares over the domain's extenders. `denominator_all` selects
// the kEqualAll planning model (count idle extenders in the denominator).
void EqualSharesInPlace(const int* members, std::size_t count,
                        const double* demands, double* time_share,
                        bool denominator_all);

// The airtime allocation of one PLC contention domain under `sharing`:
// the single dispatch Evaluator and IncrementalEvaluator both call, so the
// two engines produce bit-identical airtime shares.
void AllocateAirtime(PlcSharing sharing, const int* members,
                     std::size_t count, const double* rates,
                     const double* demands, double* time_share,
                     std::size_t* idx);

}  // namespace detail

// The aggregate WiFi cell throughput T_WiFi_j for one extender given the
// WiFi rates of its associated users (Eq. 1). Exposed for the Phase-II
// solver which works purely on the WiFi side. Rates must all be positive.
double WifiCellThroughput(const std::vector<double>& user_rates);

// Demand-aware generalisation of Eq. 1: 802.11's long-term behaviour is an
// equal-throughput level x across backlogged users, constrained by the
// cell's unit airtime (sum x/r_i <= 1); users whose offered load d_i is
// below the level are capped at d_i and release their airtime. demand 0
// means saturated. Reduces exactly to Eq. 1 when everyone is saturated.
struct CellAllocation {
  std::vector<double> user_throughput_mbps;
  double total_mbps = 0.0;
};
// `airtime` (fraction of the second the cell owns, 1.0 unless co-channel
// contention shrinks it) scales the airtime budget.
CellAllocation WifiCellAllocation(const std::vector<double>& user_rates,
                                  const std::vector<double>& demands_mbps,
                                  double airtime = 1.0);

// Max-min fair division of `total` among users with finite caps: the TCP
// re-sharing step when the PLC segment throttles a cell below its WiFi
// throughput. The result sums to min(total, sum of caps).
std::vector<double> MaxMinWithCaps(const std::vector<double>& caps,
                                   double total);

}  // namespace wolt::model
