// The three workloads of the end-to-end benchmark and the helpers their
// runners share. Each runner generates its inputs from the seed, sets up
// several times (keeping the best set-up time), then replays its op stream
// with fresh state for the configured seconds and reports percentiles over
// per-op best-of-R times. In the traced mode it reports per-layer metrics
// instead (see README.md).
#pragma once

#include <string>
#include <vector>

#include "common.h"
#include "obs/metrics.h"

namespace e2e {

Result RunBuildingMobile(const RunConfig& cfg);
Result RunFleetChaos(const RunConfig& cfg);
Result RunSweepStatic(const RunConfig& cfg);

// Set-ups per run; setup_s is the best of them.
inline constexpr int kSetups = 5;
// A run replays at least this many times even if the seconds run out.
inline constexpr std::size_t kMinReplays = 3;

// Runs `setup` kSetups times, each pinned to the next slot (PinToSlot), and
// returns the best wall time in seconds. Every set-up must produce the same
// reference digest.
template <class F>
double BestSetup(int width, F&& setup) {
  double best = 1e300;
  for (int i = 0; i < kSetups; ++i) {
    PinToSlot(static_cast<std::size_t>(i), width);
    const std::int64_t t0 = NowNs();
    setup(i);
    const double s = static_cast<double>(NowNs() - t0) / 1e9;
    if (s < best) best = s;
  }
  return best;
}

// The seven end-to-end metrics, in BENCHMARK.json order.
void AddEndToEnd(Result* out, double setup_s,
                 const std::vector<double>& latency_us, double throughput_per_s,
                 double aggregate_mbps, double ok_ratio);

// The best-of-R and raw latency percentiles of the untraced replays, as one
// detail line (the steadiness table in README.md is built from these).
std::string LatencyLine(const BestOfR& plain);

// host.contention (raw p50 over best-of-R p50 of the untraced replays) and
// trace_overhead (traced best-of-R p50 over untraced best-of-R p50, minus 1).
void AddTraceDiagnostics(Result* out, const BestOfR& untraced,
                         const BestOfR& traced);

// A counter of a snapshot by name; 0 when absent.
std::uint64_t CounterValue(const wolt::obs::MetricsSnapshot& s, const char* name);

// The solver and evaluator counters of one replay, per op: Hungarian solves,
// local-search candidates evaluated, prune and accept ratios, evaluations
// and max-min rounds (the assign.* and model.* per-layer metrics).
void AddSolverMetrics(Result* out, const wolt::obs::MetricsSnapshot& s, double ops);

// Self-time reconciliation: the share of the summed per-op best op time
// that the summed per-op best layer times leave unexplained. Workloads whose
// layers tile the op (building-mobile, fleet-chaos) must stay within
// kLayerTolerance; a larger residual fails the run.
inline constexpr double kLayerTolerance = 0.10;
double LayerResidual(const std::vector<std::vector<double>>& layers_us,
                     const std::vector<double>& op_us);

// Writes the traced run's layer table beside its Chrome trace.
void WriteLayerArtefacts(const RunConfig& cfg, const SpanLog& spans,
                         const Result& result);

}  // namespace e2e
