// Metric assembly and traced-run artefacts shared by the workload runners.
#include <cmath>

#include "workloads.h"

namespace e2e {

void AddEndToEnd(Result* out, double setup_s,
                 const std::vector<double>& latency_us, double throughput_per_s,
                 double aggregate_mbps, double ok_ratio) {
  out->metrics = {
      {"setup_s", setup_s, "s"},
      {"latency_p50_us", Percentile(latency_us, 0.50), "us"},
      {"latency_p90_us", Percentile(latency_us, 0.90), "us"},
      {"throughput_per_s", throughput_per_s, "1/s"},
      {"aggregate_mbps", aggregate_mbps, "Mbit/s"},
      {"ok_ratio", ok_ratio, "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

std::string LatencyLine(const BestOfR& plain) {
  const std::vector<double> best = plain.LatencyBest();
  return Format(
      "latency over %zu replays: best-of-R p50 %.2f us p90 %.2f us; raw "
      "(median replay) p50 %.2f us p90 %.2f us",
      plain.replays(), Percentile(best, 0.5), Percentile(best, 0.9),
      plain.RawP50(), plain.RawP90());
}

void AddTraceDiagnostics(Result* out, const BestOfR& untraced,
                         const BestOfR& traced) {
  const double best = Median(untraced.LatencyBest());
  out->metrics.push_back({"host.contention", untraced.RawP50() / best, "ratio"});
  out->metrics.push_back(
      {"trace_overhead", Median(traced.LatencyBest()) / best - 1.0, "ratio"});
}

std::uint64_t CounterValue(const wolt::obs::MetricsSnapshot& s, const char* name) {
  for (const wolt::obs::CounterSample& c : s.counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

void AddSolverMetrics(Result* out, const wolt::obs::MetricsSnapshot& s, double ops) {
  const auto sum = [&s](const char* a, const char* b) {
    return static_cast<double>(CounterValue(s, a) + CounterValue(s, b));
  };
  const double generated = sum("ls.relocate.generated", "ls.swap.generated");
  const double evaluated = sum("ls.relocate.evaluated", "ls.swap.evaluated");
  const double pruned = sum("ls.relocate.pruned", "ls.swap.pruned");
  const double accepted = sum("ls.relocate.accepted", "ls.swap.accepted");
  const auto per_op = [&](const char* name) {
    return static_cast<double>(CounterValue(s, name)) / ops;
  };
  out->metrics.insert(
      out->metrics.end(),
      {{"assign.hungarian_solves_per_op", per_op("hungarian.solves"), "count"},
       {"assign.ls_evaluated_per_op", evaluated / ops, "count"},
       {"assign.ls_prune_ratio", generated > 0 ? pruned / generated : 0.0,
        "ratio"},
       {"assign.ls_accept_ratio", evaluated > 0 ? accepted / evaluated : 0.0,
        "ratio"},
       {"model.evaluations_per_op", per_op("eval.evaluations"), "count"},
       {"model.maxmin_rounds_per_op", per_op("eval.maxmin_rounds"), "count"}});
}

double LayerResidual(const std::vector<std::vector<double>>& layers_us,
                     const std::vector<double>& op_us) {
  double layers = 0.0;
  for (const std::vector<double>& layer : layers_us) layers += Sum(layer);
  const double total = Sum(op_us);
  return total > 0.0 ? (total - layers) / total : 0.0;
}

void WriteLayerArtefacts(const RunConfig& cfg, const SpanLog& spans,
                         const Result& result) {
  const std::string stem =
      cfg.out_dir + "/" + cfg.workload + "-seed" + std::to_string(cfg.seed);
  std::string table = "metric\tvalue\tunit\n";
  for (const Metric& m : result.metrics) {
    table += Format("%s\t%.6g\t%s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  Check(spans.WriteChromeTrace(stem + ".trace.json"),
        "cannot write " + stem + ".trace.json");
  Check(WriteText(stem + ".layers.tsv", table),
        "cannot write " + stem + ".layers.tsv");
}

}  // namespace e2e
