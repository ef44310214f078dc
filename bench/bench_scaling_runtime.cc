// Runtime/scalability microbenchmarks (google-benchmark): the O(|A|^3)
// Hungarian core (§IV-B complexity claim), full WOLT association at
// enterprise scales (the paper evaluates up to 15 extenders / 124+ users;
// we push to 1000 users / 50 extenders), the greedy baseline, the
// throughput evaluator, and the Phase-II move-evaluation loop in isolation.
#include <benchmark/benchmark.h>

#include <array>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "assign/hungarian.h"
#include "assign/local_search.h"
#include "bench_util.h"
#include "core/greedy.h"
#include "core/rssi.h"
#include "core/wolt.h"
#include "fault/storage.h"
#include "model/evaluator.h"
#include "model/incremental.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "sim/scenario.h"
#include "sweep/engine.h"
#include "sweep/grid.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace {

using namespace wolt;

assign::Matrix RandomUtilities(std::size_t rows, std::size_t cols,
                               util::Rng& rng) {
  assign::Matrix m(rows, cols, 0.0);
  for (std::size_t k = 0; k < m.size(); ++k) {
    m.data()[k] = rng.Uniform(1.0, 100.0);
  }
  return m;
}

void BM_Hungarian(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(42);
  const assign::Matrix m = RandomUtilities(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(assign::SolveAssignmentMax(m));
  }
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Hungarian)->RangeMultiplier(2)->Range(8, 256)->Complexity();

void BM_HungarianRectangular(benchmark::State& state) {
  // The WOLT Phase-I shape: |A| extenders x |U| users.
  const std::size_t extenders = 15;
  const std::size_t users = static_cast<std::size_t>(state.range(0));
  util::Rng rng(42);
  const assign::Matrix m = RandomUtilities(extenders, users, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(assign::SolveAssignmentMax(m));
  }
}
BENCHMARK(BM_HungarianRectangular)->Arg(36)->Arg(124)->Arg(200)->Arg(400);

model::Network MakeNetwork(std::size_t users, std::size_t extenders) {
  sim::ScenarioParams p;
  p.num_extenders = extenders;
  p.num_users = users;
  sim::ScenarioGenerator gen(p);
  util::Rng rng(7);
  return gen.Generate(rng);
}

// MakeNetwork's floor and a twin with every WiFi and PLC rate scaled by
// 1 + 1e-12. The twin is the same solve up to rounding, but every usable
// Phase-I utility differs in its low bits, so a policy that alternates
// between the two never gets a hit from either of WoltPolicy's one-slot
// memos (Phase I or the whole solve): the WOLT families below time a full
// solve, Hungarian core included, on every iteration.
std::array<model::Network, 2> MakeTwinNetworks(std::size_t users,
                                               std::size_t extenders) {
  std::array<model::Network, 2> nets = {MakeNetwork(users, extenders),
                                        MakeNetwork(users, extenders)};
  constexpr double kScale = 1.0 + 1e-12;
  model::Network& twin = nets[1];
  for (std::size_t j = 0; j < twin.NumExtenders(); ++j) {
    twin.SetPlcRate(j, twin.PlcRate(j) * kScale);
    for (std::size_t i = 0; i < twin.NumUsers(); ++i) {
      const double rate = twin.WifiRate(i, j);
      if (rate > 0.0) twin.SetWifiRate(i, j, rate * kScale);
    }
  }
  return nets;
}

void BM_WoltAssociate(benchmark::State& state) {
  const auto nets =
      MakeTwinNetworks(static_cast<std::size_t>(state.range(0)),
                       static_cast<std::size_t>(state.range(1)));
  core::WoltPolicy wolt;
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wolt.AssociateFresh(nets[k]));
    k ^= 1;
  }
}
BENCHMARK(BM_WoltAssociate)
    ->Args({36, 10})
    ->Args({36, 15})
    ->Args({124, 15})
    ->Args({200, 15})
    ->Args({200, 30})
    ->Args({500, 30})
    ->Args({1000, 50})
    ->Args({2000, 100})
    ->Args({5000, 200})
    ->Unit(benchmark::kMicrosecond);

// The same association with the in-solve parallel multi-start: Phase II's
// independent starts spread over a thread pool, merged deterministically by
// start index — the result is byte-identical to the serial solve at every
// thread count, so only wall time may change (hence UseRealTime; CPU time
// sums across workers).
void BM_WoltAssociatePar(benchmark::State& state) {
  const auto nets =
      MakeTwinNetworks(static_cast<std::size_t>(state.range(0)),
                       static_cast<std::size_t>(state.range(1)));
  util::ThreadPool pool(static_cast<int>(state.range(2)));
  core::WoltOptions wo;
  wo.phase2_pool = &pool;
  core::WoltPolicy wolt(wo);
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wolt.AssociateFresh(nets[k]));
    k ^= 1;
  }
}
BENCHMARK(BM_WoltAssociatePar)
    ->ArgNames({"users", "ext", "threads"})
    ->Args({1000, 50, 1})
    ->Args({1000, 50, 2})
    ->Args({1000, 50, 4})
    ->Args({1000, 50, 8})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// The same association with and without a MetricsScope installed, from ONE
// benchmark function so the two arms share code layout and heap history —
// range(2) == 1 installs the scope and every solver hook (Hungarian augment
// steps, local-search move tallies, evaluator counters) fires into a live
// registry; range(2) == 0 constructs the identical registry but never
// installs it, so the hooks see a null scope. The /200/15/1 vs /200/15/0
// pair in BENCH_sweep.json is the < 3% instrumentation-overhead guard
// (with WOLT_OBS=OFF the scope install is a no-op and the arms are
// identical code).
void BM_WoltAssociateObs(benchmark::State& state) {
  const auto nets =
      MakeTwinNetworks(static_cast<std::size_t>(state.range(0)),
                       static_cast<std::size_t>(state.range(1)));
  core::WoltPolicy wolt;
  obs::MetricsRegistry registry;
  std::optional<obs::ScopedMetrics> scoped;
  if (state.range(2) != 0) scoped.emplace(registry);
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wolt.AssociateFresh(nets[k]));
    k ^= 1;
  }
  // Surface one counter as proof the hooks were live (the default WOLT
  // Phase II runs on the incremental evaluator, so Hungarian solves — one
  // per Phase I — is the counter guaranteed nonzero per iteration).
  const obs::MetricsSnapshot snap = registry.Snapshot();
  for (const auto& c : snap.counters) {
    if (c.name == "hungarian.solves") {
      state.counters["hungarian_solves"] = static_cast<double>(c.value);
    }
  }
}
BENCHMARK(BM_WoltAssociateObs)
    ->Args({200, 15, 0})
    ->Args({200, 15, 1})
    ->Unit(benchmark::kMicrosecond);

void BM_WoltSubsetAssociate(benchmark::State& state) {
  const auto nets =
      MakeTwinNetworks(static_cast<std::size_t>(state.range(0)), 15);
  core::WoltOptions so;
  so.subset_search = true;
  core::WoltPolicy wolt(so);
  std::size_t k = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(wolt.AssociateFresh(nets[k]));
    k ^= 1;
  }
}
BENCHMARK(BM_WoltSubsetAssociate)->Arg(36)->Arg(124);

void BM_GreedyAssociate(benchmark::State& state) {
  const model::Network net =
      MakeNetwork(static_cast<std::size_t>(state.range(0)), 15);
  core::GreedyPolicy greedy;
  for (auto _ : state) {
    benchmark::DoNotOptimize(greedy.AssociateFresh(net));
  }
}
BENCHMARK(BM_GreedyAssociate)->Arg(36)->Arg(124)->Arg(200);

void BM_RssiAssociate(benchmark::State& state) {
  const model::Network net =
      MakeNetwork(static_cast<std::size_t>(state.range(0)), 15);
  core::RssiPolicy rssi;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rssi.AssociateFresh(net));
  }
}
BENCHMARK(BM_RssiAssociate)->Arg(36)->Arg(200);

void BM_Evaluator(benchmark::State& state) {
  const model::Network net =
      MakeNetwork(static_cast<std::size_t>(state.range(0)), 15);
  core::RssiPolicy rssi;
  const model::Assignment a = rssi.AssociateFresh(net);
  const model::Evaluator evaluator;
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.Evaluate(net, a));
  }
}
BENCHMARK(BM_Evaluator)->Arg(36)->Arg(124)->Arg(200);

// Same evaluation with a reused EvalScratch: the allocation-free hot path
// the Phase-II search and the subset search run on.
void BM_EvaluatorScratch(benchmark::State& state) {
  const model::Network net =
      MakeNetwork(static_cast<std::size_t>(state.range(0)), 15);
  core::RssiPolicy rssi;
  const model::Assignment a = rssi.AssociateFresh(net);
  const model::Evaluator evaluator;
  model::EvalScratch scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(evaluator.Evaluate(net, a, scratch));
  }
}
BENCHMARK(BM_EvaluatorScratch)->Arg(36)->Arg(124)->Arg(200);

// The Phase-II move-evaluation loop in isolation: relocation + swap local
// search under the end-to-end objective, starting from the RSSI baseline's
// assignment. This is the loop the incremental delta-evaluation engine
// accelerates — every candidate move used to cost a full Evaluate.
void BM_RelocateLocalSearch(benchmark::State& state) {
  const model::Network net =
      MakeNetwork(static_cast<std::size_t>(state.range(0)),
                  static_cast<std::size_t>(state.range(1)));
  core::RssiPolicy rssi;
  const model::Assignment start = rssi.AssociateFresh(net);
  std::vector<std::size_t> movable;
  for (std::size_t i = 0; i < net.NumUsers(); ++i) {
    if (start.IsAssigned(i)) movable.push_back(i);
  }
  assign::LocalSearchOptions options;
  options.objective = assign::Phase2Objective::kEndToEnd;
  for (auto _ : state) {
    model::Assignment a = start;
    benchmark::DoNotOptimize(
        assign::RelocateLocalSearch(net, a, movable, options));
  }
}
BENCHMARK(BM_RelocateLocalSearch)
    ->Args({124, 15})
    ->Args({200, 15})
    ->Args({500, 30})
    ->Unit(benchmark::kMicrosecond);

// A raw apply/revert move cycle on the incremental engine (the unit cost
// the local search pays per candidate).
void BM_IncrementalMove(benchmark::State& state) {
  const model::Network net =
      MakeNetwork(static_cast<std::size_t>(state.range(0)), 15);
  core::RssiPolicy rssi;
  const model::Assignment a = rssi.AssociateFresh(net);
  model::IncrementalEvaluator inc(net, a);
  // Find a user with two reachable extenders.
  std::size_t user = 0;
  int alt = -1;
  for (std::size_t i = 0; i < net.NumUsers() && alt < 0; ++i) {
    const int cur = inc.ExtenderOf(i);
    if (cur < 0) continue;
    for (std::size_t j = 0; j < net.NumExtenders(); ++j) {
      if (static_cast<int>(j) != cur && net.WifiRate(i, j) > 0.0 &&
          net.PlcRate(j) > 0.0) {
        user = i;
        alt = static_cast<int>(j);
        break;
      }
    }
  }
  const int home = inc.ExtenderOf(user);
  for (auto _ : state) {
    inc.ApplyMove(user, alt);
    inc.ApplyMove(user, home);
    benchmark::DoNotOptimize(inc.aggregate_mbps());
  }
}
BENCHMARK(BM_IncrementalMove)->Arg(124)->Arg(500);

// The parallel sweep engine on the Fig. 6a grid shape (scaled down to keep
// iterations short): wall-clock scaling with thread count. The work is
// bit-identical at every thread count — only the wall time may change, which
// is why UseRealTime() is required (CPU time sums across workers). Recorded
// into BENCH_sweep.json by bench/run_benches.sh.
void BM_SweepThroughput(benchmark::State& state) {
  sweep::SweepGrid grid;
  grid.master_seed = 2020;
  grid.SeedRange(24);
  grid.users = {36};
  grid.extenders = {15};
  grid.sharing = {model::PlcSharing::kMaxMinActive};
  grid.policies = {sweep::PolicyKind::kWolt, sweep::PolicyKind::kGreedy,
                   sweep::PolicyKind::kRssi};
  sweep::SweepOptions options;
  options.threads = static_cast<int>(state.range(0));
  sweep::SweepEngine engine(options);
  double aggregate = 0.0;
  for (auto _ : state) {
    const sweep::SweepResult result = engine.Run(grid);
    aggregate = result.groups[0].aggregate_mbps.Mean();
    benchmark::DoNotOptimize(aggregate);
  }
  state.counters["tasks"] = static_cast<double>(grid.NumTasks());
  state.counters["mean_aggregate_mbps"] = aggregate;
}
BENCHMARK(BM_SweepThroughput)
    ->ArgName("threads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// The same grid with crash-safe journaling on, routed through the io::Vfs
// seam. vfs:0 journals to a real temp file (RealVfs, batched fsync policy)
// and records what journaling actually costs with the disk in the loop.
// vfs:1 journals to an in-memory disk (fault::MemVfs): journal encoding +
// seam dispatch without disk latency. vfs:2 wraps that same in-memory disk
// in a zero-probability FaultVfs — identical journal work plus ONE extra
// Vfs layer, so the vfs:2 / vfs:1 ratio isolates exactly what a Vfs
// indirection costs the sweep; ci.sh gates it at <= 1% (if a whole extra
// layer is free, the seam the production path pays for is too).
void BM_SweepThroughputJournal(benchmark::State& state) {
  namespace fs = std::filesystem;
  sweep::SweepGrid grid;
  grid.master_seed = 2020;
  grid.SeedRange(24);
  grid.users = {36};
  grid.extenders = {15};
  grid.sharing = {model::PlcSharing::kMaxMinActive};
  grid.policies = {sweep::PolicyKind::kWolt, sweep::PolicyKind::kGreedy,
                   sweep::PolicyKind::kRssi};
  const int vfs_mode = static_cast<int>(state.range(1));
  const std::string path =
      vfs_mode != 0
          ? std::string("sweep_bench.wal")
          : (fs::temp_directory_path() / "wolt_bench_sweep_journal.wal")
                .string();
  fault::MemVfs mem;
  fault::FaultVfs layered(mem, fault::StorageFaultParams{}, /*seed=*/0);
  sweep::SweepOptions options;
  options.threads = static_cast<int>(state.range(0));
  options.journal_path = path;
  options.vfs = vfs_mode == 0 ? nullptr
                              : (vfs_mode == 1 ? static_cast<io::Vfs*>(&mem)
                                               : &layered);
  double aggregate = 0.0;
  for (auto _ : state) {
    sweep::SweepEngine engine(options);
    const sweep::SweepResult result = engine.Run(grid);
    aggregate = result.groups[0].aggregate_mbps.Mean();
    benchmark::DoNotOptimize(aggregate);
  }
  if (vfs_mode == 0) fs::remove(path);
  state.counters["tasks"] = static_cast<double>(grid.NumTasks());
  state.counters["mean_aggregate_mbps"] = aggregate;
}
BENCHMARK(BM_SweepThroughputJournal)
    ->ArgNames({"threads", "vfs"})
    ->Args({1, 1})
    ->Args({1, 2})
    ->Args({4, 0})
    ->Args({4, 1})
    ->Args({4, 2})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): --trace=/--metrics= are consumed
// by the ObsSession and stripped before google-benchmark's flag parser (which
// rejects unknown flags) sees argv.
int main(int argc, char** argv) {
  wolt::bench::ObsSession obs(argc, argv);
  wolt::bench::ObsSession::Strip(argc, argv);
  // Build-type provenance for recorded runs: bench/run_benches.sh refuses
  // to record anything but a Release build unless --allow-debug is passed.
#ifdef WOLT_BENCH_BUILD_TYPE
  benchmark::AddCustomContext("wolt_build_type", WOLT_BENCH_BUILD_TYPE);
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
