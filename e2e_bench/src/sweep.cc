// sweep-static: the Fig. 6a grid on the parallel sweep engine — users
// {36, 80, 124} x 15 extenders x {WOLT, Greedy, RSSI} x 64 replicate seeds
// on two threads, with the sweep journal on a fault::MemVfs. WOLT runs fresh
// multi-start solves here (sticky incremental ones in building-mobile), and
// Greedy takes most of the task time.
//
// An op is one sweep task; its time is the engine's per-task wall time.
// Throughput is tasks over the summed per-task best-of-R times divided by
// the thread count. (The best replay's wall time needs both threads quiet
// for a whole replay at once; across seeds it spread 0.13 of its median.)
#include <algorithm>
#include <map>
#include <memory>
#include <mutex>

#include "fault/storage.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "sweep/engine.h"
#include "sweep/grid.h"
#include "workloads.h"

namespace e2e {
namespace {

using namespace wolt;

constexpr std::size_t kReplicates = 64;
constexpr int kThreads = 2;
constexpr const char* kJournal = "sweep.wal";

sweep::SweepGrid Grid(std::uint64_t seed) {
  sweep::SweepGrid g;
  g.master_seed = seed;
  g.SeedRange(kReplicates);
  g.users = {36, 80, 124};
  g.extenders = {15};
  g.sharing = {model::PlcSharing::kMaxMinActive};
  g.policies = {sweep::PolicyKind::kWolt, sweep::PolicyKind::kGreedy,
                sweep::PolicyKind::kRssi};
  return g;
}

struct SweepRun {
  std::unique_ptr<fault::MemVfs> vfs;
  sweep::SweepResult result;
  double wall_us = 0.0;
};

// One replay with fresh state: a new engine and a new MemVfs.
void RunSweep(const sweep::SweepGrid& grid, sweep::SweepOptions options,
              SweepRun* run) {
  run->vfs.reset();  // free the previous replay's journal first
  run->vfs = std::make_unique<fault::MemVfs>();
  options.threads = kThreads;
  options.journal_path = kJournal;
  options.vfs = run->vfs.get();
  sweep::SweepEngine engine(options);
  const std::int64_t t0 = NowNs();
  run->result = engine.Run(grid);
  run->wall_us = NsToUs(NowNs() - t0);
}

// Checks the replay and returns its digest: per-task outcomes plus the
// merged group statistics.
std::uint64_t CheckRun(const SweepRun& run) {
  const sweep::SweepResult& r = run.result;
  Check(!r.cancelled, "sweep was cancelled");
  Check(!r.journal_degraded, "sweep journal degraded");
  Digest d;
  for (const sweep::TaskResult& t : r.tasks) {
    Check(t.completed && t.error.empty(),
          Format("sweep task %zu failed: %s", t.spec.index, t.error.c_str()));
    d.AddDouble(t.aggregate_mbps);
    d.AddDouble(t.jain_fairness);
    d.AddU64(t.user_throughput.Count());
  }
  for (const sweep::GroupStats& g : r.groups) {
    d.AddDouble(g.aggregate_mbps.Mean());
    d.AddDouble(g.jain.Mean());
    d.AddDouble(g.user_throughput.Mean());
  }
  return d.value();
}

std::vector<double> TaskTimes(const SweepRun& run) {
  std::vector<double> out;
  for (const sweep::TaskResult& t : run.result.tasks) out.push_back(t.elapsed_us);
  return out;
}

// Task starts seen by the before_task hook, per trace lane, so the engine's
// own spans (sweep.task / sweep.generate / sweep.solve) can be given the
// index of the task they belong to.
struct TaskStarts {
  std::mutex mu;
  std::map<int, std::vector<std::pair<double, std::size_t>>> by_tid;
};

// Maps the engine's spans onto tasks. Writes per-task layer times (µs) and
// the spans of this replay.
void AttributeSpans(const obs::Tracer& tracer, TaskStarts& starts,
                    std::vector<double>* task_us, std::vector<double>* gen_us,
                    std::vector<double>* solve_us, SpanLog* spans) {
  spans->Clear();
  std::vector<int> root_of(task_us->size(), -1);
  const auto to_ns = [](double us) { return static_cast<std::int64_t>(us * 1e3); };
  for (const obs::TraceEvent& ev : tracer.Events()) {
    const char* name = ev.name == "sweep.task"       ? "sweep.task"
                       : ev.name == "sweep.generate" ? "sweep.generate"
                       : ev.name == "sweep.solve"    ? "sweep.solve"
                                                     : nullptr;
    if (name == nullptr) continue;
    const auto& lane = starts.by_tid[ev.tid];
    auto it = std::upper_bound(
        lane.begin(), lane.end(), std::make_pair(ev.ts_us, ~std::size_t{0}));
    Check(it != lane.begin(), "sweep span precedes every task start");
    const std::size_t task = std::prev(it)->second;
    const auto op = static_cast<std::int64_t>(task);
    if (ev.name == "sweep.task") {
      (*task_us)[task] = ev.dur_us;
      root_of[task] = spans->Add(name, to_ns(ev.ts_us), to_ns(ev.ts_us + ev.dur_us),
                                 -1, op, ev.tid);
    } else {
      (ev.name == "sweep.generate" ? *gen_us : *solve_us)[task] = ev.dur_us;
    }
  }
  // Children after roots (the tracer records a span when it ends, so a
  // task's children precede it in the event list).
  for (const obs::TraceEvent& ev : tracer.Events()) {
    if (ev.name != "sweep.generate" && ev.name != "sweep.solve") continue;
    const auto& lane = starts.by_tid[ev.tid];
    auto it = std::upper_bound(
        lane.begin(), lane.end(), std::make_pair(ev.ts_us, ~std::size_t{0}));
    const std::size_t task = std::prev(it)->second;
    spans->Add(ev.name == "sweep.generate" ? "sweep.generate" : "sweep.solve",
               to_ns(ev.ts_us), to_ns(ev.ts_us + ev.dur_us), root_of[task],
               static_cast<std::int64_t>(task), ev.tid);
  }
}

}  // namespace

Result RunSweepStatic(const RunConfig& cfg) {
  const sweep::SweepGrid grid = Grid(cfg.seed);
  const std::size_t n = grid.NumTasks();
  std::uint64_t digest = 0;
  double aggregate = 0.0;
  SweepRun ref;
  const double setup_s = BestSetup(kThreads, [&](int i) {
    RunSweep(grid, {}, &ref);
    const std::uint64_t d = CheckRun(ref);
    if (i == 0) digest = d;
    Check(d == digest, "set-ups disagree on the reference digest");
  });
  ref.vfs.reset();  // the reference journal is not needed past set-up
  for (const sweep::TaskResult& t : ref.result.tasks) aggregate += t.aggregate_mbps;
  aggregate /= static_cast<double>(n);

  Result res;
  res.detail.push_back(Format(
      "sweep-static: %zu tasks on %d threads, reference digest %016llx", n,
      kThreads, static_cast<unsigned long long>(digest)));

  const double plain_seconds = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  BestOfR plain(n);
  SweepRun run;
  const std::size_t replays = ReplayFor(plain_seconds, kMinReplays, kThreads, [&](std::size_t) {
    RunSweep(grid, {}, &run);
    Check(CheckRun(run) == digest, "sweep replay diverged from the reference");
    plain.Fold(TaskTimes(run));
    return run.wall_us;
  });
  res.attempted = replays * n;
  res.detail.push_back(LatencyLine(plain));

  if (!cfg.trace) {
    const double busy_s = Sum(plain.best()) / 1e6 / kThreads;
    AddEndToEnd(&res, setup_s, plain.best(), static_cast<double>(n) / busy_s,
                aggregate, 1.0);
    return res;
  }

  BestOfR b_task(n), b_gen(n), b_solve(n);
  // Allocation counts come from one untimed, untraced replay of their own:
  // counting costs time on every allocation.
  AllocCountStart();
  RunSweep(grid, {}, &run);
  const AllocTally allocs = AllocCountStop();
  Check(CheckRun(run) == digest, "sweep replay diverged from the reference");

  SpanLog spans;
  obs::MetricsSnapshot snapshot;
  std::size_t journal_bytes = 0;
  const std::size_t traced = ReplayFor(cfg.seconds / 2, kMinReplays, kThreads, [&](std::size_t r) {
    obs::Tracer tracer;
    TaskStarts starts;
    sweep::SweepOptions options;
    options.collect_metrics = true;
    options.before_task = [&](std::size_t index) {
      const std::lock_guard<std::mutex> lock(starts.mu);
      starts.by_tid[obs::CurrentTraceTid()].emplace_back(tracer.NowUs(), index);
    };
    obs::Tracer::SetGlobal(&tracer);
    RunSweep(grid, options, &run);
    obs::Tracer::SetGlobal(nullptr);
    Check(CheckRun(run) == digest, "traced sweep replay diverged from the reference");
    obs::MetricsSnapshot snap;
    for (const sweep::TaskResult& t : run.result.tasks) snap.Merge(t.metrics);
    if (r == 0) snapshot = snap;
    Check(snap.DeterministicJson() == snapshot.DeterministicJson(),
          "traced replays disagree on the obs counters");
    std::vector<double> task_us(n, -1.0), gen_us(n, -1.0), solve_us(n, -1.0);
    AttributeSpans(tracer, starts, &task_us, &gen_us, &solve_us, &spans);
    for (std::size_t i = 0; i < n; ++i) {
      Check(task_us[i] >= 0 && gen_us[i] >= 0 && solve_us[i] >= 0,
            Format("sweep task %zu is missing a span", i));
    }
    b_task.Fold(task_us);
    b_gen.Fold(gen_us);
    b_solve.Fold(solve_us);
    std::string journal;
    Check(run.vfs->ReadFileBytes(kJournal, &journal).ok(), "sweep journal unreadable");
    journal_bytes = journal.size();
    return run.wall_us;
  });
  res.attempted += traced * n;

  const double ops = static_cast<double>(n);
  std::vector<bool> is_wolt(n), is_greedy(n), is_rssi(n);
  for (std::size_t i = 0; i < n; ++i) {
    const sweep::PolicyKind k = grid.TaskAt(i).policy;
    is_wolt[i] = k == sweep::PolicyKind::kWolt;
    is_greedy[i] = k == sweep::PolicyKind::kGreedy;
    is_rssi[i] = k == sweep::PolicyKind::kRssi;
  }
  res.metrics = {
      {"recover.sweep_bytes_per_task", static_cast<double>(journal_bytes) / ops,
       "bytes"},
      {"sweep.task_us.wolt", Median(plain.Select(is_wolt)), "us"},
      {"sweep.task_us.greedy", Median(plain.Select(is_greedy)), "us"},
      {"sweep.task_us.rssi", Median(plain.Select(is_rssi)), "us"},
      {"sweep.generate_us", Median(b_gen.best()), "us"},
      {"sweep.solve_us", Median(b_solve.best()), "us"},
      {"alloc.per_op", static_cast<double>(allocs.count) / ops, "count"},
      {"alloc.bytes_per_op", static_cast<double>(allocs.bytes) / ops, "bytes"},
      {"layer_residual", LayerResidual({b_gen.best(), b_solve.best()}, b_task.best()),
       "ratio"},
  };
  AddSolverMetrics(&res, snapshot, ops);
  AddTraceDiagnostics(&res, plain, b_task);
  WriteLayerArtefacts(cfg, spans, res);
  return res;
}

}  // namespace e2e
