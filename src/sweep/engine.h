// Work-sharded parallel experiment engine: executes every point of a
// SweepGrid on a fixed-size thread pool (chunked work-stealing) and merges
// the results into per-configuration statistics in task-index order, so an
// N-thread run is bit-identical to the 1-thread run.
//
// Determinism contract (tested by tests/sweep_determinism_test.cc):
//  * each task's RNG is a splitmix-jump substream of the grid's master seed
//    keyed by grid coordinates — thread identity and completion order never
//    enter the derivation;
//  * each task writes only its own index-addressed result slot;
//  * group accumulators are folded strictly in task-index order after the
//    pool drains, never concurrently.
// Per-task wall-clock timings are recorded for profiling but excluded from
// reporters by default — they are the only thread-count-dependent output.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "io/vfs.h"
#include "model/evaluator.h"
#include "obs/metrics.h"
#include "sim/runner.h"
#include "sweep/grid.h"
#include "util/stats.h"

namespace wolt::sweep {

struct SweepOptions {
  int threads = 1;
  // Work-stealing chunk size in tasks; 0 = auto (~8 chunks per executor).
  std::size_t chunk = 0;
  // Evaluation options shared by every task; plc_sharing is overridden by
  // the task's sharing-axis value.
  model::EvalOptions eval{};
  // Test hook, called on the executing thread immediately before each task
  // body runs. Used by the determinism test to perturb completion order;
  // must not touch engine state.
  std::function<void(std::size_t)> before_task{};
  // Collect structured metrics: each task runs under its own
  // obs::MetricsRegistry (solver/evaluator hooks feed it), snapshots land in
  // TaskResult::metrics, and SweepResult::metrics is their fold in
  // task-index order. The deterministic section of the merged snapshot is
  // byte-identical across thread counts (tests/obs_golden_test.cc).
  bool collect_metrics = false;

  // Crash-safe checkpointing (src/recover/): when non-empty, every completed
  // task's result is appended to this write-ahead journal as it finishes.
  // A sweep killed at any instant can then re-Run with resume=true: tasks
  // already journaled are restored verbatim (their bodies never re-run, the
  // before_task hook is not called for them) and the merged output is
  // byte-identical to an uninterrupted run at any thread count.
  std::string journal_path{};
  // Resume from an existing journal at journal_path. An unreadable or empty
  // journal restarts the sweep fresh (with a stderr warning) — a half-dead
  // journal must never stop the run itself. Run still throws
  // std::runtime_error when the journal was written by a *different* grid
  // (fingerprint/task-count mismatch): that is caller error, not damage.
  // Torn/rotted tail records are truncated; duplicates dedupe first-wins.
  bool resume = false;
  // Journal compaction cadence (rewrite deduped via temp+fsync+rename every
  // N appends); 0 disables compaction.
  std::size_t journal_compact_every = 64;
  // fsync the journal after every append (see JournalWriter::Options).
  bool journal_sync_every_append = false;
  // Test hook: called after the Nth journal append has been flushed. The
  // crash harness SIGKILLs itself in here to die at an exact journal
  // position.
  std::function<void(std::size_t)> after_journal_append{};
  // Storage backend for the journal; nullptr = the real filesystem. The
  // fault-injection harness (src/fault/storage.h) substitutes a FaultVfs.
  io::Vfs* vfs = nullptr;
};

struct TaskResult {
  TaskSpec spec;
  bool completed = false;      // false: cancelled before this task ran
  std::string error;           // non-empty: the task body threw
  double aggregate_mbps = 0.0;
  double jain_fairness = 0.0;
  // Per-user throughput samples accumulated within the task (merged into
  // the group accumulator in task-index order).
  util::Accumulator user_throughput;
  // Frontier columns (dynamic tasks only; all 0 on the static path).
  // aggregate_mbps/jain_fairness hold the per-epoch means for dynamic
  // tasks; user_throughput holds the final epoch's per-user samples.
  double oracle_mbps = 0.0;  // mean per-epoch frozen-snapshot optimum
  double regret = 0.0;       // mean relative regret vs that oracle
  double reassoc_per_user_epoch = 0.0;  // stickiness metric
  std::uint64_t quarantine_trips = 0;
  double elapsed_us = 0.0;     // informational; thread-count dependent
  // Per-task metrics snapshot (empty unless SweepOptions::collect_metrics).
  obs::MetricsSnapshot metrics;
};

// Merged statistics for one configuration (all replicate seeds of one
// (users, extenders, sharing, policy) point, folded in task-index order).
struct GroupStats {
  std::size_t num_users = 0;
  std::size_t num_extenders = 0;
  model::PlcSharing sharing = model::PlcSharing::kMaxMinActive;
  PolicyKind policy = PolicyKind::kWolt;
  int num_channels = 0;  // channel-plan axis value (0 = orthogonal)
  // Dynamic-workload coordinates of the configuration (axis defaults for
  // static grids).
  sim::MobilityModel mobility = sim::MobilityModel::kStatic;
  double churn_rate = 0.0;
  sim::LoadCurve load = sim::LoadCurve::kConstant;
  int reopt_budget = 0;

  util::Accumulator aggregate_mbps;  // one sample per completed replicate
  util::Accumulator jain;
  util::Accumulator user_throughput;  // all users of all replicates
  // Frontier statistics (all-zero samples on static configurations).
  util::Accumulator oracle_mbps;
  util::Accumulator regret;
  util::Accumulator reassoc;  // reassociations per user-epoch
};

struct SweepResult {
  std::vector<TaskResult> tasks;   // indexed by task index
  std::vector<GroupStats> groups;  // indexed by config index
  bool cancelled = false;
  double wall_seconds = 0.0;       // informational
  // Tasks restored from the journal instead of executed (resume runs only).
  std::size_t resumed_tasks = 0;
  // The journal writer hit an I/O failure and disabled itself mid-run; the
  // results are complete but the journal is not resumable past that point.
  bool journal_degraded = false;
  // Fold of every completed task's snapshot in task-index order, plus
  // engine-level scheduling telemetry (timing-flagged). Empty unless
  // SweepOptions::collect_metrics.
  obs::MetricsSnapshot metrics;
};

class SweepEngine {
 public:
  explicit SweepEngine(SweepOptions options = {});

  // Runs every task of `grid`. Throws std::invalid_argument on an empty
  // axis. Reentrant: Run may be called repeatedly; Cancel affects only the
  // run in flight (reset at the start of each run).
  SweepResult Run(const SweepGrid& grid);

  // Signals the in-flight Run to stop claiming work. Already-started tasks
  // finish; the returned SweepResult has cancelled=true and the unrun
  // tasks' completed=false.
  void Cancel() { cancel_.store(true, std::memory_order_relaxed); }

  const SweepOptions& options() const { return options_; }

 private:
  SweepOptions options_;
  std::atomic<bool> cancel_{false};
};

// Regroups a sweep over a single (users, extenders, sharing) point into the
// sequential runner's PolicyTrials shape — one entry per policy-axis value,
// trials ordered by replicate seed — so existing figure drivers (CDFs,
// paired win counts, CompareUsers) port unchanged. Throws if the grid has
// more than one users/extenders/sharing value or the run was cancelled.
std::vector<sim::PolicyTrials> ToPolicyTrials(const SweepGrid& grid,
                                              const SweepResult& result);

}  // namespace wolt::sweep
