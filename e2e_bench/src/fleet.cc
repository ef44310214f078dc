// fleet-chaos: the fleet runtime's round loop under wire chaos. 64 shards
// of 3 extenders and 5 users run 160 rounds on one thread with loss,
// duplicates and corruption on the wire, PLC crashes, client churn, two
// poisoned shards (restarts and circuit breaks), a bounded queue that sheds,
// a starved reoptimisation budget, and the journal on a fault::MemVfs.
// The solves are tiny: the time goes to the codec, queue, supervisor, the
// serial round phases and the journal and snapshot writes.
//
// An op is one fleet round including its journal records and snapshot,
// timed from outside by stamping the journal's after-append hook: every
// round appends one record per shard, one fleet record and one snapshot.
#include <algorithm>
#include <cmath>
#include <memory>

#include "fault/storage.h"
#include "fleet/runtime.h"
#include "obs/obs.h"
#include "recover/fleet_journal.h"
#include "util/rng.h"
#include "workloads.h"

namespace e2e {
namespace {

using namespace wolt;

constexpr std::size_t kShards = 64;
constexpr std::uint64_t kRounds = 160;
constexpr std::size_t kAppendsPerRound = kShards + 2;
constexpr const char* kJournal = "fleet.wal";

fleet::FleetParams Params() {
  fleet::FleetParams p;
  p.num_shards = kShards;
  p.rounds = kRounds;
  p.threads = 1;
  p.queue_capacity = kShards * 6;  // mild overload: the queue sheds
  p.batch_per_shard = 8;
  p.chaos_from = 1;
  p.chaos_to = kRounds;
  fault::WireFaults w;
  w.loss = 0.05;
  w.duplicate = 0.05;
  w.corrupt = 0.1;
  p.shard.wire = fault::FaultPlaneParams::Uniform(w);
  p.shard.plc_crash_prob = 0.05;
  p.shard.departure_prob = 0.05;
  p.poison_shards = {7, 41};
  p.poison_from = 30;
  p.poison_to = 50;
  p.reopt_units_per_round = kShards + 2;  // starved ladder scheduling
  p.journal_path = kJournal;
  p.snapshot_every = 1;
  return p;
}

// One run of the fleet with fresh state (new runtime, new MemVfs). The
// journal hook stamps every append when `all_appends`, else only the header
// and each round's last append (its snapshot).
struct FleetRun {
  std::unique_ptr<fault::MemVfs> vfs;
  std::vector<std::int64_t> stamps;
  std::size_t appends = 0;
  fleet::FleetResult result;
  std::string final_state;
};

void RunFleet(std::uint64_t seed, bool all_appends, FleetRun* run) {
  run->stamps.clear();
  run->stamps.reserve(all_appends ? 1 + kRounds * kAppendsPerRound
                                  : 1 + kRounds);
  run->vfs.reset();  // free the previous replay's journal first
  run->vfs = std::make_unique<fault::MemVfs>();
  fleet::FleetParams p = Params();
  p.vfs = run->vfs.get();
  p.after_journal_append = [run, all_appends](std::size_t n) {
    run->appends = n;
    if (all_appends || (n - 1) % kAppendsPerRound == 0) {
      run->stamps.push_back(NowNs());
    }
  };
  fleet::FleetRuntime runtime(p, util::HashCombine64(seed, 0xF1EE7));
  run->result = runtime.Run();
  run->final_state.clear();
  runtime.SaveState(&run->final_state);
}

// Append n of the journal is the header (n = 1), then round r's records
// (n = 2 + r*k ... 1 + (r+1)*k, shards first, then the fleet record, then
// the snapshot). Boundary(r) is the stamp that starts round r: the header
// for round 0, the previous round's snapshot after that.
std::int64_t Boundary(const FleetRun& run, std::uint64_t r, bool all_appends) {
  return run.stamps[all_appends ? r * kAppendsPerRound : r];
}

std::vector<double> RoundTimes(const FleetRun& run, bool all_appends) {
  std::vector<double> out;
  for (std::uint64_t r = 0; r < kRounds; ++r) {
    out.push_back(NsToUs(Boundary(run, r + 1, all_appends) -
                         Boundary(run, r, all_appends)));
  }
  return out;
}

std::uint64_t CheckRun(const FleetRun& run) {
  const fleet::FleetResult& r = run.result;
  Check(r.completed && !r.cancelled, "fleet run did not complete");
  Check(r.isolation_ok, "fleet isolation invariant broken");
  Check(r.accounting_ok, "fleet queue accounting invariant broken");
  Check(r.degraded_held_ok, "fleet degraded-hold invariant broken");
  Check(!r.journal_degraded, "fleet journal degraded");
  Check(run.appends == 1 + kRounds * kAppendsPerRound,
        Format("journal appends %zu, expected %zu per round", run.appends,
               kAppendsPerRound));
  Digest d;
  d.Add(r.Report());
  return d.value();
}

struct Totals {
  double enqueued = 0, delivered = 0, shed = 0, processed = 0;
  double decode_rejects = 0, directives = 0, scheduled = 0;
  double peak_depth = 0, aggregate_sum = 0;
  double tier[4] = {0, 0, 0, 0};
};

Totals Tally(const fleet::FleetResult& r) {
  Totals t;
  for (const recover::FleetRoundRecord& f : r.fleet_records) {
    t.enqueued += static_cast<double>(f.enqueued);
    t.delivered += static_cast<double>(f.delivered);
    t.shed += static_cast<double>(f.shed);
    t.scheduled += static_cast<double>(f.reopt_scheduled);
    t.peak_depth = std::max(t.peak_depth, static_cast<double>(f.backlog));
  }
  for (const recover::ShardRoundRecord& s : r.shard_records) {
    t.processed += static_cast<double>(s.processed);
    t.decode_rejects += static_cast<double>(s.decode_rejects);
    t.directives += static_cast<double>(s.directives);
    t.aggregate_sum += s.truth_aggregate;
    if (s.tier >= 0 && s.tier < 4) t.tier[s.tier] += 1;
  }
  return t;
}

}  // namespace

Result RunFleetChaos(const RunConfig& cfg) {
  std::uint64_t digest = 0;
  FleetRun ref;
  const double setup_s = BestSetup(1, [&](int i) {
    RunFleet(cfg.seed, false, &ref);
    const std::uint64_t d = CheckRun(ref);
    if (i == 0) digest = d;
    Check(d == digest, "set-ups disagree on the reference digest");
    const recover::FleetJournalReadResult read =
        recover::ReadFleetJournal(kJournal, ref.vfs.get());
    Check(read.ok && read.has_checkpoint, "fleet journal has no checkpoint");
    Check(read.checkpoint_round == kRounds - 1,
          "fleet journal's last checkpoint is not the final round");
    Check(read.checkpoint_blob == ref.final_state,
          "fleet journal checkpoint differs from the final fleet state");
    Check(read.shard_records.size() == kRounds * kShards &&
              read.fleet_records.size() == kRounds,
          "fleet journal lost or duplicated records");
  });
  ref.vfs.reset();  // the reference journal is not needed past set-up
  const Totals tot = Tally(ref.result);
  const std::size_t n = kRounds;

  Result res;
  res.detail.push_back(Format(
      "fleet-chaos: %zu shards x %llu rounds, %.0f enqueued, %.0f delivered, "
      "%.0f shed, %llu restarts, %llu circuit breaks, reference digest %016llx",
      kShards, static_cast<unsigned long long>(kRounds), tot.enqueued,
      tot.delivered, tot.shed,
      static_cast<unsigned long long>(ref.result.restarts),
      static_cast<unsigned long long>(ref.result.circuit_breaks),
      static_cast<unsigned long long>(digest)));

  const double plain_seconds = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  BestOfR plain(n);
  auto run = std::make_unique<FleetRun>();
  const std::size_t replays =
      ReplayFor(plain_seconds, kMinReplays, 1, [&](std::size_t) {
        RunFleet(cfg.seed, false, run.get());
        Check(CheckRun(*run) == digest, "fleet replay diverged from the reference");
        const std::vector<double> rounds = RoundTimes(*run, false);
        plain.Fold(rounds);
        return Sum(rounds);
      });
  res.attempted = replays * n;
  res.detail.push_back(LatencyLine(plain));

  if (!cfg.trace) {
    const double throughput = tot.delivered / (Sum(plain.best()) / 1e6);
    const double aggregate = tot.aggregate_sum / static_cast<double>(kRounds);
    AddEndToEnd(&res, setup_s, plain.best(), throughput, aggregate,
                tot.processed / tot.enqueued);
    return res;
  }

  // Allocation counts come from one untimed replay of their own: counting
  // costs time on every allocation.
  AllocCountStart();
  RunFleet(cfg.seed, false, run.get());
  const AllocTally allocs = AllocCountStop();
  Check(CheckRun(*run) == digest, "fleet replay diverged from the reference");

  BestOfR b_round(n), b_compute(n), b_records(n), b_snapshot(n);
  SpanLog spans;
  obs::MetricsSnapshot snapshot;
  const std::size_t traced =
      ReplayFor(cfg.seconds / 2, kMinReplays, 1, [&](std::size_t r) {
        obs::MetricsRegistry registry;
        {
          obs::ScopedMetrics scope(registry);
          RunFleet(cfg.seed, true, run.get());
        }
        Check(CheckRun(*run) == digest,
              "traced fleet replay diverged from the reference");
        const obs::MetricsSnapshot snap = registry.Snapshot();
        if (r == 0) snapshot = snap;
        Check(snap.DeterministicJson() == snapshot.DeterministicJson(),
              "traced replays disagree on the obs counters");
        std::vector<double> round_us(n), compute(n), records(n), snap_us(n);
        spans.Clear();
        for (std::uint64_t k = 0; k < kRounds; ++k) {
          const std::int64_t a = Boundary(*run, k, true);
          const std::int64_t b = run->stamps[k * kAppendsPerRound + 1];
          const std::int64_t c = run->stamps[k * kAppendsPerRound + kShards + 1];
          const std::int64_t d = Boundary(*run, k + 1, true);
          round_us[k] = NsToUs(d - a);
          compute[k] = NsToUs(b - a);
          records[k] = NsToUs(c - b);
          snap_us[k] = NsToUs(d - c);
          const auto op = static_cast<std::int64_t>(k);
          const int root = spans.Add("fleet.round", a, d, -1, op);
          spans.Add("fleet.compute", a, b, root, op);
          spans.Add("fleet.records", b, c, root, op);
          spans.Add("fleet.snapshot", c, d, root, op);
        }
        b_round.Fold(round_us);
        b_compute.Fold(compute);
        b_records.Fold(records);
        b_snapshot.Fold(snap_us);
        return Sum(round_us);
      });
  res.attempted += traced * n;

  std::string journal;
  Check(run->vfs->ReadFileBytes(kJournal, &journal).ok(),
        "fleet journal unreadable");
  const double rounds = static_cast<double>(kRounds);
  const double served = std::max(1.0, tot.tier[0] + tot.tier[1] + tot.tier[2] +
                                          tot.tier[3]);
  const double residual = LayerResidual(
      {b_compute.best(), b_records.best(), b_snapshot.best()}, b_round.best());
  Check(std::fabs(residual) <= kLayerTolerance,
        Format("round layers leave %.3f of the op time unexplained", residual));

  res.metrics = {
      {"core.policy_runs_per_msg",
       static_cast<double>(CounterValue(snapshot, "ctrl.policy_runs")) /
           tot.delivered,
       "count"},
      {"core.directives_per_msg", tot.directives / tot.delivered, "count"},
      {"fleet.compute_us", Median(b_compute.best()), "us"},
      {"fleet.records_us", Median(b_records.best()), "us"},
      {"fleet.snapshot_us", Median(b_snapshot.best()), "us"},
      {"fleet.delivered_per_round", tot.delivered / rounds, "count"},
      {"fleet.shed_per_round", tot.shed / rounds, "count"},
      {"fleet.decode_rejects_per_round", tot.decode_rejects / rounds, "count"},
      {"fleet.restarts_per_round",
       static_cast<double>(ref.result.restarts) / rounds, "count"},
      {"fleet.peak_depth", tot.peak_depth, "count"},
      {"fleet.reopt_scheduled_per_round", tot.scheduled / rounds, "count"},
      {"fleet.tier.full", tot.tier[0] / served, "ratio"},
      {"fleet.tier.hungarian", tot.tier[1] / served, "ratio"},
      {"fleet.tier.greedy", tot.tier[2] / served, "ratio"},
      {"fleet.tier.hold", tot.tier[3] / served, "ratio"},
      {"recover.fleet_bytes_per_round",
       static_cast<double>(journal.size()) / rounds, "bytes"},
      {"alloc.per_op", static_cast<double>(allocs.count) / rounds, "count"},
      {"alloc.bytes_per_op", static_cast<double>(allocs.bytes) / rounds,
       "bytes"},
      {"layer_residual", residual, "ratio"},
  };
  AddSolverMetrics(&res, snapshot, rounds);
  AddTraceDiagnostics(&res, plain, b_round);
  WriteLayerArtefacts(cfg, spans, res);
  return res;
}

}  // namespace e2e
