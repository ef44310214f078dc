#include "obs/obs.h"

#if WOLT_OBS_ENABLED

namespace wolt::obs {
namespace {

Histogram& LatencyHist(MetricsRegistry& r, std::string_view name) {
  return r.GetHistogram(name, kLatencyBoundsUs, /*timing=*/true);
}

}  // namespace

EvalCounters::EvalCounters(MetricsRegistry& r)
    : evaluations(r.GetCounter("eval.evaluations")),
      bottleneck_wifi(r.GetCounter("eval.bottleneck.wifi")),
      bottleneck_plc(r.GetCounter("eval.bottleneck.plc")),
      bottleneck_balanced(r.GetCounter("eval.bottleneck.balanced")),
      bottleneck_idle(r.GetCounter("eval.bottleneck.idle")),
      dead_backhaul(r.GetCounter("eval.dead_backhaul")),
      maxmin_rounds(r.GetCounter("eval.maxmin_rounds")) {}

SolverCounters::SolverCounters(MetricsRegistry& r)
    : hungarian_solves(r.GetCounter("hungarian.solves")),
      hungarian_augment_steps(r.GetCounter("hungarian.augment_steps")),
      phase1_memo_hits(r.GetCounter("wolt.phase1.memo_hits")),
      solve_memo_hits(r.GetCounter("wolt.solve_memo_hits")),
      relocate_generated(r.GetCounter("ls.relocate.generated")),
      relocate_pruned(r.GetCounter("ls.relocate.pruned")),
      relocate_evaluated(r.GetCounter("ls.relocate.evaluated")),
      relocate_accepted(r.GetCounter("ls.relocate.accepted")),
      swap_generated(r.GetCounter("ls.swap.generated")),
      swap_pruned(r.GetCounter("ls.swap.pruned")),
      swap_evaluated(r.GetCounter("ls.swap.evaluated")),
      swap_accepted(r.GetCounter("ls.swap.accepted")),
      ls_passes(r.GetCounter("ls.passes")),
      ls_memo_skips(r.GetCounter("ls.memo_skips")),
      ls_inserts(r.GetCounter("ls.inserts")),
      nlp_solves(r.GetCounter("nlp.solves")),
      nlp_iterations(r.GetCounter("nlp.iterations")),
      nlp_backtracks(r.GetCounter("nlp.backtracks")),
      arena_grows(r.GetCounter("arena.grows")),
      arena_block_bytes(r.GetCounter("arena.block_bytes")),
      ls_starts(r.GetCounter("ls.starts")),
      ls_parallel_starts(r.GetCounter("ls.parallel_starts")) {}

ControllerCounters::ControllerCounters(MetricsRegistry& r)
    : directives_sent(r.GetCounter("ctrl.directives.sent")),
      directives_retried(r.GetCounter("ctrl.directives.retried")),
      directives_given_up(r.GetCounter("ctrl.directives.given_up")),
      acks(r.GetCounter("ctrl.acks")),
      acks_stale(r.GetCounter("ctrl.acks.stale")),
      evictions(r.GetCounter("ctrl.evictions")),
      reopt_guard_trips(r.GetCounter("ctrl.reopt_guard_trips")),
      policy_runs(r.GetCounter("ctrl.policy_runs")),
      reopt_tier_full(r.GetCounter("ctrl.reopt.tier.full")),
      reopt_tier_hungarian(r.GetCounter("ctrl.reopt.tier.hungarian")),
      reopt_tier_greedy(r.GetCounter("ctrl.reopt.tier.greedy")),
      reopt_tier_hold(r.GetCounter("ctrl.reopt.tier.hold")),
      reopt_tier_joint(r.GetCounter("ctrl.reopt.tier.joint")),
      reopt_budget_overruns(r.GetCounter("ctrl.reopt.budget_overruns")),
      quarantine_trips(r.GetCounter("ctrl.quarantine.trips")),
      quarantine_releases(r.GetCounter("ctrl.quarantine.releases")) {}

JointCounters::JointCounters(MetricsRegistry& r)
    : solves(r.GetCounter("joint.solves")),
      rounds(r.GetCounter("joint.rounds")),
      recolours(r.GetCounter("joint.recolours")),
      improvements(r.GetCounter("joint.improvements")),
      converged(r.GetCounter("joint.converged")),
      deadline_hits(r.GetCounter("joint.deadline_hits")),
      bf_plans(r.GetCounter("joint.bf_plans")) {}

FleetCounters::FleetCounters(MetricsRegistry& r)
    : enqueued(r.GetCounter("fleet.queue.enqueued")),
      delivered(r.GetCounter("fleet.queue.delivered")),
      shed_total(r.GetCounter("fleet.shed.messages")),
      shed_scan(r.GetCounter("fleet.shed.scan")),
      shed_directive(r.GetCounter("fleet.shed.directive")),
      shed_capacity(r.GetCounter("fleet.shed.capacity")),
      shed_ack(r.GetCounter("fleet.shed.ack")),
      shed_departure(r.GetCounter("fleet.shed.departure")),
      dropped_unavailable(r.GetCounter("fleet.dropped.unavailable")),
      restarts(r.GetCounter("fleet.supervisor.restarts")),
      circuit_breaks(r.GetCounter("fleet.supervisor.circuit_breaks")),
      probes(r.GetCounter("fleet.supervisor.probes")),
      reopt_scheduled(r.GetCounter("fleet.reopt.scheduled")),
      reopt_overruns(r.GetCounter("fleet.reopt.overruns")) {}

WorkloadCounters::WorkloadCounters(MetricsRegistry& r)
    : traces(r.GetCounter("workload.traces")),
      events(r.GetCounter("workload.events")),
      arrivals(r.GetCounter("workload.arrivals")),
      departures(r.GetCounter("workload.departures")),
      moves(r.GetCounter("workload.moves")),
      load_updates(r.GetCounter("workload.load_updates")),
      background_updates(r.GetCounter("workload.background_updates")),
      replay_events(r.GetCounter("workload.replay.events")),
      epochs(r.GetCounter("workload.frontier.epochs")),
      oracle_solves(r.GetCounter("workload.oracle.solves")),
      oracle_exact(r.GetCounter("workload.oracle.exact")),
      reassociations(r.GetCounter("workload.frontier.reassociations")) {}

SweepCounters::SweepCounters(MetricsRegistry& r)
    : tasks_completed(r.GetCounter("sweep.tasks.completed")),
      tasks_failed(r.GetCounter("sweep.tasks.failed")),
      task_latency_us(LatencyHist(r, "sweep.task_latency_us")),
      phase_generate_us(LatencyHist(r, "sweep.phase.generate_us")),
      phase_solve_us(LatencyHist(r, "sweep.phase.solve_us")) {}

IoCounters::IoCounters(MetricsRegistry& r)
    : write_errors(r.GetCounter("io.write_errors")),
      write_errors_enospc(r.GetCounter("io.write_errors.enospc")),
      write_errors_eio(r.GetCounter("io.write_errors.eio")),
      write_errors_other(r.GetCounter("io.write_errors.other")),
      retries_eintr(r.GetCounter("io.retries.eintr")),
      short_writes(r.GetCounter("io.short_writes")) {}

RecoverCounters::RecoverCounters(MetricsRegistry& r)
    : journal_io_error(r.GetCounter("recover.journal.io_error")),
      journal_degraded(r.GetCounter("recover.journal.degraded")),
      journal_compact_failed(r.GetCounter("recover.journal.compact_failed")),
      journal_rot_truncated(r.GetCounter("recover.journal.rot_truncated")),
      journal_torn_tail(r.GetCounter("recover.journal.torn_tail")),
      fleet_io_error(r.GetCounter("recover.fleet.io_error")),
      fleet_degraded(r.GetCounter("recover.fleet.degraded")),
      fleet_rot_truncated(r.GetCounter("recover.fleet.rot_truncated")),
      fleet_torn_tail(r.GetCounter("recover.fleet.torn_tail")) {}

}  // namespace wolt::obs

#endif  // WOLT_OBS_ENABLED
