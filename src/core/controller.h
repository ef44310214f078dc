// The Central Controller (CC) runtime of §V-A.
//
// In the paper's deployment, WOLT runs as a user-space utility: a client
// that wants to associate scans the reachable extenders, estimates each
// link's rate from the NIC's MCS report, and sends the measurements to the
// CC; the CC knows every PLC link's (offline-estimated) capacity and every
// existing association, computes the assignment, and answers with
// association directives (the client initially camps on the best-RSSI
// extender and switches if directed). This module implements that control
// plane: stable external user ids over a mutating Network, message types
// with a line-based wire encoding, and directive diffing so clients are
// only told to move when their extender actually changed.
//
// The control plane is hardened for a lossy wire (see fault/plane.h and
// DESIGN.md "Failure semantics and the fault plane"):
//   * Decoders never throw; malformed bytes — NaN/Inf/negative rates,
//     overflowing ids, trailing garbage, duplicate keys — yield nullopt.
//   * Handlers never throw on bad *messages*; they return a typed
//     HandleStatus instead (constructor misuse still throws: that is a
//     programming error, not a wire fault).
//   * Directives are retried with capped exponential backoff until acked;
//     re-delivery is idempotent on both ends.
//   * Measurements are timestamped; a user whose scans stop arriving keeps
//     its last-known-good rates (and its association) until the staleness
//     eviction threshold, so a lost scan never drops a live user.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/policy.h"
#include "model/evaluator.h"
#include "model/network.h"

namespace wolt::util {
class ByteCursor;
class Deadline;
}  // namespace wolt::util

namespace wolt::core {

// --- Wire messages -------------------------------------------------------

// Client -> CC: measurement report of a (new or existing) user.
struct ScanReport {
  std::int64_t user_id = 0;
  std::vector<double> rates_mbps{};  // per extender; 0 = unreachable
  std::vector<double> rssi_dbm{};    // optional; empty or per extender
  // Optional: the extender the client is actually camped on (-1 = none).
  // Lets the CC reconcile its believed association against reality after
  // directives were lost on the wire.
  std::optional<int> associated_extender{};
  // Optional: the client's current offered load in Mbit/s (0 = saturated).
  // Carried by dynamic workload traces so diurnal/bursty demand curves reach
  // the evaluator; absent = leave the user's stored demand untouched.
  std::optional<double> demand_mbps{};
};

// CC -> client: associate with this extender.
struct AssociationDirective {
  std::int64_t user_id = 0;
  int extender = 0;
};

// Client -> CC: directive received and applied.
struct DirectiveAck {
  std::int64_t user_id = 0;
  int extender = 0;
};

// Client -> CC: clean goodbye. (May be lost; staleness eviction is the
// backstop that reaps ghost users.)
struct DepartureNotice {
  std::int64_t user_id = 0;
};

// Probe -> CC: offline PLC capacity estimate for one extender (§V-A).
struct CapacityReport {
  int extender = 0;
  double capacity_mbps = 0.0;
};

// Line-based wire format, e.g.
//   SCAN user=7 rates=10.5,0,32.5 rssi=-70.1,-90.0,-60.2 assoc=2
//   DIRECTIVE user=7 extender=2
//   ACK user=7 extender=2
//   DEPART user=7
//   CAPACITY extender=1 mbps=120.5
// Decoders are total: any input — including corrupted bytes — yields either
// a fully validated message (finite values, non-negative rates/capacities,
// in-range ids) or nullopt. They never throw.
std::string Encode(const ScanReport& msg);
std::string Encode(const AssociationDirective& msg);
std::string Encode(const DirectiveAck& msg);
std::string Encode(const DepartureNotice& msg);
std::string Encode(const CapacityReport& msg);
std::optional<ScanReport> DecodeScanReport(const std::string& line);
std::optional<AssociationDirective> DecodeAssociationDirective(
    const std::string& line);
std::optional<DirectiveAck> DecodeDirectiveAck(const std::string& line);
std::optional<DepartureNotice> DecodeDepartureNotice(const std::string& line);
std::optional<CapacityReport> DecodeCapacityReport(const std::string& line);

// --- Controller ----------------------------------------------------------

// Typed rejection of a control message. Handlers return these instead of
// throwing: a malformed or duplicated message from the wire must never be
// able to take the controller down.
enum class HandleStatus {
  kOk = 0,
  kMalformed,        // non-finite/negative fields, wrong extender count
  kDuplicateUser,    // arrival for an id that is already registered
  kUnknownUser,      // update/departure/ack for an id never seen (or evicted)
  kUnknownExtender,  // capacity report for an out-of-range extender
  kIgnoredStale,     // ack for a superseded directive; pending one kept
};
const char* ToString(HandleStatus s);

// Machine-readable fault category behind a HandleStatus — what a fleet
// supervisor keys restart-vs-circuit-break decisions on. The distinction
// matters operationally: wire faults and state conflicts are expected under
// loss/corruption/replay and must never count against a shard's health,
// while a programming error (an exception escaping the controller) is
// evidence the shard's state machine is wedged and a restart is warranted.
enum class ErrorCategory {
  kNone = 0,          // kOk: nothing went wrong
  kWireFault,         // bytes arrived mangled (malformed fields)
  kStateConflict,     // valid message, stale world-view: duplicate arrivals,
                      // unknown ids (evicted/never seen), superseded acks —
                      // the expected residue of a lossy, reordering wire
  kProgrammingError,  // an invariant break, not a wire artefact
};
const char* ToString(ErrorCategory c);
ErrorCategory CategoryOf(HandleStatus s);

struct HandleResult {
  HandleStatus status = HandleStatus::kOk;
  std::vector<AssociationDirective> directives;
  bool ok() const { return status == HandleStatus::kOk; }
  ErrorCategory category() const { return CategoryOf(status); }
};

// Retransmission schedule for unacknowledged directives: exponential
// backoff starting at `initial_backoff`, multiplied per attempt and capped
// at `max_backoff`; after `max_attempts` total sends the directive is
// abandoned (the scan-report reconciliation path re-issues it if the client
// is still live and mismatched).
struct RetryParams {
  double initial_backoff = 1.0;
  double multiplier = 2.0;
  double max_backoff = 8.0;
  int max_attempts = 5;
};

// Which rung of the anytime degradation ladder served a budgeted
// reoptimization epoch (Reoptimize(budget_seconds)). Ordered cheapest-last:
// the controller runs the ladder bottom-up and keeps the best tier that
// completed within the wall-clock budget.
// New tiers append at the end: the value is journal-encoded by the fleet
// runtime, so reordering would corrupt old journals.
enum class ReoptTier {
  kFull = 0,        // the configured policy, full solve
  kHungarianOnly,   // WOLT Phase I only (no local search), sticky Phase II
  kGreedy,          // greedy re-insertion of evacuated users only
  kHoldLastGood,    // previous assignment, dead-backhaul users evacuated
  kJoint,           // joint association + channel recolouring (SetJointMode)
};
const char* ToString(ReoptTier t);

// Virtual-unit cost of one reoptimization at each ladder rung — the
// deterministic budget currency shared by the fleet scheduler and the
// workload frontier sweeps (wall-clock budgets are not reproducible across
// hosts, so budgeted-but-deterministic paths price tiers in these units).
std::size_t TierCost(ReoptTier tier);

// The best rung affordable with `units` budget units: the most expensive
// tier whose TierCost fits. units <= 0 means unbudgeted — the full solve
// (kJoint when joint mode is on). kJoint is only returned with
// joint_enabled, since the tier is inert without a channel plan.
ReoptTier TierForBudgetUnits(int units, bool joint_enabled = false);

// Outcome of one budgeted reoptimization epoch.
struct ReoptReport {
  ReoptTier tier = ReoptTier::kFull;  // the rung that served this epoch
  // True when the budget expired before the full policy finished — i.e. a
  // degraded tier (or hold-last-good) served the epoch.
  bool budget_limited = false;
  std::vector<AssociationDirective> directives;
};

// Flap quarantine (hysteresis on backhaul capacity oscillation). A PLC link
// whose capacity reports cross the up/down boundary `flap_threshold` or
// more times within `window` time units is quarantined: the controller
// plans as if the link were down (PLC rate forced to 0) until the link has
// been flap-free for `hold` time units, then the last reported capacity is
// restored. flap_threshold = 0 (the default) disables quarantine entirely,
// preserving pre-existing behavior.
struct QuarantineParams {
  int flap_threshold = 0;  // up<->down transitions that trip; 0 = off
  double window = 10.0;    // sliding window the transitions are counted in
  double hold = 30.0;      // flap-free time required before release
};

// Joint association + channel assignment mode (ReoptTier::kJoint). With
// num_channels > 0 the controller maintains a committed per-extender channel
// plan: every quality comparison (do-no-harm guard, CurrentAggregate) scores
// under the overlap model of that plan, and the kJoint ladder rung — the new
// top of the budgeted ladder — runs assign::SolveJointAlternating to propose
// a (re-association, recolouring) pair that is committed atomically on
// adoption. num_channels = 0 (the default) disables the tier and preserves
// pre-existing behavior bit-for-bit.
struct JointModeParams {
  int num_channels = 0;  // orthogonal channels available; 0 = joint mode off
  double carrier_sense_range_m = 60.0;  // co-channel contention radius
  int max_rounds = 4;  // alternating rounds per solve (recolour+reassociate)
};

class CentralController {
 public:
  // Takes ownership of the association policy (WOLT in the paper; any
  // AssociationPolicy works). Throws std::invalid_argument on zero
  // extenders or a null policy (construction bugs, not wire input).
  CentralController(std::size_t num_extenders, PolicyPtr policy,
                    RetryParams retry = {}, QuarantineParams quarantine = {});

  // Advance the controller's monotonic clock (time units are the caller's;
  // the dynamic simulator uses DES time). Staleness ages and retry backoff
  // are measured against this clock. Never moves backwards.
  void AdvanceTime(double now);
  double Now() const { return now_; }

  // Record an offline capacity estimate for one extender.
  HandleStatus HandleCapacityReport(const CapacityReport& report);

  // A new user reports its scan. Runs the policy; the result carries
  // directives for every user whose extender changed (including the new
  // user). Duplicate ids and malformed reports are rejected via status,
  // leaving the controller state untouched.
  HandleResult HandleUserArrival(const ScanReport& report);

  // An existing user refreshes its measurements (mobility). The policy is
  // re-run; the result carries directives for every moved user. If the
  // report names the client's actual extender and it disagrees with the
  // controller's believed association, the believed directive is re-issued
  // (reconciliation after lost directives).
  HandleResult HandleScanUpdate(const ScanReport& report);

  // Trace-replay ingestion: apply a scan (arrival or refresh) WITHOUT
  // running the association policy. New users are registered unassigned and
  // existing users get their measurements refreshed (same unreachable-
  // extender unassignment rule as HandleScanUpdate, but no reconciliation
  // and no directives) — the epoch boundary's Reoptimize*() call places
  // everyone in one solve instead of one policy run per trace event.
  // Validation and statuses match the per-event handlers.
  HandleStatus IngestScan(const ScanReport& report);

  // A user disconnected. No directives result (remaining users keep their
  // extenders until the next arrival/update/reoptimize).
  HandleStatus HandleUserDeparture(std::int64_t user_id);

  // A client confirmed a directive. Duplicate acks are idempotent (kOk);
  // acks for a superseded directive are ignored (kIgnoredStale).
  HandleStatus HandleDirectiveAck(const DirectiveAck& ack);

  // Re-run the policy over the current state (the epoch-boundary action of
  // the dynamic experiments).
  std::vector<AssociationDirective> Reoptimize();

  // Deadline-bounded epoch reoptimization: spend at most `budget_seconds`
  // of wall clock and always return a valid assignment. The degradation
  // ladder runs cheapest-first — hold-last-good (with dead-backhaul users
  // evacuated), greedy re-insertion, WOLT Phase I + sticky Phase II, then
  // the full configured policy — and each rung only starts while budget
  // remains and only serves if it finished within budget. Inside a rung the
  // deadline token is threaded into the solvers, which poll it per bounded
  // unit of work, so overrun past the budget is at most one such unit. The
  // do-no-harm guard of Reoptimize() applies to the final selection. A
  // non-positive budget degenerates to hold-last-good. A generous budget
  // (one the full policy fits in) produces exactly Reoptimize()'s result.
  ReoptReport Reoptimize(double budget_seconds);

  // Clock-free epoch reoptimization at one explicit ladder rung. This is the
  // deterministic sibling of Reoptimize(budget_seconds): the fleet runtime's
  // virtual-budget scheduler picks the tier, so the outcome is a pure
  // function of controller state (no wall clock involved), which is what
  // makes fleet runs byte-identical across thread counts and across
  // crash/resume. The do-no-harm guard still applies, so the report's tier
  // can demote to kHoldLastGood on quality grounds; budget_limited is true
  // iff a tier below kFull was requested or the guard demoted.
  ReoptReport ReoptimizeAtTier(ReoptTier tier);

  // Clock-free cumulative ladder: solve every rung whose TierCost fits
  // within `top`'s cost and commit the best-scoring candidate (ties go to
  // the cheaper rung, which holds more users in place). Because the
  // candidate set at a larger budget is a superset of the set at any
  // smaller one, the committed aggregate — and therefore regret against a
  // fixed per-epoch oracle — is monotone in the budget, which is the
  // contract the trace-frontier sweep measures. ReoptimizeAtTier() by
  // contrast runs exactly one solver and only guards against the
  // hold-last-good baseline.
  ReoptReport ReoptimizeUpToTier(ReoptTier top);

  // Directives due for retransmission at Now(), in user-id order. Each
  // returned directive has its attempt count bumped and its backoff
  // doubled (capped); exhausted directives are abandoned instead and
  // counted in DirectivesGivenUp().
  std::vector<AssociationDirective> CollectRetries();

  // Remove every user whose last accepted scan is older than `max_age`
  // (ghost users whose departure notice was lost). Returns evicted ids.
  std::vector<std::int64_t> EvictStale(double max_age);

  // Current association of a user, if known and associated.
  std::optional<int> ExtenderOf(std::int64_t user_id) const;
  bool KnowsUser(std::int64_t user_id) const;
  std::vector<std::int64_t> UserIds() const;

  // Age of a user's last accepted scan / an extender's last accepted
  // capacity report; +infinity when never seen.
  double ScanAge(std::int64_t user_id) const;
  double CapacityAge(int extender) const;

  std::size_t PendingDirectives() const { return pending_.size(); }
  std::size_t DirectivesGivenUp() const { return given_up_; }

  // Flap-quarantine introspection. IsQuarantined is false for out-of-range
  // extenders and always false when quarantine is disabled.
  bool IsQuarantined(int extender) const;
  std::size_t QuarantineTrips() const { return quarantine_trips_; }
  std::size_t QuarantineReleases() const { return quarantine_releases_; }

  std::size_t NumUsers() const { return net_.NumUsers(); }
  const model::Network& network() const { return net_; }
  const model::Assignment& assignment() const { return assignment_; }

  // Enable (num_channels > 0) or disable (0) joint channel-assignment mode.
  // Throws std::invalid_argument on negative num_channels/max_rounds or a
  // non-positive carrier-sense range. Disabling clears the committed plan.
  void SetJointMode(JointModeParams params);
  const JointModeParams& joint_mode() const { return joint_; }
  // The committed per-extender channel plan; empty until a kJoint epoch has
  // been adopted (or after RestoreState of a controller that had one).
  const std::vector<int>& ChannelPlan() const { return channel_plan_; }

  // Aggregate throughput of the current association under the physical
  // evaluation model. Reuses the controller's evaluation scratch, so like
  // every other member it must not run concurrently on one controller.
  double CurrentAggregate() const;

  // Crash-safe state snapshot: appends every field that affects future
  // behaviour (network rates, association, ids, staleness clocks, pending
  // directives, quarantine bookkeeping) to `out`, encoded via util/codec.h
  // with bit-exact doubles. The policy and the construction parameters are
  // deliberately NOT captured: restore into a controller constructed with
  // the same (num_extenders, policy, retry, quarantine).
  void SaveState(std::string* out) const;
  // Replaces this controller's state wholesale from a SaveState cursor
  // position. Returns false — leaving the controller untouched — on a
  // malformed blob or an extender-count mismatch. A restored controller is
  // bit-identical in behaviour to the one that saved (the fleet resume
  // contract).
  bool RestoreState(util::ByteCursor* cur);

 private:
  struct PendingDirective {
    int extender = 0;
    int attempts = 0;       // sends so far (including the first)
    double next_retry = 0;  // absolute controller time
  };

  // Per-extender flap-quarantine bookkeeping (see QuarantineParams).
  struct FlapState {
    int last_up = -1;               // -1 unknown, 0 down, 1 up
    std::vector<double> flips;      // transition times within the window
    bool quarantined = false;
    double release_at = 0.0;        // earliest release time (controller time)
    double held_capacity = 0.0;     // last reported capacity, restored on release
  };

  HandleStatus ValidateScan(const ScanReport& report) const;
  void ApplyReport(std::size_t index, const ScanReport& report);
  // One rung of the degradation ladder: propose an assignment at `tier`,
  // threading `deadline` (nullable) into the solvers. Shared by the budgeted
  // ladder walk and the clock-free ReoptimizeAtTier.
  model::Assignment SolveTier(ReoptTier tier, const util::Deadline* deadline,
                              const model::Assignment& before,
                              const model::Assignment& evacuate);
  // Scoring options under a channel plan: default EvalOptions with `plan`
  // installed as wifi_channel (empty plan = the plan-free physical model).
  model::EvalOptions PlanEval(const std::vector<int>& plan) const;
  // Aggregate throughput of `assign` on net_ under PlanEval(plan),
  // evaluated into the held scratch: bit-identical to a fresh Evaluator.
  double ScoreUnder(const std::vector<int>& plan,
                    const model::Assignment& assign) const;
  // guard=true (epoch reoptimization) arms the do-no-harm fallback check.
  std::vector<AssociationDirective> RunPolicy(bool guard = false);
  void RegisterDirective(const AssociationDirective& d);
  void RemoveUserAt(std::size_t index);
  // The hold-last-good baseline: the current assignment with every user on
  // a dead (or quarantined) backhaul unassigned.
  model::Assignment EvacuationFallback() const;
  // Adopt `proposed` and emit+register a directive for every user whose
  // extender changed relative to `before` (which may be assignment_).
  std::vector<AssociationDirective> DiffAndRegister(
      const model::Assignment& before, model::Assignment proposed);

  model::Network net_;
  model::Assignment assignment_;
  PolicyPtr policy_;
  RetryParams retry_;
  QuarantineParams quarantine_;
  double now_ = 0.0;
  std::size_t given_up_ = 0;
  std::size_t quarantine_trips_ = 0;
  std::size_t quarantine_releases_ = 0;
  std::vector<std::int64_t> id_of_index_;
  std::vector<double> last_scan_;      // by index, controller time
  std::vector<double> last_capacity_;  // by extender, -inf = never
  std::vector<FlapState> flap_;        // by extender
  std::unordered_map<std::int64_t, std::size_t> index_of_id_;
  std::unordered_map<std::int64_t, PendingDirective> pending_;
  JointModeParams joint_;
  std::vector<int> channel_plan_;   // committed plan; empty = none
  std::vector<int> proposed_plan_;  // SolveTier(kJoint) scratch output
  // Evaluation workspace for ScoreUnder; its cached network view is keyed
  // on (&net_, net_.Version()), so net_ mutations invalidate it.
  mutable model::EvalScratch eval_scratch_;
};

}  // namespace wolt::core
