#include "core/controller.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "assign/joint.h"
#include "core/greedy.h"
#include "core/wolt.h"
#include "obs/obs.h"
#include "util/codec.h"
#include "util/deadline.h"

namespace wolt::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string JoinDoubles(const std::vector<double>& xs) {
  std::string out;
  char buf[64];
  for (std::size_t k = 0; k < xs.size(); ++k) {
    if (k) out += ',';
    std::snprintf(buf, sizeof(buf), "%g", xs[k]);
    out += buf;
  }
  return out;
}

// Strict numeric parsers: the whole token must be consumed and the value
// must be finite. std::stod/stoll accept trailing garbage ("12abc" -> 12)
// and throw on overflow; both are wire faults here, so wrap and check.
std::optional<double> ParseDouble(const std::string& s) {
  // Whitelist plain decimal syntax first: stod also accepts hex floats
  // ("0x10"), leading whitespace and nan/inf spellings, none of which are
  // legal on this wire.
  if (s.empty() ||
      s.find_first_not_of("0123456789.+-eE") != std::string::npos) {
    return std::nullopt;
  }
  try {
    std::size_t consumed = 0;
    const double value = std::stod(s, &consumed);
    if (consumed != s.size() || !std::isfinite(value)) return std::nullopt;
    return value;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<std::int64_t> ParseInt64(const std::string& s) {
  if (s.empty()) return std::nullopt;
  try {
    std::size_t consumed = 0;
    const long long value = std::stoll(s, &consumed);
    if (consumed != s.size()) return std::nullopt;
    return static_cast<std::int64_t>(value);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

std::optional<int> ParseInt(const std::string& s) {
  const auto wide = ParseInt64(s);
  if (!wide || *wide < std::numeric_limits<int>::min() ||
      *wide > std::numeric_limits<int>::max()) {
    return std::nullopt;
  }
  return static_cast<int>(*wide);
}

std::optional<std::vector<double>> ParseDoubles(const std::string& csv) {
  if (!csv.empty() && csv.back() == ',') return std::nullopt;
  std::vector<double> out;
  std::istringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) {
    const auto value = ParseDouble(item);
    if (!value) return std::nullopt;
    out.push_back(*value);
  }
  if (out.empty()) return std::nullopt;  // "rates=" carries no measurement
  return out;
}

// Splits "key=value" tokens of a message line after the type word.
// Duplicate keys are a wire fault (a spliced/corrupted line), not a
// last-writer-wins merge.
std::optional<std::unordered_map<std::string, std::string>> ParseFields(
    const std::string& line, const std::string& expected_type) {
  std::istringstream in(line);
  std::string type;
  if (!(in >> type) || type != expected_type) return std::nullopt;
  std::unordered_map<std::string, std::string> fields;
  std::string token;
  while (in >> token) {
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) return std::nullopt;
    if (!fields.emplace(token.substr(0, eq), token.substr(eq + 1)).second) {
      return std::nullopt;
    }
  }
  return fields;
}

// Unknown keys are trailing garbage in disguise (a corrupted or spliced
// line), not forward-compatible extensions.
bool OnlyKeys(const std::unordered_map<std::string, std::string>& fields,
              std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : fields) {
    (void)value;
    bool known = false;
    for (const char* a : allowed) known = known || key == a;
    if (!known) return false;
  }
  return true;
}

bool AllNonNegative(const std::vector<double>& xs) {
  return std::all_of(xs.begin(), xs.end(), [](double x) { return x >= 0.0; });
}

}  // namespace

const char* ToString(HandleStatus s) {
  switch (s) {
    case HandleStatus::kOk: return "ok";
    case HandleStatus::kMalformed: return "malformed";
    case HandleStatus::kDuplicateUser: return "duplicate-user";
    case HandleStatus::kUnknownUser: return "unknown-user";
    case HandleStatus::kUnknownExtender: return "unknown-extender";
    case HandleStatus::kIgnoredStale: return "ignored-stale";
  }
  return "?";
}

const char* ToString(ErrorCategory c) {
  switch (c) {
    case ErrorCategory::kNone: return "none";
    case ErrorCategory::kWireFault: return "wire-fault";
    case ErrorCategory::kStateConflict: return "state-conflict";
    case ErrorCategory::kProgrammingError: return "programming-error";
  }
  return "?";
}

ErrorCategory CategoryOf(HandleStatus s) {
  switch (s) {
    case HandleStatus::kOk:
      return ErrorCategory::kNone;
    case HandleStatus::kMalformed:
      return ErrorCategory::kWireFault;
    case HandleStatus::kDuplicateUser:
    case HandleStatus::kUnknownUser:
    case HandleStatus::kUnknownExtender:
    case HandleStatus::kIgnoredStale:
      return ErrorCategory::kStateConflict;
  }
  return ErrorCategory::kProgrammingError;
}

const char* ToString(ReoptTier t) {
  switch (t) {
    case ReoptTier::kFull: return "full";
    case ReoptTier::kHungarianOnly: return "hungarian-only";
    case ReoptTier::kGreedy: return "greedy";
    case ReoptTier::kHoldLastGood: return "hold-last-good";
    case ReoptTier::kJoint: return "joint";
  }
  return "?";
}

std::size_t TierCost(ReoptTier tier) {
  switch (tier) {
    case ReoptTier::kJoint:
      return 5;
    case ReoptTier::kFull:
      return 4;
    case ReoptTier::kHungarianOnly:
      return 3;
    case ReoptTier::kGreedy:
      return 2;
    case ReoptTier::kHoldLastGood:
      return 1;
  }
  return 1;
}

ReoptTier TierForBudgetUnits(int units, bool joint_enabled) {
  if (units <= 0) {
    return joint_enabled ? ReoptTier::kJoint : ReoptTier::kFull;
  }
  const auto u = static_cast<std::size_t>(units);
  if (joint_enabled && u >= TierCost(ReoptTier::kJoint)) {
    return ReoptTier::kJoint;
  }
  if (u >= TierCost(ReoptTier::kFull)) return ReoptTier::kFull;
  if (u >= TierCost(ReoptTier::kHungarianOnly)) {
    return ReoptTier::kHungarianOnly;
  }
  if (u >= TierCost(ReoptTier::kGreedy)) return ReoptTier::kGreedy;
  return ReoptTier::kHoldLastGood;
}

std::string Encode(const ScanReport& msg) {
  std::string out = "SCAN user=" + std::to_string(msg.user_id) +
                    " rates=" + JoinDoubles(msg.rates_mbps);
  if (!msg.rssi_dbm.empty()) out += " rssi=" + JoinDoubles(msg.rssi_dbm);
  if (msg.associated_extender) {
    out += " assoc=" + std::to_string(*msg.associated_extender);
  }
  if (msg.demand_mbps) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%g", *msg.demand_mbps);
    out += " demand=";
    out += buf;
  }
  return out;
}

std::string Encode(const AssociationDirective& msg) {
  return "DIRECTIVE user=" + std::to_string(msg.user_id) +
         " extender=" + std::to_string(msg.extender);
}

std::string Encode(const DirectiveAck& msg) {
  return "ACK user=" + std::to_string(msg.user_id) +
         " extender=" + std::to_string(msg.extender);
}

std::string Encode(const DepartureNotice& msg) {
  return "DEPART user=" + std::to_string(msg.user_id);
}

std::string Encode(const CapacityReport& msg) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", msg.capacity_mbps);
  return "CAPACITY extender=" + std::to_string(msg.extender) + " mbps=" + buf;
}

std::optional<ScanReport> DecodeScanReport(const std::string& line) {
  const auto fields = ParseFields(line, "SCAN");
  if (!fields || !fields->count("user") || !fields->count("rates") ||
      !OnlyKeys(*fields, {"user", "rates", "rssi", "assoc", "demand"})) {
    return std::nullopt;
  }
  ScanReport msg;
  const auto user = ParseInt64(fields->at("user"));
  if (!user) return std::nullopt;
  msg.user_id = *user;
  const auto rates = ParseDoubles(fields->at("rates"));
  if (!rates || !AllNonNegative(*rates)) return std::nullopt;
  msg.rates_mbps = *rates;
  if (fields->count("rssi")) {
    const auto rssi = ParseDoubles(fields->at("rssi"));
    if (!rssi || rssi->size() != msg.rates_mbps.size()) return std::nullopt;
    msg.rssi_dbm = *rssi;
  }
  if (fields->count("assoc")) {
    const auto assoc = ParseInt(fields->at("assoc"));
    if (!assoc || *assoc < -1) return std::nullopt;
    msg.associated_extender = *assoc;
  }
  if (fields->count("demand")) {
    const auto demand = ParseDouble(fields->at("demand"));
    if (!demand || *demand < 0.0) return std::nullopt;
    msg.demand_mbps = *demand;
  }
  return msg;
}

std::optional<AssociationDirective> DecodeAssociationDirective(
    const std::string& line) {
  const auto fields = ParseFields(line, "DIRECTIVE");
  if (!fields || !fields->count("user") || !fields->count("extender") ||
      !OnlyKeys(*fields, {"user", "extender"})) {
    return std::nullopt;
  }
  const auto user = ParseInt64(fields->at("user"));
  const auto extender = ParseInt(fields->at("extender"));
  if (!user || !extender || *extender < 0) return std::nullopt;
  return AssociationDirective{*user, *extender};
}

std::optional<DirectiveAck> DecodeDirectiveAck(const std::string& line) {
  const auto fields = ParseFields(line, "ACK");
  if (!fields || !fields->count("user") || !fields->count("extender") ||
      !OnlyKeys(*fields, {"user", "extender"})) {
    return std::nullopt;
  }
  const auto user = ParseInt64(fields->at("user"));
  const auto extender = ParseInt(fields->at("extender"));
  if (!user || !extender || *extender < 0) return std::nullopt;
  return DirectiveAck{*user, *extender};
}

std::optional<DepartureNotice> DecodeDepartureNotice(const std::string& line) {
  const auto fields = ParseFields(line, "DEPART");
  if (!fields || !fields->count("user") || !OnlyKeys(*fields, {"user"})) {
    return std::nullopt;
  }
  const auto user = ParseInt64(fields->at("user"));
  if (!user) return std::nullopt;
  return DepartureNotice{*user};
}

std::optional<CapacityReport> DecodeCapacityReport(const std::string& line) {
  const auto fields = ParseFields(line, "CAPACITY");
  if (!fields || !fields->count("extender") || !fields->count("mbps") ||
      !OnlyKeys(*fields, {"extender", "mbps"})) {
    return std::nullopt;
  }
  const auto extender = ParseInt(fields->at("extender"));
  const auto mbps = ParseDouble(fields->at("mbps"));
  if (!extender || *extender < 0 || !mbps || *mbps < 0.0) return std::nullopt;
  return CapacityReport{*extender, *mbps};
}

CentralController::CentralController(std::size_t num_extenders,
                                     PolicyPtr policy, RetryParams retry,
                                     QuarantineParams quarantine)
    : net_(0, num_extenders),
      policy_(std::move(policy)),
      retry_(retry),
      quarantine_(quarantine),
      last_capacity_(num_extenders, -kInf),
      flap_(num_extenders) {
  if (num_extenders == 0) throw std::invalid_argument("no extenders");
  if (!policy_) throw std::invalid_argument("null policy");
}

void CentralController::AdvanceTime(double now) {
  if (std::isfinite(now)) now_ = std::max(now_, now);
  // Release quarantined backhauls that have been flap-free long enough;
  // their last reported capacity (tracked while quarantined) comes back.
  for (std::size_t j = 0; j < flap_.size(); ++j) {
    FlapState& f = flap_[j];
    if (!f.quarantined || now_ < f.release_at) continue;
    f.quarantined = false;
    f.flips.clear();
    net_.SetPlcRate(j, f.held_capacity);
    ++quarantine_releases_;
    if (obs::MetricsScope* s = obs::CurrentScope()) {
      s->ctrl.quarantine_releases.Add(1);
    }
  }
}

bool CentralController::IsQuarantined(int extender) const {
  if (extender < 0 ||
      static_cast<std::size_t>(extender) >= flap_.size()) {
    return false;
  }
  return flap_[static_cast<std::size_t>(extender)].quarantined;
}

HandleStatus CentralController::HandleCapacityReport(
    const CapacityReport& report) {
  if (report.extender < 0 ||
      static_cast<std::size_t>(report.extender) >= net_.NumExtenders()) {
    return HandleStatus::kUnknownExtender;
  }
  if (!std::isfinite(report.capacity_mbps) || report.capacity_mbps < 0.0) {
    return HandleStatus::kMalformed;
  }
  const std::size_t ext = static_cast<std::size_t>(report.extender);
  last_capacity_[ext] = now_;

  if (quarantine_.flap_threshold > 0) {
    FlapState& f = flap_[ext];
    const int up = report.capacity_mbps > 0.0 ? 1 : 0;
    if (f.last_up >= 0 && up != f.last_up) {
      f.flips.push_back(now_);
      // Drop transitions that fell out of the sliding window.
      const double cutoff = now_ - quarantine_.window;
      f.flips.erase(std::remove_if(f.flips.begin(), f.flips.end(),
                                   [&](double t) { return t < cutoff; }),
                    f.flips.end());
      if (f.quarantined) {
        // Hysteresis: flapping while quarantined restarts the hold clock.
        f.release_at = now_ + quarantine_.hold;
      } else if (static_cast<int>(f.flips.size()) >=
                 quarantine_.flap_threshold) {
        f.quarantined = true;
        f.release_at = now_ + quarantine_.hold;
        ++quarantine_trips_;
        if (obs::MetricsScope* s = obs::CurrentScope()) {
          s->ctrl.quarantine_trips.Add(1);
        }
      }
    }
    f.last_up = up;
    if (f.quarantined) {
      // Planning sees a dead link; remember what was reported so release
      // restores the freshest estimate.
      f.held_capacity = report.capacity_mbps;
      net_.SetPlcRate(ext, 0.0);
      return HandleStatus::kOk;
    }
  }

  net_.SetPlcRate(ext, report.capacity_mbps);
  return HandleStatus::kOk;
}

HandleStatus CentralController::ValidateScan(const ScanReport& report) const {
  if (report.rates_mbps.size() != net_.NumExtenders()) {
    return HandleStatus::kMalformed;
  }
  for (double r : report.rates_mbps) {
    if (!std::isfinite(r) || r < 0.0) return HandleStatus::kMalformed;
  }
  if (!report.rssi_dbm.empty()) {
    if (report.rssi_dbm.size() != net_.NumExtenders()) {
      return HandleStatus::kMalformed;
    }
    for (double s : report.rssi_dbm) {
      if (!std::isfinite(s)) return HandleStatus::kMalformed;
    }
  }
  if (report.associated_extender && *report.associated_extender < -1) {
    return HandleStatus::kMalformed;
  }
  if (report.demand_mbps &&
      (!std::isfinite(*report.demand_mbps) || *report.demand_mbps < 0.0)) {
    return HandleStatus::kMalformed;
  }
  return HandleStatus::kOk;
}

void CentralController::ApplyReport(std::size_t index,
                                    const ScanReport& report) {
  for (std::size_t j = 0; j < net_.NumExtenders(); ++j) {
    net_.SetWifiRate(index, j, report.rates_mbps[j]);
    if (!report.rssi_dbm.empty()) {
      net_.SetRssi(index, j, report.rssi_dbm[j]);
    }
  }
  if (report.demand_mbps) net_.SetUserDemand(index, *report.demand_mbps);
  last_scan_[index] = now_;
}

void CentralController::RegisterDirective(const AssociationDirective& d) {
  if (obs::MetricsScope* s = obs::CurrentScope()) {
    s->ctrl.directives_sent.Add(1);
  }
  pending_[d.user_id] =
      PendingDirective{d.extender, 1, now_ + retry_.initial_backoff};
}

model::Assignment CentralController::EvacuationFallback() const {
  // Keep everyone in place, but unassign users whose extender backhaul is
  // dead (reported zero or quarantined — quarantine forces the rate to 0).
  model::Assignment fallback = assignment_;
  for (std::size_t i = 0; i < net_.NumUsers(); ++i) {
    const int j = fallback.ExtenderOf(i);
    if (j != model::Assignment::kUnassigned &&
        net_.PlcRate(static_cast<std::size_t>(j)) <= 0.0) {
      fallback.Unassign(i);
    }
  }
  return fallback;
}

std::vector<AssociationDirective> CentralController::DiffAndRegister(
    const model::Assignment& before, model::Assignment proposed) {
  assignment_ = std::move(proposed);
  std::vector<AssociationDirective> directives;
  for (std::size_t i = 0; i < net_.NumUsers(); ++i) {
    if (assignment_.IsAssigned(i) &&
        assignment_.ExtenderOf(i) != before.ExtenderOf(i)) {
      directives.push_back({id_of_index_[i], assignment_.ExtenderOf(i)});
    }
  }
  for (const auto& d : directives) RegisterDirective(d);
  return directives;
}

std::vector<AssociationDirective> CentralController::RunPolicy(bool guard) {
  if (obs::MetricsScope* s = obs::CurrentScope()) {
    s->ctrl.policy_runs.Add(1);
  }
  const model::Assignment before = assignment_;
  model::Assignment proposed = policy_->Associate(net_, before);
  // Do-no-harm guard (epoch reoptimization only): policies plan under their
  // own sharing model, which can diverge from the physical evaluator. Never
  // deploy a reoptimization that scores below the trivial fallback of
  // keeping everyone in place and evacuating users whose extender backhaul
  // reports zero capacity. Arrival/scan-triggered runs stay unguarded:
  // admitting a weak user legitimately lowers a max-min aggregate, and
  // vetoing that would strand the user forever.
  if (guard) {
    model::Assignment fallback = EvacuationFallback();
    // Both sides score under the committed channel plan (plan-free until a
    // kJoint epoch has been adopted).
    if (ScoreUnder(channel_plan_, proposed) + 1e-9 <
        ScoreUnder(channel_plan_, fallback)) {
      proposed = std::move(fallback);
      if (obs::MetricsScope* s = obs::CurrentScope()) {
        s->ctrl.reopt_guard_trips.Add(1);
      }
    }
  }
  return DiffAndRegister(before, std::move(proposed));
}

HandleResult CentralController::HandleUserArrival(const ScanReport& report) {
  if (const HandleStatus v = ValidateScan(report); v != HandleStatus::kOk) {
    return {v, {}};
  }
  if (index_of_id_.count(report.user_id)) {
    return {HandleStatus::kDuplicateUser, {}};
  }
  const std::size_t index = net_.AddUser(model::User{}, report.rates_mbps);
  assignment_.AppendUser();
  id_of_index_.push_back(report.user_id);
  last_scan_.push_back(now_);
  index_of_id_[report.user_id] = index;
  ApplyReport(index, report);
  return {HandleStatus::kOk, RunPolicy()};
}

HandleResult CentralController::HandleScanUpdate(const ScanReport& report) {
  if (const HandleStatus v = ValidateScan(report); v != HandleStatus::kOk) {
    return {v, {}};
  }
  const auto it = index_of_id_.find(report.user_id);
  if (it == index_of_id_.end()) return {HandleStatus::kUnknownUser, {}};
  const std::size_t index = it->second;
  ApplyReport(index, report);
  // The refreshed rates may invalidate the current association.
  const int current = assignment_.ExtenderOf(index);
  if (current != model::Assignment::kUnassigned &&
      net_.WifiRate(index, static_cast<std::size_t>(current)) <= 0.0) {
    assignment_.Unassign(index);
  }
  HandleResult result{HandleStatus::kOk, RunPolicy()};
  // Reconciliation: the client told us where it actually is. If that
  // disagrees with the believed association and nothing is in flight,
  // re-issue the believed directive (the original was lost / abandoned).
  if (report.associated_extender && assignment_.IsAssigned(index) &&
      *report.associated_extender != assignment_.ExtenderOf(index) &&
      !pending_.count(report.user_id)) {
    const AssociationDirective fix{report.user_id,
                                   assignment_.ExtenderOf(index)};
    const bool already =
        std::any_of(result.directives.begin(), result.directives.end(),
                    [&](const AssociationDirective& d) {
                      return d.user_id == fix.user_id;
                    });
    if (!already) {
      RegisterDirective(fix);
      result.directives.push_back(fix);
    }
  }
  return result;
}

HandleStatus CentralController::IngestScan(const ScanReport& report) {
  if (const HandleStatus v = ValidateScan(report); v != HandleStatus::kOk) {
    return v;
  }
  if (obs::MetricsScope* s = obs::CurrentScope()) {
    s->workload.replay_events.Add(1);
  }
  const auto it = index_of_id_.find(report.user_id);
  if (it == index_of_id_.end()) {
    // New user, registered unassigned; the next Reoptimize*() places it.
    const std::size_t index = net_.AddUser(model::User{}, report.rates_mbps);
    assignment_.AppendUser();
    id_of_index_.push_back(report.user_id);
    last_scan_.push_back(now_);
    index_of_id_[report.user_id] = index;
    ApplyReport(index, report);
    return HandleStatus::kOk;
  }
  const std::size_t index = it->second;
  ApplyReport(index, report);
  const int current = assignment_.ExtenderOf(index);
  if (current != model::Assignment::kUnassigned &&
      net_.WifiRate(index, static_cast<std::size_t>(current)) <= 0.0) {
    assignment_.Unassign(index);
  }
  return HandleStatus::kOk;
}

void CentralController::RemoveUserAt(std::size_t index) {
  pending_.erase(id_of_index_[index]);
  net_.RemoveUser(index);
  assignment_.EraseUser(index);
  id_of_index_.erase(id_of_index_.begin() +
                     static_cast<std::ptrdiff_t>(index));
  last_scan_.erase(last_scan_.begin() + static_cast<std::ptrdiff_t>(index));
  index_of_id_.clear();
  for (std::size_t i = 0; i < id_of_index_.size(); ++i) {
    index_of_id_[id_of_index_[i]] = i;
  }
}

HandleStatus CentralController::HandleUserDeparture(std::int64_t user_id) {
  const auto it = index_of_id_.find(user_id);
  if (it == index_of_id_.end()) return HandleStatus::kUnknownUser;
  RemoveUserAt(it->second);
  return HandleStatus::kOk;
}

HandleStatus CentralController::HandleDirectiveAck(const DirectiveAck& ack) {
  obs::MetricsScope* s = obs::CurrentScope();
  if (!index_of_id_.count(ack.user_id)) return HandleStatus::kUnknownUser;
  const auto it = pending_.find(ack.user_id);
  if (it == pending_.end()) {
    if (s) s->ctrl.acks.Add(1);
    return HandleStatus::kOk;  // duplicate ack
  }
  if (it->second.extender != ack.extender) {
    if (s) s->ctrl.acks_stale.Add(1);
    return HandleStatus::kIgnoredStale;  // ack for a superseded directive
  }
  pending_.erase(it);
  if (s) s->ctrl.acks.Add(1);
  return HandleStatus::kOk;
}

std::vector<AssociationDirective> CentralController::Reoptimize() {
  return RunPolicy(/*guard=*/true);
}

model::Assignment CentralController::SolveTier(
    ReoptTier tier, const util::Deadline* deadline,
    const model::Assignment& before, const model::Assignment& evacuate) {
  switch (tier) {
    case ReoptTier::kHoldLastGood:
      return evacuate;
    case ReoptTier::kGreedy: {
      // Greedy: re-place only the evacuated users, everyone else holds.
      GreedyPolicy greedy;
      greedy.SetDeadline(deadline);
      return greedy.Associate(net_, evacuate);
    }
    case ReoptTier::kHungarianOnly: {
      // WOLT Phase I + sticky greedy Phase II without the local-search
      // polish — the polynomial core of the paper's algorithm.
      WoltOptions wopt;
      wopt.local_search = false;
      wopt.sticky = true;
      WoltPolicy hungarian_only(wopt);
      hungarian_only.SetDeadline(deadline);
      return hungarian_only.Associate(net_, before);
    }
    case ReoptTier::kFull: {
      // The configured policy, exactly what Reoptimize() would run.
      policy_->SetDeadline(deadline);
      model::Assignment proposed = policy_->Associate(net_, before);
      policy_->SetDeadline(nullptr);  // the token dies with this frame
      return proposed;
    }
    case ReoptTier::kJoint: {
      // Joint re-association + channel recolouring (assign/joint). The
      // proposed plan rides in proposed_plan_; the caller commits it to
      // channel_plan_ only if this rung is adopted. With joint mode off the
      // plan axis does not exist, so the rung degenerates to kFull.
      if (joint_.num_channels <= 0) {
        return SolveTier(ReoptTier::kFull, deadline, before, evacuate);
      }
      assign::JointOptions jopt;
      jopt.num_channels = joint_.num_channels;
      jopt.carrier_sense_range_m = joint_.carrier_sense_range_m;
      jopt.max_rounds = joint_.max_rounds;
      jopt.deadline = deadline;
      assign::JointResult result =
          assign::SolveJointAlternating(net_, WoltJointAssociator(), jopt);
      proposed_plan_ = std::move(result.channels);
      return std::move(result.assignment);
    }
  }
  return evacuate;
}

model::EvalOptions CentralController::PlanEval(
    const std::vector<int>& plan) const {
  model::EvalOptions eval;
  if (!plan.empty()) {
    eval.wifi_channel = plan;
    eval.carrier_sense_range_m = joint_.carrier_sense_range_m;
  }
  return eval;
}

double CentralController::ScoreUnder(const std::vector<int>& plan,
                                     const model::Assignment& assign) const {
  return model::Evaluator(PlanEval(plan))
      .Evaluate(net_, assign, eval_scratch_)
      .aggregate_mbps;
}

void CentralController::SetJointMode(JointModeParams params) {
  if (params.num_channels < 0 || params.max_rounds < 0 ||
      !(params.carrier_sense_range_m > 0.0)) {
    throw std::invalid_argument("bad joint-mode parameters");
  }
  joint_ = params;
  if (joint_.num_channels <= 0) channel_plan_.clear();
}

ReoptReport CentralController::Reoptimize(double budget_seconds) {
  if (obs::MetricsScope* s = obs::CurrentScope()) {
    s->ctrl.policy_runs.Add(1);
  }
  ReoptReport report;
  const util::Deadline deadline = util::Deadline::After(budget_seconds);
  const model::Assignment before = assignment_;
  const model::Assignment evacuate = EvacuationFallback();

  // Degradation ladder, cheapest rung first so that something deployable
  // exists the moment the budget dies. Each rung starts only while budget
  // remains and serves only if it finished within budget; inside a rung the
  // solvers poll the deadline per bounded unit of work, so the overrun past
  // `budget_seconds` is at most one such unit. With joint mode enabled the
  // ladder tops out at kJoint (re-association + channel recolouring).
  const bool joint_enabled = joint_.num_channels > 0;
  const ReoptTier top = joint_enabled ? ReoptTier::kJoint : ReoptTier::kFull;
  model::Assignment chosen = evacuate;
  std::vector<int> chosen_plan = channel_plan_;
  report.tier = ReoptTier::kHoldLastGood;
  for (ReoptTier tier : {ReoptTier::kGreedy, ReoptTier::kHungarianOnly,
                         ReoptTier::kFull, ReoptTier::kJoint}) {
    if (tier == ReoptTier::kJoint && !joint_enabled) break;
    if (deadline.Expired()) break;
    model::Assignment proposed = SolveTier(tier, &deadline, before, evacuate);
    if (!deadline.Expired()) {
      chosen = std::move(proposed);
      chosen_plan =
          tier == ReoptTier::kJoint ? proposed_plan_ : channel_plan_;
      report.tier = tier;
    }
  }

  // budget_limited reflects the ladder outcome; the guard below can still
  // demote the serving tier on quality grounds, which is not a budget event.
  report.budget_limited = report.tier != top;
  const bool no_tier_fit = report.tier == ReoptTier::kHoldLastGood;

  // Same do-no-harm contract as Reoptimize(): never deploy below the
  // hold-last-good baseline. The candidate scores under the plan it would
  // commit, the baseline under the plan already committed (plan-free when
  // joint mode never adopted — identical to the pre-joint behaviour).
  if (ScoreUnder(chosen_plan, chosen) + 1e-9 <
      ScoreUnder(channel_plan_, evacuate)) {
    chosen = evacuate;
    chosen_plan = channel_plan_;
    report.tier = ReoptTier::kHoldLastGood;
    if (obs::MetricsScope* s = obs::CurrentScope()) {
      s->ctrl.reopt_guard_trips.Add(1);
    }
  }

  if (obs::MetricsScope* s = obs::CurrentScope()) {
    switch (report.tier) {
      case ReoptTier::kFull: s->ctrl.reopt_tier_full.Add(1); break;
      case ReoptTier::kHungarianOnly:
        s->ctrl.reopt_tier_hungarian.Add(1);
        break;
      case ReoptTier::kGreedy: s->ctrl.reopt_tier_greedy.Add(1); break;
      case ReoptTier::kHoldLastGood: s->ctrl.reopt_tier_hold.Add(1); break;
      case ReoptTier::kJoint: s->ctrl.reopt_tier_joint.Add(1); break;
    }
    if (no_tier_fit) s->ctrl.reopt_budget_overruns.Add(1);
  }

  channel_plan_ = std::move(chosen_plan);
  report.directives = DiffAndRegister(before, std::move(chosen));
  return report;
}

ReoptReport CentralController::ReoptimizeUpToTier(ReoptTier top) {
  if (obs::MetricsScope* s = obs::CurrentScope()) {
    s->ctrl.policy_runs.Add(1);
  }
  ReoptReport report;
  const model::Assignment before = assignment_;
  const model::Assignment evacuate = EvacuationFallback();
  const bool joint_enabled = joint_.num_channels > 0;

  // Hold-last-good is the zero-cost floor of the candidate set; every
  // affordable rung competes against it and against each other on scored
  // throughput. Iterating cheapest-first with a strict improvement
  // threshold makes ties stick with the cheaper (less disruptive) rung.
  model::Assignment chosen = evacuate;
  std::vector<int> chosen_plan = channel_plan_;
  report.tier = ReoptTier::kHoldLastGood;
  double best = ScoreUnder(channel_plan_, evacuate);
  for (ReoptTier tier : {ReoptTier::kGreedy, ReoptTier::kHungarianOnly,
                         ReoptTier::kFull, ReoptTier::kJoint}) {
    if (TierCost(tier) > TierCost(top)) break;
    if (tier == ReoptTier::kJoint && !joint_enabled) break;
    model::Assignment proposed = SolveTier(tier, nullptr, before, evacuate);
    std::vector<int> plan =
        tier == ReoptTier::kJoint ? proposed_plan_ : channel_plan_;
    const double score = ScoreUnder(plan, proposed);
    if (score > best + 1e-9) {
      best = score;
      chosen = std::move(proposed);
      chosen_plan = std::move(plan);
      report.tier = tier;
    }
  }
  report.budget_limited =
      TierCost(top) <
      TierCost(joint_enabled ? ReoptTier::kJoint : ReoptTier::kFull);

  if (obs::MetricsScope* s = obs::CurrentScope()) {
    switch (report.tier) {
      case ReoptTier::kFull: s->ctrl.reopt_tier_full.Add(1); break;
      case ReoptTier::kHungarianOnly:
        s->ctrl.reopt_tier_hungarian.Add(1);
        break;
      case ReoptTier::kGreedy: s->ctrl.reopt_tier_greedy.Add(1); break;
      case ReoptTier::kHoldLastGood: s->ctrl.reopt_tier_hold.Add(1); break;
      case ReoptTier::kJoint: s->ctrl.reopt_tier_joint.Add(1); break;
    }
  }

  channel_plan_ = std::move(chosen_plan);
  report.directives = DiffAndRegister(before, std::move(chosen));
  return report;
}

ReoptReport CentralController::ReoptimizeAtTier(ReoptTier tier) {
  if (obs::MetricsScope* s = obs::CurrentScope()) {
    s->ctrl.policy_runs.Add(1);
  }
  ReoptReport report;
  report.tier = tier;
  const model::Assignment before = assignment_;
  const model::Assignment evacuate = EvacuationFallback();
  model::Assignment chosen = SolveTier(tier, nullptr, before, evacuate);
  std::vector<int> chosen_plan =
      (tier == ReoptTier::kJoint && joint_.num_channels > 0) ? proposed_plan_
                                                             : channel_plan_;

  // Same do-no-harm contract as the budgeted ladder.
  if (ScoreUnder(chosen_plan, chosen) + 1e-9 <
      ScoreUnder(channel_plan_, evacuate)) {
    chosen = evacuate;
    chosen_plan = channel_plan_;
    report.tier = ReoptTier::kHoldLastGood;
    if (obs::MetricsScope* s = obs::CurrentScope()) {
      s->ctrl.reopt_guard_trips.Add(1);
    }
  }
  report.budget_limited = report.tier != ReoptTier::kFull &&
                          report.tier != ReoptTier::kJoint;

  if (obs::MetricsScope* s = obs::CurrentScope()) {
    switch (report.tier) {
      case ReoptTier::kFull: s->ctrl.reopt_tier_full.Add(1); break;
      case ReoptTier::kHungarianOnly:
        s->ctrl.reopt_tier_hungarian.Add(1);
        break;
      case ReoptTier::kGreedy: s->ctrl.reopt_tier_greedy.Add(1); break;
      case ReoptTier::kHoldLastGood: s->ctrl.reopt_tier_hold.Add(1); break;
      case ReoptTier::kJoint: s->ctrl.reopt_tier_joint.Add(1); break;
    }
  }

  channel_plan_ = std::move(chosen_plan);
  report.directives = DiffAndRegister(before, std::move(chosen));
  return report;
}

std::vector<AssociationDirective> CentralController::CollectRetries() {
  std::vector<AssociationDirective> due;
  for (auto it = pending_.begin(); it != pending_.end();) {
    PendingDirective& p = it->second;
    if (p.next_retry > now_) {
      ++it;
      continue;
    }
    if (p.attempts >= retry_.max_attempts) {
      ++given_up_;
      if (obs::MetricsScope* s = obs::CurrentScope()) {
        s->ctrl.directives_given_up.Add(1);
      }
      it = pending_.erase(it);
      continue;
    }
    due.push_back({it->first, p.extender});
    if (obs::MetricsScope* s = obs::CurrentScope()) {
      s->ctrl.directives_retried.Add(1);
    }
    double backoff = retry_.initial_backoff;
    for (int a = 1; a < p.attempts; ++a) backoff *= retry_.multiplier;
    backoff = std::min(backoff * retry_.multiplier, retry_.max_backoff);
    ++p.attempts;
    p.next_retry = now_ + backoff;
    ++it;
  }
  std::sort(due.begin(), due.end(),
            [](const AssociationDirective& a, const AssociationDirective& b) {
              return a.user_id < b.user_id;
            });
  return due;
}

std::vector<std::int64_t> CentralController::EvictStale(double max_age) {
  std::vector<std::int64_t> evicted;
  for (std::size_t i = 0; i < id_of_index_.size(); ++i) {
    if (now_ - last_scan_[i] > max_age) evicted.push_back(id_of_index_[i]);
  }
  for (std::int64_t id : evicted) HandleUserDeparture(id);
  if (!evicted.empty()) {
    if (obs::MetricsScope* s = obs::CurrentScope()) {
      s->ctrl.evictions.Add(evicted.size());
    }
  }
  return evicted;
}

std::optional<int> CentralController::ExtenderOf(std::int64_t user_id) const {
  const auto it = index_of_id_.find(user_id);
  if (it == index_of_id_.end()) return std::nullopt;
  if (!assignment_.IsAssigned(it->second)) return std::nullopt;
  return assignment_.ExtenderOf(it->second);
}

bool CentralController::KnowsUser(std::int64_t user_id) const {
  return index_of_id_.count(user_id) > 0;
}

std::vector<std::int64_t> CentralController::UserIds() const {
  return id_of_index_;
}

double CentralController::ScanAge(std::int64_t user_id) const {
  const auto it = index_of_id_.find(user_id);
  if (it == index_of_id_.end()) return kInf;
  return now_ - last_scan_[it->second];
}

double CentralController::CapacityAge(int extender) const {
  if (extender < 0 ||
      static_cast<std::size_t>(extender) >= last_capacity_.size()) {
    return kInf;
  }
  return now_ - last_capacity_[static_cast<std::size_t>(extender)];
}

double CentralController::CurrentAggregate() const {
  // Under joint mode the committed channel plan is part of the physical
  // model: co-channel cells in range share airtime.
  return ScoreUnder(channel_plan_, assignment_);
}

void CentralController::SaveState(std::string* out) const {
  const std::size_t num_ext = net_.NumExtenders();
  const std::size_t num_users = net_.NumUsers();
  util::PutU64(out, num_ext);
  util::PutDouble(out, now_);
  util::PutU64(out, given_up_);
  util::PutU64(out, quarantine_trips_);
  util::PutU64(out, quarantine_releases_);
  util::PutU8(out, net_.HasRssi() ? 1 : 0);
  util::PutU64(out, num_users);
  for (std::size_t i = 0; i < num_users; ++i) {
    util::PutI64(out, id_of_index_[i]);
    util::PutDouble(out, last_scan_[i]);
    util::PutDouble(out, net_.UserAt(i).demand_mbps);
    util::PutU64(out, num_ext);
    for (std::size_t j = 0; j < num_ext; ++j) {
      util::PutDouble(out, net_.WifiRate(i, j));
    }
    if (net_.HasRssi()) {
      util::PutU64(out, num_ext);
      for (std::size_t j = 0; j < num_ext; ++j) {
        util::PutDouble(out, net_.Rssi(i, j));
      }
    }
    util::PutI32(out, assignment_.ExtenderOf(i));
  }
  for (std::size_t j = 0; j < num_ext; ++j) {
    util::PutDouble(out, net_.PlcRate(j));
    util::PutDouble(out, last_capacity_[j]);
    const FlapState& f = flap_[j];
    util::PutI32(out, f.last_up);
    util::PutDoubleVec(out, f.flips);
    util::PutU8(out, f.quarantined ? 1 : 0);
    util::PutDouble(out, f.release_at);
    util::PutDouble(out, f.held_capacity);
  }
  // Pending directives in user-id order: unordered_map iteration order is
  // not deterministic, and the snapshot bytes must be.
  std::vector<std::int64_t> pending_ids;
  pending_ids.reserve(pending_.size());
  for (const auto& [id, p] : pending_) pending_ids.push_back(id);
  std::sort(pending_ids.begin(), pending_ids.end());
  util::PutU64(out, pending_ids.size());
  for (std::int64_t id : pending_ids) {
    const PendingDirective& p = pending_.at(id);
    util::PutI64(out, id);
    util::PutI32(out, p.extender);
    util::PutI32(out, p.attempts);
    util::PutDouble(out, p.next_retry);
  }
  // Committed channel plan (appended last; empty when joint mode has never
  // adopted a kJoint epoch).
  util::PutU64(out, channel_plan_.size());
  for (int c : channel_plan_) util::PutI32(out, c);
}

bool CentralController::RestoreState(util::ByteCursor* cur) {
  const std::uint64_t num_ext = cur->U64();
  if (!cur->ok() || num_ext != net_.NumExtenders()) return false;
  const double now = cur->Double();
  const std::uint64_t given_up = cur->U64();
  const std::uint64_t q_trips = cur->U64();
  const std::uint64_t q_releases = cur->U64();
  const bool has_rssi = cur->U8() != 0;
  const std::uint64_t num_users = cur->U64();
  if (!cur->ok() || num_users > (std::uint64_t{1} << 24)) return false;

  model::Network net(0, num_ext);
  model::Assignment assignment;
  std::vector<std::int64_t> ids;
  std::vector<double> last_scan;
  std::unordered_map<std::int64_t, std::size_t> index_of_id;
  ids.reserve(num_users);
  last_scan.reserve(num_users);
  std::vector<double> rates, rssi;
  for (std::uint64_t i = 0; i < num_users; ++i) {
    const std::int64_t id = cur->I64();
    const double scan_at = cur->Double();
    const double demand = cur->Double();
    if (!cur->ok() || !std::isfinite(demand) || demand < 0.0) return false;
    if (!cur->DoubleVec(&rates) || rates.size() != num_ext) return false;
    for (double r : rates) {
      if (!std::isfinite(r) || r < 0.0) return false;
    }
    if (has_rssi && (!cur->DoubleVec(&rssi) || rssi.size() != num_ext)) {
      return false;
    }
    const int extender = cur->I32();
    if (!cur->ok() || extender < model::Assignment::kUnassigned ||
        extender >= static_cast<int>(num_ext)) {
      return false;
    }
    if (index_of_id.count(id)) return false;
    const std::size_t index = net.AddUser(model::User{}, rates);
    net.SetUserDemand(index, demand);
    assignment.AppendUser();
    if (extender != model::Assignment::kUnassigned) {
      assignment.Assign(index, static_cast<std::size_t>(extender));
    }
    if (has_rssi) {
      // Exact matrix round trip: -inf marks never-set cells and SetRssi
      // stores it verbatim, so the restored Rssi() view is bit-identical.
      for (std::size_t j = 0; j < num_ext; ++j) {
        net.SetRssi(index, j, rssi[j]);
      }
    }
    ids.push_back(id);
    last_scan.push_back(scan_at);
    index_of_id[id] = index;
  }

  std::vector<double> last_capacity(num_ext, -kInf);
  std::vector<FlapState> flap(num_ext);
  for (std::uint64_t j = 0; j < num_ext; ++j) {
    const double plc = cur->Double();
    last_capacity[j] = cur->Double();
    FlapState& f = flap[j];
    f.last_up = cur->I32();
    if (!cur->DoubleVec(&f.flips)) return false;
    f.quarantined = cur->U8() != 0;
    f.release_at = cur->Double();
    f.held_capacity = cur->Double();
    if (!cur->ok() || !std::isfinite(plc) || plc < 0.0) return false;
    net.SetPlcRate(j, plc);
  }

  const std::uint64_t num_pending = cur->U64();
  if (!cur->ok() || num_pending > num_users) return false;
  std::unordered_map<std::int64_t, PendingDirective> pending;
  for (std::uint64_t k = 0; k < num_pending; ++k) {
    const std::int64_t id = cur->I64();
    PendingDirective p;
    p.extender = cur->I32();
    p.attempts = cur->I32();
    p.next_retry = cur->Double();
    if (!cur->ok() || !index_of_id.count(id)) return false;
    pending[id] = p;
  }

  const std::uint64_t plan_size = cur->U64();
  if (!cur->ok() || (plan_size != 0 && plan_size != num_ext)) return false;
  std::vector<int> channel_plan;
  channel_plan.reserve(plan_size);
  for (std::uint64_t j = 0; j < plan_size; ++j) {
    const int c = cur->I32();
    if (!cur->ok() || c < 0 || c >= model::kMaxWifiChannels) return false;
    channel_plan.push_back(c);
  }
  if (!cur->ok()) return false;

  net_ = std::move(net);
  assignment_ = std::move(assignment);
  now_ = now;
  given_up_ = given_up;
  quarantine_trips_ = q_trips;
  quarantine_releases_ = q_releases;
  id_of_index_ = std::move(ids);
  last_scan_ = std::move(last_scan);
  last_capacity_ = std::move(last_capacity);
  flap_ = std::move(flap);
  index_of_id_ = std::move(index_of_id);
  pending_ = std::move(pending);
  channel_plan_ = std::move(channel_plan);
  return true;
}

}  // namespace wolt::core
