#include "core/controller.h"

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string_view>
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

// --- Wire codec ----------------------------------------------------------
//
// No allocation beyond the messages' own strings and vectors: lines are
// split in place through std::string_view, numbers are read with
// std::from_chars and written with std::to_chars. The accept set and the
// bytes are those of the C-library rules they replace (istream word
// splitting, strict strtod/strtoll, printf "%g");
// tests/codec_differential_test.cc holds those rules as the reference and
// compares the two.

// Appends `value` exactly as printf("%g") writes it: to_chars in the
// general format at precision 6 is specified as %.6g.
void AppendDouble(std::string& out, double value) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value,
                                    std::chars_format::general, 6);
  out.append(buf, result.ptr);
}

void AppendInt(std::string& out, std::int64_t value) {
  char buf[24];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, result.ptr);
}

void AppendDoubles(std::string& out, const std::vector<double>& xs) {
  for (std::size_t k = 0; k < xs.size(); ++k) {
    if (k) out += ',';
    AppendDouble(out, xs[k]);
  }
}

// The whitespace set of the "C" locale, which words are split on.
bool IsWireSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

// The next whitespace-delimited word of `*rest` (empty at the end of the
// line); `*rest` advances past it.
std::string_view NextWord(std::string_view* rest) {
  std::size_t begin = 0;
  while (begin < rest->size() && IsWireSpace((*rest)[begin])) ++begin;
  std::size_t end = begin;
  while (end < rest->size() && !IsWireSpace((*rest)[end])) ++end;
  const std::string_view word = rest->substr(begin, end - begin);
  rest->remove_prefix(end);
  return word;
}

// Splits "TYPE key=value ..." into the values of `keys`, slot by slot; a
// key that does not occur leaves its slot empty. The wrong type word, a
// token without '=', a duplicate key (a spliced or corrupted line, not a
// last-writer-wins merge) and an unknown or empty key (trailing garbage in
// disguise, not a forward-compatible extension) reject the line.
template <std::size_t N>
bool SplitFields(std::string_view line, std::string_view type,
                 const std::array<std::string_view, N>& keys,
                 std::array<std::optional<std::string_view>, N>* values) {
  if (NextWord(&line) != type) return false;
  for (std::string_view token = NextWord(&line); !token.empty();
       token = NextWord(&line)) {
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos) return false;
    std::size_t k = 0;
    while (k < N && keys[k] != token.substr(0, eq)) ++k;
    if (k == N || (*values)[k]) return false;
    (*values)[k] = token.substr(eq + 1);
  }
  return true;
}

// Strict numeric parsers: the whole token must be consumed and the value
// must be finite. from_chars answers every token it accepts outright; any
// other token (a leading '+', which from_chars does not take, an
// out-of-range or near-zero result, where strtod's ERANGE decides, and
// every reject) falls through to the C-library rule, so the accept set is
// exactly that of strtod/strtoll.
std::optional<double> StrtodWhole(std::string_view s) {
  const std::string text(s);  // NUL-terminated; short tokens stay in SSO
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  if (errno == ERANGE || end != text.c_str() + text.size() ||
      !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

std::optional<std::int64_t> StrtollWhole(std::string_view s) {
  const std::string text(s);
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (errno == ERANGE || end != text.c_str() + text.size()) {
    return std::nullopt;
  }
  return static_cast<std::int64_t>(value);
}

std::optional<double> ParseDouble(std::string_view s) {
  // Whitelist plain decimal syntax first: strtod also accepts hex floats
  // ("0x10"), leading whitespace and nan/inf spellings, none of which are
  // legal on this wire.
  if (s.empty() ||
      s.find_first_not_of("0123456789.+-eE") != std::string_view::npos) {
    return std::nullopt;
  }
  double value = 0.0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  // Results at or below the smallest normal can underflow in strtod.
  if (ec == std::errc{} && end == s.data() + s.size() &&
      std::fabs(value) > std::numeric_limits<double>::min()) {
    return value;
  }
  return StrtodWhole(s);
}

std::optional<std::int64_t> ParseInt64(std::string_view s) {
  if (s.empty()) return std::nullopt;
  std::int64_t value = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec == std::errc{} && end == s.data() + s.size()) return value;
  return StrtollWhole(s);
}

std::optional<int> ParseInt(std::string_view s) {
  const auto wide = ParseInt64(s);
  if (!wide || *wide < std::numeric_limits<int>::min() ||
      *wide > std::numeric_limits<int>::max()) {
    return std::nullopt;
  }
  return static_cast<int>(*wide);
}

// A comma-separated list of at least one double; an empty item (from a
// leading, doubled or trailing comma) rejects the list.
bool ParseDoubles(std::string_view csv, std::vector<double>* out) {
  out->reserve(static_cast<std::size_t>(
      std::count(csv.begin(), csv.end(), ',') + 1));
  while (true) {
    const std::size_t comma = csv.find(',');
    const auto value = ParseDouble(csv.substr(0, comma));
    if (!value) return false;
    out->push_back(*value);
    if (comma == std::string_view::npos) return true;
    csv.remove_prefix(comma + 1);
  }
}

bool AllNonNegative(const std::vector<double>& xs) {
  return std::all_of(xs.begin(), xs.end(), [](double x) { return x >= 0.0; });
}

// "<TYPE> user=<id> extender=<ext>", the shape of DIRECTIVE and ACK.
std::string EncodeUserExtender(std::string_view type, std::int64_t user,
                               int extender) {
  std::string out;
  out.reserve(64);
  out += type;
  out += " user=";
  AppendInt(out, user);
  out += " extender=";
  AppendInt(out, extender);
  return out;
}

// Decodes the user and extender of a DIRECTIVE or ACK line.
std::optional<std::pair<std::int64_t, int>> DecodeUserExtender(
    std::string_view line, std::string_view type) {
  std::array<std::optional<std::string_view>, 2> f;
  if (!SplitFields<2>(line, type, {"user", "extender"}, &f) || !f[0] ||
      !f[1]) {
    return std::nullopt;
  }
  const auto user = ParseInt64(*f[0]);
  const auto extender = ParseInt(*f[1]);
  if (!user || !extender || *extender < 0) return std::nullopt;
  return std::pair{*user, *extender};
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
  std::string out;
  out.reserve(48 + 14 * (msg.rates_mbps.size() + msg.rssi_dbm.size()));
  out += "SCAN user=";
  AppendInt(out, msg.user_id);
  out += " rates=";
  AppendDoubles(out, msg.rates_mbps);
  if (!msg.rssi_dbm.empty()) {
    out += " rssi=";
    AppendDoubles(out, msg.rssi_dbm);
  }
  if (msg.associated_extender) {
    out += " assoc=";
    AppendInt(out, *msg.associated_extender);
  }
  if (msg.demand_mbps) {
    out += " demand=";
    AppendDouble(out, *msg.demand_mbps);
  }
  return out;
}

std::string Encode(const AssociationDirective& msg) {
  return EncodeUserExtender("DIRECTIVE", msg.user_id, msg.extender);
}

std::string Encode(const DirectiveAck& msg) {
  return EncodeUserExtender("ACK", msg.user_id, msg.extender);
}

std::string Encode(const DepartureNotice& msg) {
  std::string out = "DEPART user=";
  AppendInt(out, msg.user_id);
  return out;
}

std::string Encode(const CapacityReport& msg) {
  std::string out;
  out.reserve(48);
  out += "CAPACITY extender=";
  AppendInt(out, msg.extender);
  out += " mbps=";
  AppendDouble(out, msg.capacity_mbps);
  return out;
}

std::optional<ScanReport> DecodeScanReport(const std::string& line) {
  // Slots: user, rates, rssi, assoc, demand.
  std::array<std::optional<std::string_view>, 5> f;
  if (!SplitFields<5>(line, "SCAN",
                      {"user", "rates", "rssi", "assoc", "demand"}, &f) ||
      !f[0] || !f[1]) {
    return std::nullopt;
  }
  ScanReport msg;
  const auto user = ParseInt64(*f[0]);
  if (!user) return std::nullopt;
  msg.user_id = *user;
  if (!ParseDoubles(*f[1], &msg.rates_mbps) ||
      !AllNonNegative(msg.rates_mbps)) {
    return std::nullopt;
  }
  if (f[2] && (!ParseDoubles(*f[2], &msg.rssi_dbm) ||
               msg.rssi_dbm.size() != msg.rates_mbps.size())) {
    return std::nullopt;
  }
  if (f[3]) {
    const auto assoc = ParseInt(*f[3]);
    if (!assoc || *assoc < -1) return std::nullopt;
    msg.associated_extender = *assoc;
  }
  if (f[4]) {
    const auto demand = ParseDouble(*f[4]);
    if (!demand || *demand < 0.0) return std::nullopt;
    msg.demand_mbps = *demand;
  }
  return msg;
}

std::optional<AssociationDirective> DecodeAssociationDirective(
    const std::string& line) {
  const auto fields = DecodeUserExtender(line, "DIRECTIVE");
  if (!fields) return std::nullopt;
  return AssociationDirective{fields->first, fields->second};
}

std::optional<DirectiveAck> DecodeDirectiveAck(const std::string& line) {
  const auto fields = DecodeUserExtender(line, "ACK");
  if (!fields) return std::nullopt;
  return DirectiveAck{fields->first, fields->second};
}

std::optional<DepartureNotice> DecodeDepartureNotice(const std::string& line) {
  std::array<std::optional<std::string_view>, 1> f;
  if (!SplitFields<1>(line, "DEPART", {"user"}, &f) || !f[0]) {
    return std::nullopt;
  }
  const auto user = ParseInt64(*f[0]);
  if (!user) return std::nullopt;
  return DepartureNotice{*user};
}

std::optional<CapacityReport> DecodeCapacityReport(const std::string& line) {
  std::array<std::optional<std::string_view>, 2> f;
  if (!SplitFields<2>(line, "CAPACITY", {"extender", "mbps"}, &f) || !f[0] ||
      !f[1]) {
    return std::nullopt;
  }
  const auto extender = ParseInt(*f[0]);
  const auto mbps = ParseDouble(*f[1]);
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
  // Diff before adopting: `before` may be assignment_ itself.
  std::vector<AssociationDirective> directives;
  for (std::size_t i = 0; i < net_.NumUsers(); ++i) {
    if (proposed.IsAssigned(i) &&
        proposed.ExtenderOf(i) != before.ExtenderOf(i)) {
      directives.push_back({id_of_index_[i], proposed.ExtenderOf(i)});
    }
  }
  assignment_ = std::move(proposed);
  for (const auto& d : directives) RegisterDirective(d);
  return directives;
}

std::vector<AssociationDirective> CentralController::RunPolicy(bool guard) {
  if (obs::MetricsScope* s = obs::CurrentScope()) {
    s->ctrl.policy_runs.Add(1);
  }
  model::Assignment proposed = policy_->Associate(net_, assignment_);
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
  return DiffAndRegister(assignment_, std::move(proposed));
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
    model::Assignment proposed =
        SolveTier(tier, &deadline, assignment_, evacuate);
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
  report.directives = DiffAndRegister(assignment_, std::move(chosen));
  return report;
}

ReoptReport CentralController::ReoptimizeUpToTier(ReoptTier top) {
  if (obs::MetricsScope* s = obs::CurrentScope()) {
    s->ctrl.policy_runs.Add(1);
  }
  ReoptReport report;
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
    model::Assignment proposed =
        SolveTier(tier, nullptr, assignment_, evacuate);
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
  report.directives = DiffAndRegister(assignment_, std::move(chosen));
  return report;
}

ReoptReport CentralController::ReoptimizeAtTier(ReoptTier tier) {
  if (obs::MetricsScope* s = obs::CurrentScope()) {
    s->ctrl.policy_runs.Add(1);
  }
  ReoptReport report;
  report.tier = tier;
  const model::Assignment evacuate = EvacuationFallback();
  model::Assignment chosen = SolveTier(tier, nullptr, assignment_, evacuate);
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
  report.directives = DiffAndRegister(assignment_, std::move(chosen));
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
