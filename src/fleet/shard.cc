#include "fleet/shard.h"

#include <stdexcept>
#include <utility>

#include "core/wolt.h"
#include "model/assignment.h"
#include "model/evaluator.h"
#include "sim/scenario.h"
#include "util/codec.h"
#include "util/rng.h"

namespace wolt::fleet {
namespace {

// Substream index for one (round, salt) pair.
std::uint64_t RoundStream(std::uint64_t round, std::uint64_t salt) {
  return round * kSalts + salt;
}

// Substream index of the construction-time scenario draw (distinct from
// every round stream).
constexpr std::uint64_t kSetupStream = ~std::uint64_t{0};

}  // namespace

ShardRuntime::ShardRuntime(std::uint32_t shard_id, std::uint64_t fleet_seed,
                           ShardParams params)
    : shard_id_(shard_id),
      shard_key_(util::HashCombine64(fleet_seed, shard_id)),
      params_(std::move(params)) {
  sim::ScenarioParams sp;
  sp.width_m = params_.floor_m;
  sp.height_m = params_.floor_m;
  sp.num_extenders = params_.num_extenders;
  sp.num_users = params_.num_users;
  util::Rng gen = util::Rng::Substream(shard_key_, kSetupStream);
  truth_ = sim::ScenarioGenerator(sp).Generate(gen);

  base_plc_.resize(truth_.NumExtenders());
  for (std::size_t j = 0; j < truth_.NumExtenders(); ++j) {
    base_plc_[j] = truth_.PlcRate(j);
  }
  down_until_.assign(truth_.NumExtenders(), 0);

  clients_.resize(truth_.NumUsers());
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    // Clients camp on their best link until directed (§V-A behaviour).
    std::optional<std::size_t> best = truth_.BestRateExtender(i);
    clients_[i].extender = best ? static_cast<int>(*best) : -1;
  }

  cc_ = MakeController();
}

std::unique_ptr<core::CentralController> ShardRuntime::MakeController()
    const {
  return std::make_unique<core::CentralController>(
      params_.num_extenders, std::make_unique<core::WoltPolicy>(),
      params_.retry, params_.quarantine);
}

void ShardRuntime::SendToShard(fault::FaultPlane* wire,
                               fault::MessageClass cls,
                               const std::string& bytes,
                               std::vector<FleetMessage>* out) {
  if (wire == nullptr) {
    out->push_back(FleetMessage{shard_id_, cls, bytes, 0});
    return;
  }
  for (fault::FaultPlane::Delivery& d : wire->Transmit(cls, bytes)) {
    // Delays are collapsed: the fleet round is the delivery quantum.
    out->push_back(FleetMessage{shard_id_, cls, std::move(d.bytes), 0});
  }
}

void ShardRuntime::GenerateTraffic(std::uint64_t round, bool chaos,
                                   std::vector<FleetMessage>* out) {
  util::Rng rng =
      util::Rng::Substream(shard_key_, RoundStream(round, kSaltTraffic));
  fault::FaultPlane plane(
      params_.wire,
      util::HashCombine64(shard_key_, RoundStream(round, kSaltWire)));
  fault::FaultPlane* wire = chaos ? &plane : nullptr;

  // Ground-truth PLC churn: recoveries first, then fresh chaos crashes.
  for (std::size_t j = 0; j < truth_.NumExtenders(); ++j) {
    if (down_until_[j] != 0 && round >= down_until_[j]) {
      truth_.SetPlcRate(j, base_plc_[j]);
      down_until_[j] = 0;
    }
  }
  if (chaos && params_.plc_crash_prob > 0.0) {
    for (std::size_t j = 0; j < truth_.NumExtenders(); ++j) {
      if (rng.Bernoulli(params_.plc_crash_prob)) {
        truth_.SetPlcRate(j, 0.0);
        down_until_[j] = round + params_.plc_down_rounds;
      }
    }
  }

  for (std::size_t j = 0; j < truth_.NumExtenders(); ++j) {
    core::CapacityReport cap;
    cap.extender = static_cast<int>(j);
    cap.capacity_mbps = truth_.PlcRate(j);
    SendToShard(wire, fault::MessageClass::kCapacity, core::Encode(cap), out);
  }

  for (std::size_t i = 0; i < clients_.size(); ++i) {
    Client& client = clients_[i];
    const std::int64_t id = IdBase() + static_cast<std::int64_t>(i);
    if (!client.alive) {
      if (round >= client.rejoin_round) {
        client.alive = true;
        client.extender = -1;  // re-arrives uncamped, waits for a directive
      } else {
        continue;
      }
    }
    if (chaos && params_.departure_prob > 0.0 &&
        rng.Bernoulli(params_.departure_prob)) {
      client.alive = false;
      client.extender = -1;
      client.rejoin_round = round + params_.rejoin_after;
      core::DepartureNotice bye;
      bye.user_id = id;
      SendToShard(wire, fault::MessageClass::kDeparture, core::Encode(bye),
                  out);
      continue;
    }
    core::ScanReport scan;
    scan.user_id = id;
    const double* row = truth_.WifiRateRow(i);
    scan.rates_mbps.assign(row, row + truth_.NumExtenders());
    if (client.extender >= 0) scan.associated_extender = client.extender;
    SendToShard(wire, fault::MessageClass::kScan, core::Encode(scan), out);
  }
}

void ShardRuntime::Categorize(core::ErrorCategory category,
                              RoundOutcome* rc) {
  switch (category) {
    case core::ErrorCategory::kNone:
      break;
    case core::ErrorCategory::kWireFault:
      ++rc->wire_faults;
      break;
    case core::ErrorCategory::kStateConflict:
      ++rc->state_conflicts;
      break;
    case core::ErrorCategory::kProgrammingError:
      rc->failures.push_back(
          FailureEvent{FailureKind::kInvariant,
                       core::ErrorCategory::kProgrammingError,
                       "handler returned a programming-error status"});
      break;
  }
}

void ShardRuntime::DeliverDirectives(
    const std::vector<core::AssociationDirective>& directives,
    fault::FaultPlane* wire, std::size_t* sent,
    std::vector<FleetMessage>* outbound) {
  for (const core::AssociationDirective& d : directives) {
    ++*sent;
    const std::string encoded = core::Encode(d);
    std::vector<fault::FaultPlane::Delivery> deliveries;
    if (wire == nullptr) {
      deliveries.push_back(fault::FaultPlane::Delivery{0.0, encoded});
    } else {
      deliveries = wire->Transmit(fault::MessageClass::kDirective, encoded);
    }
    for (const fault::FaultPlane::Delivery& del : deliveries) {
      std::optional<core::AssociationDirective> applied =
          core::DecodeAssociationDirective(del.bytes);
      if (!applied) continue;  // mangled in flight; the retry path covers it
      const std::int64_t idx = applied->user_id - IdBase();
      if (idx < 0 || idx >= static_cast<std::int64_t>(clients_.size())) {
        continue;
      }
      Client& client = clients_[static_cast<std::size_t>(idx)];
      if (!client.alive) continue;
      client.extender = applied->extender;
      core::DirectiveAck ack;
      ack.user_id = applied->user_id;
      ack.extender = applied->extender;
      outbound->push_back(FleetMessage{
          shard_id_, fault::MessageClass::kAck, core::Encode(ack), 0});
    }
  }
}

void ShardRuntime::HandleInbound(const FleetMessage& msg,
                                 fault::FaultPlane* wire, RoundOutcome* rc) {
  switch (msg.cls) {
    case fault::MessageClass::kScan: {
      std::optional<core::ScanReport> scan = core::DecodeScanReport(msg.bytes);
      // A corrupted id can decode "validly" into another shard's block; the
      // admission gate keeps such bytes out of the controller entirely.
      if (!scan || !OwnsId(scan->user_id)) {
        ++rc->decode_rejects;
        return;
      }
      ++rc->processed;
      core::HandleResult res = cc_->KnowsUser(scan->user_id)
                                   ? cc_->HandleScanUpdate(*scan)
                                   : cc_->HandleUserArrival(*scan);
      Categorize(res.category(), rc);
      DeliverDirectives(res.directives, wire, &rc->directives, &rc->outbound);
      return;
    }
    case fault::MessageClass::kCapacity: {
      std::optional<core::CapacityReport> cap =
          core::DecodeCapacityReport(msg.bytes);
      if (!cap) {
        ++rc->decode_rejects;
        return;
      }
      ++rc->processed;
      Categorize(core::CategoryOf(cc_->HandleCapacityReport(*cap)), rc);
      return;
    }
    case fault::MessageClass::kAck: {
      std::optional<core::DirectiveAck> ack =
          core::DecodeDirectiveAck(msg.bytes);
      if (!ack || !OwnsId(ack->user_id)) {
        ++rc->decode_rejects;
        return;
      }
      ++rc->processed;
      Categorize(core::CategoryOf(cc_->HandleDirectiveAck(*ack)), rc);
      return;
    }
    case fault::MessageClass::kDeparture: {
      std::optional<core::DepartureNotice> bye =
          core::DecodeDepartureNotice(msg.bytes);
      if (!bye || !OwnsId(bye->user_id)) {
        ++rc->decode_rejects;
        return;
      }
      ++rc->processed;
      Categorize(core::CategoryOf(cc_->HandleUserDeparture(bye->user_id)),
                 rc);
      return;
    }
    case fault::MessageClass::kDirective:
      // Directives are CC->client and never legitimately inbound.
      ++rc->decode_rejects;
      return;
  }
  ++rc->decode_rejects;  // unknown class byte
}

RoundOutcome ShardRuntime::ProcessBatch(std::uint64_t round, bool chaos,
                                        const std::vector<FleetMessage>& batch) {
  RoundOutcome rc;
  fault::FaultPlane plane(
      params_.wire,
      util::HashCombine64(shard_key_, RoundStream(round, kSaltBatch)));
  fault::FaultPlane* wire = chaos ? &plane : nullptr;
  try {
    if (Poisoned(round)) {
      throw std::logic_error("shard poisoned (injected wedge)");
    }
    cc_->AdvanceTime(static_cast<double>(round) * params_.round_dt);
    for (const FleetMessage& msg : batch) HandleInbound(msg, wire, &rc);
    DeliverDirectives(cc_->CollectRetries(), wire, &rc.directives,
                      &rc.outbound);
    cc_->EvictStale(params_.stale_age);
    // Isolation invariant: the controller must only ever know ids from this
    // shard's block. Anything else means cross-shard state leaked.
    const std::int64_t lo = IdBase();
    const std::int64_t hi =
        lo + static_cast<std::int64_t>(clients_.size());
    for (std::int64_t id : cc_->UserIds()) {
      if (id < lo || id >= hi) {
        rc.failures.push_back(
            FailureEvent{FailureKind::kInvariant,
                         core::ErrorCategory::kProgrammingError,
                         "controller holds a foreign user id"});
        break;
      }
    }
  } catch (const std::exception& e) {
    rc.failures.push_back(FailureEvent{
        FailureKind::kException, core::ErrorCategory::kProgrammingError,
        e.what()});
  }
  if (rc.decode_rejects >= params_.decode_storm_threshold) {
    rc.failures.push_back(FailureEvent{FailureKind::kDecodeStorm,
                                       core::ErrorCategory::kWireFault,
                                       "decode-reject storm"});
  }
  return rc;
}

ReoptOutcome ShardRuntime::Reoptimize(std::uint64_t round, bool chaos,
                                      core::ReoptTier tier) {
  ReoptOutcome ro;
  fault::FaultPlane plane(
      params_.wire,
      util::HashCombine64(shard_key_, RoundStream(round, kSaltReopt)));
  fault::FaultPlane* wire = chaos ? &plane : nullptr;
  try {
    cc_->AdvanceTime(static_cast<double>(round) * params_.round_dt);
    core::ReoptReport report = cc_->ReoptimizeAtTier(tier);
    ro.ran = true;
    ro.tier = report.tier;
    DeliverDirectives(report.directives, wire, &ro.directives, &ro.outbound);
  } catch (const std::exception& e) {
    ro.failures.push_back(FailureEvent{
        FailureKind::kException, core::ErrorCategory::kProgrammingError,
        e.what()});
  }
  return ro;
}

ReoptOutcome ShardRuntime::ReoptimizeBudget(std::uint64_t round,
                                            double budget_seconds) {
  ReoptOutcome ro;
  try {
    cc_->AdvanceTime(static_cast<double>(round) * params_.round_dt);
    core::ReoptReport report = cc_->Reoptimize(budget_seconds);
    ro.ran = true;
    ro.tier = report.tier;
    if (report.budget_limited) {
      ro.failures.push_back(FailureEvent{FailureKind::kReoptOverrun,
                                         core::ErrorCategory::kNone,
                                         "reopt budget overrun"});
    }
    DeliverDirectives(report.directives, /*wire=*/nullptr, &ro.directives,
                      &ro.outbound);
  } catch (const std::exception& e) {
    ro.failures.push_back(FailureEvent{
        FailureKind::kException, core::ErrorCategory::kProgrammingError,
        e.what()});
  }
  return ro;
}

void ShardRuntime::Restart(std::uint64_t round) {
  cc_ = MakeController();
  cc_->AdvanceTime(static_cast<double>(round) * params_.round_dt);
}

double ShardRuntime::TruthAggregate() const {
  model::Assignment assign(truth_.NumUsers());
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    const Client& client = clients_[i];
    if (!client.alive || client.extender < 0 ||
        client.extender >= static_cast<int>(truth_.NumExtenders())) {
      continue;
    }
    if (truth_.WifiRate(i, static_cast<std::size_t>(client.extender)) <= 0.0) {
      continue;  // client applied a directive to a link it cannot hear
    }
    assign.Assign(i, static_cast<std::size_t>(client.extender));
  }
  return model::Evaluator()
      .Evaluate(truth_, assign, truth_scratch_)
      .aggregate_mbps;
}

std::vector<int> ShardRuntime::ClientExtenders() const {
  std::vector<int> out(clients_.size(), -1);
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    if (clients_[i].alive) out[i] = clients_[i].extender;
  }
  return out;
}

void ShardRuntime::SaveState(std::string* out) const {
  util::PutU64(out, clients_.size());
  for (const Client& client : clients_) {
    util::PutU8(out, client.alive ? 1 : 0);
    util::PutI32(out, client.extender);
    util::PutU64(out, client.rejoin_round);
  }
  util::PutU64Vec(out, down_until_);
  std::string blob;
  cc_->SaveState(&blob);
  util::PutString(out, blob);
}

bool ShardRuntime::RestoreState(util::ByteCursor* cur) {
  const std::uint64_t n = cur->U64();
  if (!cur->ok() || n != clients_.size()) return false;
  std::vector<Client> clients(clients_.size());
  for (Client& client : clients) {
    client.alive = cur->U8() != 0;
    client.extender = cur->I32();
    client.rejoin_round = cur->U64();
    if (!cur->ok() || client.extender < -1 ||
        client.extender >= static_cast<int>(truth_.NumExtenders())) {
      return false;
    }
  }
  std::vector<std::uint64_t> down;
  if (!cur->U64Vec(&down)) return false;
  const std::string blob = cur->String();
  if (!cur->ok() || down.size() != down_until_.size()) return false;

  std::unique_ptr<core::CentralController> cc = MakeController();
  util::ByteCursor blob_cur(blob);
  if (!cc->RestoreState(&blob_cur)) return false;

  clients_ = std::move(clients);
  down_until_ = std::move(down);
  for (std::size_t j = 0; j < truth_.NumExtenders(); ++j) {
    truth_.SetPlcRate(j, down_until_[j] != 0 ? 0.0 : base_plc_[j]);
  }
  cc_ = std::move(cc);
  return true;
}

}  // namespace wolt::fleet
