// building-mobile: the paper's per-scan control path (§V-A). A floor of
// 30 extenders and about 120 concurrent users with waypoint mobility and
// Poisson churn (sim::GenerateTrace) is replayed as CAPACITY, SCAN, DEPART
// and ACK wire lines into a CentralController running sticky WOLT, with a
// Reoptimize() epoch at every trace time unit. One client, closed loop: each
// directive that comes back is acknowledged before the next line is sent.
// A replay visits four such floors in turn, each with a fresh controller:
// one floor's user placement alone moves the Phase-I cost by a quarter from
// seed to seed, and four independent floors average that down while the
// working set stays one floor.
//
// An op is one wire line from bytes in to directive bytes out (or one
// epoch). Latency percentiles are over SCAN ops. Throughput counts client
// scans: scans per replay over the summed best-of-R times of every op, so
// the acks and epochs a scan causes are charged to it. (Counting the acks
// as work items too would let the ack count, which varies by seed, move it.)
#include <cmath>
#include <memory>
#include <optional>
#include <unordered_map>

#include "core/controller.h"
#include "core/wolt.h"
#include "model/evaluator.h"
#include "obs/obs.h"
#include "sim/scenario.h"
#include "sim/workload.h"
#include "util/rng.h"
#include "workloads.h"

namespace e2e {
namespace {

using namespace wolt;

constexpr std::size_t kExtenders = 30;
constexpr std::size_t kUsers = 120;
constexpr double kFloorM = 150.0;
constexpr std::size_t kFloors = 4;
constexpr double kHorizon = 3.0;       // trace time units = epochs per floor
constexpr double kMeanSession = 200.0;  // light churn keeps ~kUsers concurrent
// The floors themselves (extender positions, PLC capacities) are fixed; the
// seed drives who is on them and how they move. Floors drawn per seed would
// make every metric swing with the PLC capacities drawn for them.
constexpr std::uint64_t kFloorSeed = 2020;

enum class OpKind { kCapacity, kScan, kDepart, kAck, kReopt };

struct Op {
  OpKind kind = OpKind::kScan;
  double time = 0.0;  // controller clock when the line arrives
  std::string line;   // wire bytes in; empty for an epoch
  bool new_floor = false;  // first op of a floor: start a fresh controller
};

// Everything a replay needs, built before timing starts.
struct Inputs {
  std::vector<Op> ops;       // client script with the client's acks
  std::vector<bool> is_scan;
  std::vector<bool> is_reopt;
  std::uint64_t digest = 0;  // reference replay
  double aggregate_mbps = 0.0;
  std::size_t messages = 0;  // wire lines per replay
  std::size_t directives = 0;
};

core::PolicyPtr MakeWolt() { return std::make_unique<core::WoltPolicy>(); }

// Where a traced replay stamps the layer boundaries of one op.
struct Stamps {
  std::int64_t decoded = 0;
  std::int64_t handled = 0;
};

// The benchmark's server loop around the controller: decode one line,
// dispatch it to its handler, encode the directives that come back into
// `out` (one line each). Returns whether the handler accepted the message.
bool Serve(core::CentralController& ctrl, const Op& op, std::string* out,
           Stamps* st) {
  out->clear();
  std::vector<core::AssociationDirective> directives;
  bool ok = false;
  switch (op.kind) {
    case OpKind::kCapacity: {
      const std::optional<core::CapacityReport> m =
          core::DecodeCapacityReport(op.line);
      if (st) st->decoded = NowNs();
      ok = m && ctrl.HandleCapacityReport(*m) == core::HandleStatus::kOk;
      break;
    }
    case OpKind::kScan: {
      const std::optional<core::ScanReport> m = core::DecodeScanReport(op.line);
      if (st) st->decoded = NowNs();
      if (!m) break;
      core::HandleResult r = ctrl.KnowsUser(m->user_id)
                                 ? ctrl.HandleScanUpdate(*m)
                                 : ctrl.HandleUserArrival(*m);
      ok = r.ok();
      directives = std::move(r.directives);
      break;
    }
    case OpKind::kDepart: {
      const std::optional<core::DepartureNotice> m =
          core::DecodeDepartureNotice(op.line);
      if (st) st->decoded = NowNs();
      ok = m && ctrl.HandleUserDeparture(m->user_id) == core::HandleStatus::kOk;
      break;
    }
    case OpKind::kAck: {
      const std::optional<core::DirectiveAck> m =
          core::DecodeDirectiveAck(op.line);
      if (st) st->decoded = NowNs();
      ok = m && ctrl.HandleDirectiveAck(*m) == core::HandleStatus::kOk;
      break;
    }
    case OpKind::kReopt:
      if (st) st->decoded = NowNs();
      directives = ctrl.Reoptimize();
      ok = true;
      break;
  }
  if (st) st->handled = NowNs();
  for (const core::AssociationDirective& d : directives) {
    out->append(core::Encode(d));
    out->push_back('\n');
  }
  return ok;
}

void DigestOp(Digest* digest, bool ok, const std::string& out) {
  digest->AddU64(ok ? 1 : 0);
  digest->Add(out);
}

void DigestEnd(Digest* digest, const core::CentralController& ctrl) {
  digest->AddDouble(ctrl.CurrentAggregate());
  digest->AddU64(ctrl.NumUsers());
  digest->AddU64(ctrl.PendingDirectives());
}

// The client script of one floor: capacity probes, then one line per trace
// event, with an epoch op at every time unit boundary.
std::vector<Op> ClientScript(std::uint64_t seed, std::size_t floor) {
  sim::ScenarioParams sp;
  sp.num_extenders = kExtenders;
  sp.num_users = 0;
  sp.width_m = kFloorM;
  sp.height_m = kFloorM;
  const sim::ScenarioGenerator generator(sp);
  util::Rng rng(kFloorSeed + floor);
  const model::Network base = generator.Generate(rng);

  sim::WorkloadParams wp;
  wp.horizon = kHorizon;
  wp.initial_users = kUsers;
  wp.mean_session = kMeanSession;
  wp.arrival_rate = static_cast<double>(kUsers) / kMeanSession;
  wp.mobility.model = sim::MobilityModel::kWaypoint;
  wp.move_tick = 1.0;
  const sim::WorkloadTrace trace = sim::GenerateTrace(
      generator, base, wp, util::HashCombine64(seed, floor));

  std::vector<Op> script;
  for (std::size_t j = 0; j < kExtenders; ++j) {
    script.push_back({OpKind::kCapacity, 0.0,
                      core::Encode(core::CapacityReport{static_cast<int>(j),
                                                        base.PlcRate(j)})});
  }
  double epoch = 1.0;
  for (const sim::TraceEvent& ev : trace.events) {
    for (; ev.time > epoch; epoch += 1.0) {
      script.push_back({OpKind::kReopt, epoch, ""});
    }
    switch (ev.kind) {
      case sim::TraceEventKind::kArrival:
      case sim::TraceEventKind::kMove: {
        core::ScanReport scan;
        scan.user_id = ev.user;
        scan.rates_mbps = ev.rates_mbps;
        scan.rssi_dbm = ev.rssi_dbm;
        script.push_back({OpKind::kScan, ev.time, core::Encode(scan)});
        break;
      }
      case sim::TraceEventKind::kDeparture:
        script.push_back({OpKind::kDepart, ev.time,
                          core::Encode(core::DepartureNotice{ev.user})});
        break;
      default:
        break;  // constant load, no background traffic
    }
  }
  for (; epoch <= kHorizon; epoch += 1.0) {
    script.push_back({OpKind::kReopt, epoch, ""});
  }
  script.front().new_floor = true;
  return script;
}

// Set-up: generate the script, then run the reference replay — the client
// acks every directive, which fixes the op stream the timed replays feed —
// and check every directive and epoch on the way.
Inputs Prepare(std::uint64_t seed) {
  std::vector<Op> script;
  for (std::size_t f = 0; f < kFloors; ++f) {
    const std::vector<Op> floor = ClientScript(seed, f);
    script.insert(script.end(), floor.begin(), floor.end());
  }
  Inputs in;
  std::unique_ptr<core::CentralController> ctrl;
  std::unordered_map<std::int64_t, std::vector<double>> rates_of;
  Digest digest;
  std::string out;
  double aggregate_sum = 0.0;
  int epochs = 0;
  const model::Evaluator fresh;
  const auto serve = [&](const Op& op) {
    in.ops.push_back(op);
    ctrl->AdvanceTime(op.time);
    const bool ok = Serve(*ctrl, op, &out, nullptr);
    Check(ok, Format("reference replay: op %zu rejected", in.ops.size() - 1));
    DigestOp(&digest, ok, out);
  };
  for (const Op& op : script) {
    if (op.new_floor) {
      if (ctrl) DigestEnd(&digest, *ctrl);
      ctrl = std::make_unique<core::CentralController>(kExtenders, MakeWolt());
      rates_of.clear();
    }
    if (op.kind == OpKind::kScan) {
      const std::optional<core::ScanReport> m = core::DecodeScanReport(op.line);
      Check(m.has_value(), "client script holds an undecodable scan");
      rates_of[m->user_id] = m->rates_mbps;
    } else if (op.kind == OpKind::kDepart) {
      rates_of.erase(core::DecodeDepartureNotice(op.line)->user_id);
    }
    serve(op);
    const std::string directives = out;
    std::size_t begin = 0;
    while (begin < directives.size()) {
      const std::size_t end = directives.find('\n', begin);
      const std::optional<core::AssociationDirective> d =
          core::DecodeAssociationDirective(directives.substr(begin, end - begin));
      begin = end + 1;
      Check(d.has_value(), "controller sent an undecodable directive");
      const auto it = rates_of.find(d->user_id);
      Check(it != rates_of.end(), "directive for a user that is not live");
      Check(d->extender >= 0 &&
                static_cast<std::size_t>(d->extender) < kExtenders &&
                it->second[static_cast<std::size_t>(d->extender)] > 0.0,
            Format("directive sends user %lld to unreachable extender %d",
                   static_cast<long long>(d->user_id), d->extender));
      ++in.directives;
      serve({OpKind::kAck, op.time,
             core::Encode(core::DirectiveAck{d->user_id, d->extender})});
    }
    if (op.kind == OpKind::kReopt) {
      const double got = ctrl->CurrentAggregate();
      const double want =
          fresh.Evaluate(ctrl->network(), ctrl->assignment()).aggregate_mbps;
      Check(std::fabs(got - want) <= 1e-9 * std::max(1.0, std::fabs(want)),
            Format("CurrentAggregate %.9g != fresh Evaluator %.9g", got, want));
      aggregate_sum += got;
      ++epochs;
    }
  }
  DigestEnd(&digest, *ctrl);
  in.digest = digest.value();
  in.aggregate_mbps = aggregate_sum / std::max(1, epochs);
  for (const Op& op : in.ops) {
    in.is_scan.push_back(op.kind == OpKind::kScan);
    in.is_reopt.push_back(op.kind == OpKind::kReopt);
    if (op.kind != OpKind::kReopt) ++in.messages;
  }
  Check(epochs == static_cast<int>(kFloors * kHorizon), "epoch count drifted");
  return in;
}

// One untraced replay with fresh state: per-op wall time only. With
// `allocs`, also counts the allocations made inside SCAN ops (the counting
// itself costs time, so such a replay's times are not folded).
void ReplayPlain(const Inputs& in, std::vector<double>* op_us,
                 AllocTally* allocs = nullptr) {
  std::unique_ptr<core::CentralController> ctrl;
  Digest digest;
  std::string out;
  for (std::size_t i = 0; i < in.ops.size(); ++i) {
    const Op& op = in.ops[i];
    if (op.new_floor) {
      if (ctrl) DigestEnd(&digest, *ctrl);
      ctrl = std::make_unique<core::CentralController>(kExtenders, MakeWolt());
    }
    ctrl->AdvanceTime(op.time);
    const bool count = allocs != nullptr && in.is_scan[i];
    if (count) AllocCountStart();
    const std::int64_t t0 = NowNs();
    const bool ok = Serve(*ctrl, op, &out, nullptr);
    (*op_us)[i] = NsToUs(NowNs() - t0);
    if (count) {
      const AllocTally a = AllocCountStop();
      allocs->count += a.count;
      allocs->bytes += a.bytes;
    }
    DigestOp(&digest, ok, out);
  }
  DigestEnd(&digest, *ctrl);
  Check(digest.value() == in.digest, "replay diverged from the reference");
}

// The timing decorator: forwards to the wrapped policy and charges its
// wall time (and a span) to the op in flight.
struct PolicyTap {
  SpanLog* spans = nullptr;
  int parent = -1;
  std::int64_t op = 0;
  std::int64_t ns = 0;
};

class TimedPolicy final : public core::AssociationPolicy {
 public:
  TimedPolicy(core::PolicyPtr inner, PolicyTap* tap)
      : inner_(std::move(inner)), tap_(tap) {}
  std::string Name() const override { return inner_->Name(); }
  model::Assignment Associate(const model::Network& net,
                              const model::Assignment& previous) override {
    inner_->SetDeadline(deadline());
    const std::int64_t t0 = NowNs();
    model::Assignment a = inner_->Associate(net, previous);
    const std::int64_t t1 = NowNs();
    tap_->ns += t1 - t0;
    tap_->spans->Add("core.policy", t0, t1, tap_->parent, tap_->op);
    return a;
  }

 private:
  core::PolicyPtr inner_;
  PolicyTap* tap_;
};

// Per-op layer times of one traced replay (µs; 0 where a layer is absent).
struct LayerTimes {
  std::vector<double> op, decode, handle_self, policy, encode, phase1;
  explicit LayerTimes(std::size_t n)
      : op(n), decode(n), handle_self(n), policy(n), encode(n), phase1(n) {}
};

// One traced replay: layer stamps, the timing decorator, spans, counters,
// and a Phase-I probe outside each SCAN's timed interval. Returns the obs
// counters of the replay.
obs::MetricsSnapshot ReplayTraced(const Inputs& in, LayerTimes* lt, SpanLog* spans) {
  spans->Clear();
  PolicyTap tap;
  tap.spans = spans;
  std::unique_ptr<core::CentralController> ctrl;
  core::WoltPolicy probe;
  obs::MetricsRegistry probe_registry;
  obs::MetricsRegistry registry;
  Digest digest;
  std::string out;
  {
    obs::ScopedMetrics scope(registry);
    for (std::size_t i = 0; i < in.ops.size(); ++i) {
      const Op& op = in.ops[i];
      const char* name = op.kind == OpKind::kReopt ? "core.reopt" : "core.msg";
      if (op.new_floor) {
        if (ctrl) DigestEnd(&digest, *ctrl);
        ctrl = std::make_unique<core::CentralController>(
            kExtenders, std::make_unique<TimedPolicy>(MakeWolt(), &tap));
      }
      ctrl->AdvanceTime(op.time);
      Stamps st;
      tap.ns = 0;
      tap.op = static_cast<std::int64_t>(i);
      const std::int64_t t0 = NowNs();
      const int root = spans->Add(name, t0, t0, -1, tap.op);
      tap.parent = root;
      const bool ok = Serve(*ctrl, op, &out, &st);
      const std::int64_t t3 = NowNs();
      spans->SetEnd(root, t3);
      spans->Add("core.decode", t0, st.decoded, root, tap.op);
      spans->Add("core.handle", st.decoded, st.handled, root, tap.op);
      spans->Add("core.encode", st.handled, t3, root, tap.op);
      lt->op[i] = NsToUs(t3 - t0);
      lt->decode[i] = NsToUs(st.decoded - t0);
      lt->policy[i] = NsToUs(tap.ns);
      lt->handle_self[i] = NsToUs(st.handled - st.decoded - tap.ns);
      lt->encode[i] = NsToUs(t3 - st.handled);
      DigestOp(&digest, ok, out);
      if (in.is_scan[i]) {
        obs::ScopedMetrics shadow(probe_registry);  // keep probe counts out
        const std::int64_t p0 = NowNs();
        const core::Phase1Result p1 = probe.ComputePhase1(ctrl->network());
        lt->phase1[i] = NsToUs(NowNs() - p0);
        Check(!p1.deadline_hit, "Phase-I probe hit a deadline");
      }
    }
  }
  DigestEnd(&digest, *ctrl);
  Check(digest.value() == in.digest, "traced replay diverged from the reference");
  return registry.Snapshot();
}

}  // namespace

Result RunBuildingMobile(const RunConfig& cfg) {
  Inputs in;
  std::uint64_t first_digest = 0;
  const double setup_s = BestSetup(1, [&](int i) {
    in = Prepare(cfg.seed);
    if (i == 0) first_digest = in.digest;
    Check(in.digest == first_digest, "set-ups disagree on the reference digest");
  });
  const std::size_t n = in.ops.size();
  std::size_t scans = 0;
  for (const bool s : in.is_scan) scans += s ? 1 : 0;

  Result res;
  res.detail.push_back(Format(
      "building-mobile: %zu ops per replay (%zu scans, %zu wire messages, "
      "%zu directives), reference digest %016llx",
      n, scans, in.messages, in.directives,
      static_cast<unsigned long long>(in.digest)));

  const double plain_seconds = cfg.trace ? cfg.seconds / 2 : cfg.seconds;
  BestOfR plain(n, in.is_scan);
  std::vector<double> op_us(n);
  const std::size_t replays = ReplayFor(plain_seconds, kMinReplays, 1, [&](std::size_t) {
    ReplayPlain(in, &op_us);
    plain.Fold(op_us);
    return Sum(op_us);
  });
  res.attempted = replays * n;
  const std::vector<double> scan_best = plain.Select(in.is_scan);
  res.detail.push_back(LatencyLine(plain));

  if (!cfg.trace) {
    const double throughput =
        static_cast<double>(scans) / (Sum(plain.best()) / 1e6);
    AddEndToEnd(&res, setup_s, scan_best, throughput, in.aggregate_mbps, 1.0);
    return res;
  }

  LayerTimes lt(n);
  BestOfR b_op(n, in.is_scan), b_decode(n), b_self(n), b_policy(n),
      b_encode(n), b_phase1(n);
  AllocTally allocs;
  ReplayPlain(in, &op_us, &allocs);
  SpanLog spans;
  std::vector<obs::MetricsSnapshot> counts;
  const std::size_t traced = ReplayFor(cfg.seconds / 2, kMinReplays, 1, [&](std::size_t) {
    counts.push_back(ReplayTraced(in, &lt, &spans));
    b_op.Fold(lt.op);
    b_decode.Fold(lt.decode);
    b_self.Fold(lt.handle_self);
    b_policy.Fold(lt.policy);
    b_encode.Fold(lt.encode);
    b_phase1.Fold(lt.phase1);
    return Sum(lt.op);
  });
  res.attempted += traced * n;
  for (const obs::MetricsSnapshot& c : counts) {
    Check(c.DeterministicJson() == counts.front().DeterministicJson(),
          "traced replays disagree on the obs counters");
  }

  const obs::MetricsSnapshot& s = counts.front();
  const double ops = static_cast<double>(scans);
  const double msgs = static_cast<double>(in.messages);
  std::vector<double> phase2;
  const std::vector<double> policy_best = b_policy.Select(in.is_scan);
  const std::vector<double> phase1_best = b_phase1.Select(in.is_scan);
  for (std::size_t i = 0; i < policy_best.size(); ++i) {
    phase2.push_back(std::max(0.0, policy_best[i] - phase1_best[i]));
  }

  const std::vector<double> scan_op = b_op.Select(in.is_scan);
  const double residual = LayerResidual(
      {b_decode.Select(in.is_scan), b_self.Select(in.is_scan), policy_best,
       b_encode.Select(in.is_scan)},
      scan_op);
  Check(std::fabs(residual) <= kLayerTolerance,
        Format("scan layers leave %.3f of the op time unexplained", residual));

  res.metrics = {
      {"core.decode_us", Median(b_decode.Select(in.is_scan)), "us"},
      {"core.handle_us", Median(b_self.Select(in.is_scan)), "us"},
      {"core.policy_us", Median(policy_best), "us"},
      {"core.encode_us", Median(b_encode.Select(in.is_scan)), "us"},
      {"core.reopt_us", Median(b_op.Select(in.is_reopt)), "us"},
      {"core.policy_runs_per_msg",
       static_cast<double>(CounterValue(s, "ctrl.policy_runs")) / msgs, "count"},
      {"core.directives_per_msg", static_cast<double>(in.directives) / msgs,
       "count"},
      {"assign.phase1_us", Median(phase1_best), "us"},
      {"assign.phase2_us", Median(phase2), "us"},
      {"alloc.per_op", static_cast<double>(allocs.count) / ops, "count"},
      {"alloc.bytes_per_op", static_cast<double>(allocs.bytes) / ops, "bytes"},
      {"layer_residual", residual, "ratio"},
  };
  AddSolverMetrics(&res, s, ops);
  AddTraceDiagnostics(&res, plain, b_op);
  WriteLayerArtefacts(cfg, spans, res);
  return res;
}

}  // namespace e2e
