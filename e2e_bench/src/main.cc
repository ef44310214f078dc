// Runner of the end-to-end benchmark.
//
//   wolt_e2e --workload <building-mobile|fleet-chaos|sweep-static>
//            --seed <n> --seconds <s> --trace <0|1>
//            [--out-dir <dir>] [--git-sha <sha>] [--src-digest <hex>]
//
// Prints host metadata, probe readings and every metric by name and unit,
// then, as the last line of stdout, one JSON object with the keys correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end metrics,
// --trace 1 the per-layer ones. Any failed check exits non-zero without the
// JSON line.
#include <cpuid.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

namespace {

using namespace e2e;

// Every per-layer metric, in BENCHMARK.json order. A traced run reports all
// of them; a layer that is not on the workload's path reads 0.
const Metric kPerLayer[] = {
    {"core.decode_us", 0, "us"},
    {"core.handle_us", 0, "us"},
    {"core.policy_us", 0, "us"},
    {"core.encode_us", 0, "us"},
    {"core.reopt_us", 0, "us"},
    {"core.policy_runs_per_msg", 0, "count"},
    {"core.directives_per_msg", 0, "count"},
    {"assign.phase1_us", 0, "us"},
    {"assign.phase2_us", 0, "us"},
    {"assign.hungarian_solves_per_op", 0, "count"},
    {"assign.ls_evaluated_per_op", 0, "count"},
    {"assign.ls_prune_ratio", 0, "ratio"},
    {"assign.ls_accept_ratio", 0, "ratio"},
    {"model.evaluations_per_op", 0, "count"},
    {"model.maxmin_rounds_per_op", 0, "count"},
    {"fleet.compute_us", 0, "us"},
    {"fleet.records_us", 0, "us"},
    {"fleet.snapshot_us", 0, "us"},
    {"fleet.delivered_per_round", 0, "count"},
    {"fleet.shed_per_round", 0, "count"},
    {"fleet.decode_rejects_per_round", 0, "count"},
    {"fleet.restarts_per_round", 0, "count"},
    {"fleet.peak_depth", 0, "count"},
    {"fleet.reopt_scheduled_per_round", 0, "count"},
    {"fleet.tier.full", 0, "ratio"},
    {"fleet.tier.hungarian", 0, "ratio"},
    {"fleet.tier.greedy", 0, "ratio"},
    {"fleet.tier.hold", 0, "ratio"},
    {"recover.fleet_bytes_per_round", 0, "bytes"},
    {"recover.sweep_bytes_per_task", 0, "bytes"},
    {"sweep.task_us.wolt", 0, "us"},
    {"sweep.task_us.greedy", 0, "us"},
    {"sweep.task_us.rssi", 0, "us"},
    {"sweep.generate_us", 0, "us"},
    {"sweep.solve_us", 0, "us"},
    {"alloc.per_op", 0, "count"},
    {"alloc.bytes_per_op", 0, "bytes"},
    {"host.alu_probe_us", 0, "us"},
    {"host.mem_probe_us", 0, "us"},
    {"host.contention", 0, "ratio"},
    {"layer_residual", 0, "ratio"},
    {"trace_overhead", 0, "ratio"},
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "wolt_e2e: %s\nusage: wolt_e2e --workload "
               "<building-mobile|fleet-chaos|sweep-static> --seed <n> "
               "--seconds <s> --trace <0|1> [--out-dir <dir>] "
               "[--git-sha <sha>] [--src-digest <hex>]\n",
               why);
  std::exit(2);
}

std::string CpuModel() {
  unsigned regs[12] = {};
  for (unsigned i = 0; i < 3; ++i) {
    if (!__get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                     &regs[4 * i + 2], &regs[4 * i + 3])) {
      return "unknown";
    }
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string s = brand;
  const std::size_t b = s.find_first_not_of(' ');
  return b == std::string::npos ? "unknown" : s.substr(b);
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  cfg.out_dir = ".";
  std::string git_sha = "unknown", src_digest = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      cfg.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      cfg.seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && cfg.seconds > 0;
    } else if (flag == "--trace") {
      cfg.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--out-dir") {
      cfg.out_dir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else if (flag == "--src-digest") {
      src_digest = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds and --trace are required");
  }

  // Timings from anything but an optimised, assertion-free build are not
  // comparable; refuse them outright.
  const std::string build_type = E2E_BUILD_TYPE;
#ifndef NDEBUG
  Fail("built without NDEBUG (build type " + build_type + "); use Release");
#endif
  if (build_type != "Release") {
    Fail("build type is " + build_type + "; the benchmark needs Release");
  }

  const HostProbes before = RunHostProbes();
  std::printf("host: nproc=%ld cpu=\"%s\" build=%s git_sha=%s src_digest=%s\n",
              sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str(),
              build_type.c_str(), git_sha.c_str(), src_digest.c_str());
  std::printf("run: workload=%s seed=%llu seconds=%g trace=%d\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0);

  Result res;
  if (cfg.workload == "building-mobile") {
    res = RunBuildingMobile(cfg);
  } else if (cfg.workload == "fleet-chaos") {
    res = RunFleetChaos(cfg);
  } else if (cfg.workload == "sweep-static") {
    res = RunSweepStatic(cfg);
  } else {
    Usage(("unknown workload " + cfg.workload).c_str());
  }
  const HostProbes after = RunHostProbes();
  std::printf(
      "host probes: alu %.1f us before, %.1f us after; mem %.1f us before, "
      "%.1f us after\n",
      before.alu_us, after.alu_us, before.mem_us, after.mem_us);
  for (const std::string& line : res.detail) std::printf("%s\n", line.c_str());

  if (cfg.trace) {
    res.metrics.push_back({"host.alu_probe_us", before.alu_us, "us"});
    res.metrics.push_back({"host.mem_probe_us", before.mem_us, "us"});
    std::vector<Metric> ordered;
    for (const Metric& want : kPerLayer) {
      Metric m = want;
      for (const Metric& got : res.metrics) {
        if (got.name == want.name) m = got;
      }
      ordered.push_back(m);
    }
    for (const Metric& got : res.metrics) {
      bool known = false;
      for (const Metric& want : kPerLayer) known |= got.name == want.name;
      Check(known, "workload reported an undeclared metric " + got.name);
    }
    res.metrics = ordered;
  }

  for (const Metric& m : res.metrics) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = Format(
      "{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
      static_cast<unsigned long long>(res.attempted),
      static_cast<unsigned long long>(res.failed));
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    json += Format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
