#include "common.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace e2e {

void Fail(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "e2e: CHECK FAILED: %s\n", what.c_str());
  std::exit(3);
}

void Digest::Add(std::string_view bytes) {
  for (const char c : bytes) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ULL;
  }
  // Length separator so ("ab","c") and ("a","bc") differ.
  AddU64(bytes.size());
}

void Digest::AddU64(std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (x >> (8 * i)) & 0xFF;
    h_ *= 1099511628211ULL;
  }
}

void Digest::AddDouble(double x) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof bits);
  AddU64(bits);
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return s;
}

BestOfR::BestOfR(std::size_t ops, std::vector<bool> latency_mask)
    : best_(ops, std::numeric_limits<double>::infinity()),
      mask_(latency_mask.empty() ? std::vector<bool>(ops, true)
                                 : std::move(latency_mask)) {}

void BestOfR::Fold(const std::vector<double>& replay) {
  Check(replay.size() == best_.size(), "replay op count changed");
  std::vector<double> latency;
  for (std::size_t i = 0; i < replay.size(); ++i) {
    best_[i] = std::min(best_[i], replay[i]);
    if (mask_[i]) latency.push_back(replay[i]);
  }
  raw_p50_.push_back(Percentile(latency, 0.50));
  raw_p90_.push_back(Percentile(latency, 0.90));
}

std::vector<double> BestOfR::Select(const std::vector<bool>& mask) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < best_.size() && i < mask.size(); ++i) {
    if (mask[i]) out.push_back(best_[i]);
  }
  return out;
}

namespace {

// Defeats constant folding of the probe inputs.
volatile std::uint64_t g_probe_seed = 0x9E3779B97F4A7C15ULL;
volatile std::uint64_t g_probe_sink = 0;

double AluProbeUs() {
  constexpr int kSteps = 300000;
  std::uint64_t x = g_probe_seed;
  const std::int64_t t0 = NowNs();
  for (int i = 0; i < kSteps; ++i) x = x * 6364136223846793005ULL + 1;
  const std::int64_t t1 = NowNs();
  g_probe_sink = x;
  return NsToUs(t1 - t0);
}

// One random cycle through 1 MB of 32-bit slots (Sattolo's shuffle).
const std::vector<std::uint32_t>& ChaseRing() {
  static const std::vector<std::uint32_t> ring = [] {
    constexpr std::uint32_t kSlots = (1u << 20) / sizeof(std::uint32_t);
    std::vector<std::uint32_t> order(kSlots);
    for (std::uint32_t i = 0; i < kSlots; ++i) order[i] = i;
    std::uint64_t s = 0x2545F4914F6CDD1DULL;
    for (std::uint32_t i = kSlots - 1; i > 0; --i) {
      s ^= s << 13;
      s ^= s >> 7;
      s ^= s << 17;
      std::swap(order[i], order[s % i]);
    }
    std::vector<std::uint32_t> next(kSlots);
    for (std::uint32_t i = 0; i < kSlots; ++i) {
      next[order[i]] = order[(i + 1) % kSlots];
    }
    return next;
  }();
  return ring;
}

double MemProbeUs() {
  const std::vector<std::uint32_t>& ring = ChaseRing();
  std::uint32_t at = static_cast<std::uint32_t>(g_probe_seed % ring.size());
  const std::int64_t t0 = NowNs();
  for (std::size_t i = 0; i < ring.size(); ++i) at = ring[at];
  const std::int64_t t1 = NowNs();
  g_probe_sink = at;
  return NsToUs(t1 - t0);
}

}  // namespace

HostProbes RunHostProbes() {
  constexpr int kReps = 7;
  std::vector<double> alu, mem;
  MemProbeUs();  // build the ring and warm it once
  for (int i = 0; i < kReps; ++i) {
    alu.push_back(AluProbeUs());
    mem.push_back(MemProbeUs());
  }
  return {Median(alu), Median(mem)};
}

namespace {

const std::vector<int>& StartCpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

}  // namespace

std::size_t NumSlots() { return std::max<std::size_t>(1, StartCpus().size()); }

void PinToSlot(std::size_t slot, int width) {
  const std::vector<int>& cpus = StartCpus();
  if (cpus.size() <= static_cast<std::size_t>(width)) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int k = 0; k < width; ++k) {
    CPU_SET(cpus[(slot + static_cast<std::size_t>(k)) % cpus.size()], &set);
  }
  sched_setaffinity(0, sizeof set, &set);
}

double PeakRssMb() {
  // VmHWM is this process image's own high-water mark. getrusage's
  // ru_maxrss is not: it keeps the parent's peak across fork and exec, so
  // under a Python launcher it reported the launcher's size.
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (std::fgets(line, sizeof line, f) != nullptr) {
      if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
    }
    std::fclose(f);
    if (kib >= 0) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

int SpanLog::Add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                 int parent, std::int64_t op, int tid) {
  spans_.push_back({name, start_ns, end_ns, parent, op, tid});
  return static_cast<int>(spans_.size()) - 1;
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                 "\"pid\":1,\"tid\":%d,\"args\":{\"op\":%lld,\"span\":%zu,"
                 "\"parent\":%d}}",
                 i == 0 ? "" : ",\n", s.name, NsToUs(s.start_ns - origin),
                 NsToUs(s.end_ns - s.start_ns), s.tid,
                 static_cast<long long>(s.op), i, s.parent);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

bool WriteText(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

std::string Format(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  return buf;
}

}  // namespace e2e
