// Shared machinery of the end-to-end benchmark: the best-of-R replay
// estimator, percentile helpers, replay digests, host probes, allocation
// counting, in-memory spans and the result record every workload returns.
//
// The estimator: a workload's timed op stream is deterministic, so replaying
// it R times with fresh state does identical work each time. Host contention
// (other tenants' cache and memory traffic) only ever adds time, so each
// op's minimum over the R replays converges on the program's own service
// time. Percentiles are taken over those per-op minima.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double NsToUs(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  // where the traced run writes its trace and table
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run hands back to main(): the metric set of the mode it
// ran in (end-to-end untraced, per-layer traced), op accounting, and lines
// of human-readable detail printed before the result.
struct Result {
  std::uint64_t attempted = 0;  // timed ops over all replays
  std::uint64_t failed = 0;     // timed ops whose handling failed
  std::vector<Metric> metrics;
  std::vector<std::string> detail;
};

// A failed correctness check: prints the reason and exits non-zero without
// a result line.
[[noreturn]] void Fail(const std::string& what);
inline void Check(bool ok, const std::string& what) {
  if (!ok) Fail(what);
}

// FNV-1a over everything a replay produced; two replays of one op stream
// must agree byte for byte.
class Digest {
 public:
  void Add(std::string_view bytes);
  void AddU64(std::uint64_t x);
  void AddDouble(double x);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

// Linear-interpolation percentile (q in [0, 1]) of an unsorted sample.
double Percentile(std::vector<double> v, double q);
double Median(std::vector<double> v);
double Sum(const std::vector<double>& v);

// Per-op minimum over replays. Fold() takes one replay's per-op times. For
// comparison with the estimate, each replay's own p50 and p90 over the
// latency ops (`latency_mask`; empty = all ops) are kept, not the raw
// samples: their memory would grow with the replay count, and with it
// peak_rss_mb.
class BestOfR {
 public:
  explicit BestOfR(std::size_t ops = 0, std::vector<bool> latency_mask = {});
  void Fold(const std::vector<double>& replay);
  const std::vector<double>& best() const { return best_; }
  std::size_t replays() const { return raw_p50_.size(); }
  // best() restricted to the latency ops.
  std::vector<double> LatencyBest() const { return Select(mask_); }
  // Median over replays of each replay's raw p50 / p90 of the latency ops.
  double RawP50() const { return Median(raw_p50_); }
  double RawP90() const { return Median(raw_p90_); }
  // best() restricted to the ops whose `mask` entry is true.
  std::vector<double> Select(const std::vector<bool>& mask) const;

 private:
  std::vector<double> best_;
  std::vector<bool> mask_;
  std::vector<double> raw_p50_;
  std::vector<double> raw_p90_;
};

// Pins the calling thread (and the threads it creates afterwards) to
// `width` consecutive CPUs of the set this process started with, starting
// at slot `slot` (modulo the CPU count). NumSlots() is that CPU count.
void PinToSlot(std::size_t slot, int width);
std::size_t NumSlots();

// Calls replay(r) for r = 0, 1, ... until `seconds` of wall time are spent
// and at least `min_replays` have run; replay(r) returns its own cost (any
// time measure of the whole replay). Returns the replay count.
//
// Contention from other tenants on this host comes and goes per core over
// seconds. Each replay is pinned to one slot: every slot is tried first,
// then replays go to the slot whose latest replay was cheapest, with every
// third replay still cycling through all slots so a core that has gone
// quiet is found again. More replays land on quiet cores, which is what the
// per-op minimum needs.
template <class F>
std::size_t ReplayFor(double seconds, std::size_t min_replays, int width,
                      F&& replay) {
  const std::int64_t stop = NowNs() + static_cast<std::int64_t>(seconds * 1e9);
  const std::size_t slots = NumSlots();
  std::vector<double> latest(slots, 0.0);
  std::size_t r = 0;
  while (r < min_replays || NowNs() < stop) {
    std::size_t slot = 0;
    if (r < slots) {
      slot = r;
    } else if (r % 3 == 0) {
      slot = (r / 3) % slots;
    } else {
      for (std::size_t k = 1; k < slots; ++k) {
        if (latest[k] < latest[slot]) slot = k;
      }
    }
    PinToSlot(slot, width);
    latest[slot] = replay(r++);
  }
  return r;
}

// Host probes, in the benchmark's own code: a fixed dependent multiply
// chain (clock speed) and a 1 MB random pointer chase (cache and memory
// contention from other tenants). Each is the median of several runs, in µs.
struct HostProbes {
  double alu_us = 0.0;
  double mem_us = 0.0;
};
HostProbes RunHostProbes();

// Peak resident set of this process, MB.
double PeakRssMb();

// Global operator new counting (alloc.cc). Counts only between Start and
// Stop; any thread's allocations count while the flag is set.
struct AllocTally {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
void AllocCountStart();
AllocTally AllocCountStop();

// In-memory spans of the traced run, written out as Chrome trace JSON after
// the workload ends. `parent` indexes the span that caused this one (-1 for
// an op's root span); `op` is the message, round or task id.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::int64_t op = 0;
  int tid = 0;
};

class SpanLog {
 public:
  void Clear() { spans_.clear(); }
  int Add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
          int parent, std::int64_t op, int tid = 0);
  void SetEnd(int span, std::int64_t end_ns) { spans_[span].end_ns = end_ns; }
  const std::vector<Span>& spans() const { return spans_; }
  // Chrome trace_event JSON ("X" events, args carry op and parent).
  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

// Writes `text` to `path`; false on failure.
bool WriteText(const std::string& path, const std::string& text);

std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace e2e
