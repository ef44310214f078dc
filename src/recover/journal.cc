#include "recover/journal.h"

#include <algorithm>
#include <cstdio>

#include "obs/obs.h"
#include "util/codec.h"

namespace wolt::recover {
namespace {

// Binary payload encoding lives in util/codec.h (shared with the fleet
// journal and the controller state snapshots): native-order fixed-width
// integers, raw 8-byte doubles, bounds-checked ByteCursor reads.
using util::PutDouble;
using util::PutString;
using util::PutU32;
using util::PutU64;
using util::PutU8;
using Cursor = util::ByteCursor;

// Record kinds inside a frame payload (first byte).
constexpr std::uint8_t kKindHeader = 1;
constexpr std::uint8_t kKindTask = 2;
constexpr std::uint8_t kKindSchema = 3;

constexpr std::uint64_t kMaxMetrics = 1u << 20;

const FramedLogWriter::Kind kSweepLog{
    kJournalMagic, "journal", [](obs::MetricsScope& s) {
      s.recover.journal_io_error.Add(1);
      s.recover.journal_degraded.Add(1);
    }};

template <typename Sample>
void PutHeads(std::string* out, const std::vector<Sample>& samples) {
  PutU64(out, samples.size());
  for (const Sample& s : samples) {
    PutString(out, s.name);
    PutU8(out, s.timing ? 1 : 0);
  }
}

template <typename Sample>
bool ReadHeads(Cursor* cur, std::vector<Sample>* out) {
  const std::uint64_t n = cur->U64();
  if (!cur->ok() || n > kMaxMetrics) return false;
  out->resize(static_cast<std::size_t>(n));
  for (Sample& s : *out) {
    s.name = cur->String();
    s.timing = cur->U8() != 0;
  }
  return cur->ok();
}

}  // namespace

std::string EncodeHeaderPayload(const JournalHeader& header) {
  std::string out;
  PutU8(&out, kKindHeader);
  PutU32(&out, kJournalVersion);
  PutU64(&out, header.fingerprint);
  PutU64(&out, header.num_tasks);
  return out;
}

bool DecodeHeaderPayload(std::string_view payload, JournalHeader* out) {
  Cursor cur(payload);
  if (cur.U8() != kKindHeader) return false;
  if (cur.U32() != kJournalVersion) return false;
  out->fingerprint = cur.U64();
  out->num_tasks = cur.U64();
  return cur.AtEnd();
}

std::string EncodeSchemaPayload(const obs::MetricsSnapshot& metrics) {
  std::string out;
  PutU8(&out, kKindSchema);
  PutHeads(&out, metrics.counters);
  PutHeads(&out, metrics.gauges);
  PutHeads(&out, metrics.histograms);
  for (const obs::HistogramSample& h : metrics.histograms) {
    util::PutDoubleVec(&out, h.bounds);
    PutU64(&out, h.counts.size());
  }
  return out;
}

bool DecodeSchemaPayload(std::string_view payload,
                         obs::MetricsSnapshot* schema) {
  Cursor cur(payload);
  if (cur.U8() != kKindSchema) return false;
  if (!ReadHeads(&cur, &schema->counters) ||
      !ReadHeads(&cur, &schema->gauges) ||
      !ReadHeads(&cur, &schema->histograms)) {
    return false;
  }
  for (obs::HistogramSample& h : schema->histograms) {
    if (!cur.DoubleVec(&h.bounds)) return false;
    const std::uint64_t buckets = cur.U64();
    if (!cur.ok() || buckets > kMaxMetrics) return false;
    h.counts.assign(static_cast<std::size_t>(buckets), 0);
  }
  return cur.AtEnd();
}

std::string EncodeTaskPayload(const TaskRecord& record) {
  std::string out;
  PutU8(&out, kKindTask);
  PutU64(&out, record.index);
  PutString(&out, record.error);
  PutDouble(&out, record.aggregate_mbps);
  PutDouble(&out, record.jain_fairness);
  PutDouble(&out, record.oracle_mbps);
  PutDouble(&out, record.regret);
  PutDouble(&out, record.reassoc_per_user_epoch);
  PutU64(&out, record.quarantine_trips);
  PutDouble(&out, record.elapsed_us);
  util::PutDoubleVec(&out, record.user_throughput);
  PutU8(&out, record.has_metrics ? 1 : 0);
  if (!record.has_metrics) return out;
  const obs::MetricsSnapshot& m = record.metrics;
  for (const obs::CounterSample& c : m.counters) PutU64(&out, c.value);
  for (const obs::GaugeSample& g : m.gauges) PutDouble(&out, g.value);
  for (const obs::HistogramSample& h : m.histograms) {
    for (std::uint64_t c : h.counts) PutU64(&out, c);
    PutU64(&out, h.underflow);
    PutU64(&out, h.overflow);
    PutU64(&out, h.rejected);
  }
  return out;
}

bool DecodeTaskPayload(std::string_view payload,
                       const obs::MetricsSnapshot* schema, TaskRecord* out) {
  Cursor cur(payload);
  if (cur.U8() != kKindTask) return false;
  out->index = cur.U64();
  out->error = cur.String();
  out->aggregate_mbps = cur.Double();
  out->jain_fairness = cur.Double();
  out->oracle_mbps = cur.Double();
  out->regret = cur.Double();
  out->reassoc_per_user_epoch = cur.Double();
  out->quarantine_trips = cur.U64();
  out->elapsed_us = cur.Double();
  if (!cur.DoubleVec(&out->user_throughput)) return false;
  out->has_metrics = cur.U8() != 0;
  if (!out->has_metrics) return cur.AtEnd();
  if (schema == nullptr) return false;  // values without their names
  obs::MetricsSnapshot& m = out->metrics;
  m = *schema;
  for (obs::CounterSample& c : m.counters) c.value = cur.U64();
  for (obs::GaugeSample& g : m.gauges) g.value = cur.Double();
  for (obs::HistogramSample& h : m.histograms) {
    for (std::uint64_t& c : h.counts) c = cur.U64();
    h.underflow = cur.U64();
    h.overflow = cur.U64();
    h.rejected = cur.U64();
  }
  return cur.AtEnd();
}

JournalReadResult ReadJournal(const std::string& path, io::Vfs* vfs_in) {
  io::Vfs& vfs = io::OrDefault(vfs_in);
  JournalReadResult out;

  std::string bytes;
  if (!vfs.ReadFileBytes(path, &bytes).ok()) {
    out.error = "cannot open journal: " + path;
    return out;
  }

  bool saw_header = false;
  bool has_schema = false;
  obs::MetricsSnapshot schema;
  std::vector<std::uint64_t> seen;
  const FrameScan scan = ScanFrames(
      bytes, kJournalMagic, [&](std::string_view payload, std::uint64_t) {
        if (!saw_header) {
          // The first record must be the header; anything else means this
          // is not a journal (or its head is corrupt) and nothing can be
          // salvaged.
          saw_header = DecodeHeaderPayload(payload, &out.header);
          if (!saw_header) {
            out.error = "journal header record is missing or corrupt: " + path;
          }
          return saw_header;
        }
        if (!payload.empty() && payload[0] == kKindSchema) {
          has_schema = DecodeSchemaPayload(payload, &schema);
          return has_schema;
        }
        TaskRecord rec;
        if (!DecodeTaskPayload(payload, has_schema ? &schema : nullptr,
                               &rec)) {
          return false;
        }
        if (std::find(seen.begin(), seen.end(), rec.index) != seen.end()) {
          ++out.duplicates;
        } else {
          seen.push_back(rec.index);
          out.records.push_back(std::move(rec));
        }
        return true;
      });

  if (!saw_header) {
    if (out.error.empty()) {
      out.error = "journal has no valid header record: " + path;
    }
    out.torn_bytes = bytes.size();
    return out;
  }
  out.ok = true;
  out.valid_bytes = scan.valid_bytes;
  out.torn_bytes = scan.torn_bytes;
  out.tail_torn = scan.tail_torn;
  out.tail_rot = scan.tail_rot;
  if (obs::MetricsScope* s = obs::CurrentScope()) {
    if (out.tail_torn) s->recover.journal_torn_tail.Add(1);
    if (out.tail_rot) s->recover.journal_rot_truncated.Add(1);
  }
  return out;
}

// ---------------------------------------------------------------------------
// JournalWriter

namespace {

FramedLogWriter::Options LogOptions(const JournalWriter::Options& options) {
  FramedLogWriter::Options log;
  log.vfs = options.vfs;
  log.sync_every_append = options.sync_every_append;
  return log;  // after_append counts task records, so the journal fires it
}

}  // namespace

JournalWriter::JournalWriter(const std::string& path,
                             const JournalHeader& header, Options options)
    : header_(header),
      options_(std::move(options)),
      log_(path, kSweepLog, LogOptions(options_)) {
  log_.OpenFresh(EncodeHeaderPayload(header_));
}

JournalWriter::JournalWriter(const std::string& path,
                             const JournalReadResult& existing,
                             Options options)
    : header_(existing.header),
      options_(std::move(options)),
      log_(path, kSweepLog, LogOptions(options_)) {
  if (!existing.ok) return;  // caller decides; typically restart fresh
  // Discard the torn tail so appended records land right after the valid
  // prefix, then keep writing the same file.
  log_.Resume(existing.valid_bytes);
  if (!log_.ok()) return;
  records_.reserve(existing.records.size());
  seen_indices_.reserve(existing.records.size());
  for (const TaskRecord& rec : existing.records) {
    records_.push_back({EncodeTaskPayload(rec),
                        rec.has_metrics ? InternSchema(rec.metrics) : -1});
    seen_indices_.push_back(rec.index);
  }
}

int JournalWriter::InternSchema(const obs::MetricsSnapshot& metrics) {
  std::string schema = EncodeSchemaPayload(metrics);
  for (std::size_t i = schemas_.size(); i-- > 0;) {
    if (schemas_[i] == schema) return static_cast<int>(i);
  }
  schemas_.push_back(std::move(schema));
  return static_cast<int>(schemas_.size() - 1);
}

void JournalWriter::Append(const TaskRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!log_.ok()) return;
  if (std::find(seen_indices_.begin(), seen_indices_.end(), record.index) !=
      seen_indices_.end()) {
    return;  // already journaled (restored on resume); keep one copy
  }
  const int schema = record.has_metrics ? InternSchema(record.metrics) : -1;
  if (schema >= 0 && schema != in_force_) {
    log_.Append(schemas_[schema]);
    in_force_ = schema;
  }
  std::string payload = EncodeTaskPayload(record);
  log_.Append(payload);
  if (!log_.ok()) return;
  records_.push_back({std::move(payload), schema});
  seen_indices_.push_back(record.index);
  ++appends_;
  if (options_.compact_every > 0 && appends_ % options_.compact_every == 0) {
    Compact();
  }
  if (options_.after_append) options_.after_append(appends_);
}

void JournalWriter::Compact() {
  // Rewrite the whole journal (header, deduped records, a schema record
  // wherever the metrics shape changes) and reopen it for appending. A
  // crash or an I/O failure (ENOSPC mid-rewrite) leaves the old journal —
  // still valid, maybe with duplicates — and appends continue after it.
  std::string contents;
  AppendFrame(kJournalMagic, EncodeHeaderPayload(header_), &contents);
  int in_force = -1;
  for (const Stored& rec : records_) {
    if (rec.schema >= 0 && rec.schema != in_force) {
      AppendFrame(kJournalMagic, schemas_[rec.schema], &contents);
      in_force = rec.schema;
    }
    AppendFrame(kJournalMagic, rec.payload, &contents);
  }
  const io::IoStatus st = log_.Replace(contents);
  if (st.ok()) {
    in_force_ = in_force;
    return;
  }
  std::fprintf(stderr,
               "wolt: journal %s: compaction failed (%s); keeping the "
               "uncompacted journal\n",
               log_.path().c_str(), st.Message().c_str());
  if (obs::MetricsScope* s = obs::CurrentScope()) {
    s->recover.journal_compact_failed.Add(1);
  }
}

void JournalWriter::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  log_.Close();
}

}  // namespace wolt::recover
