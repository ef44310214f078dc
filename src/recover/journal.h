// Write-ahead journal of completed sweep tasks — the durability layer that
// lets a sweep killed at any instant (including kill -9 mid-record) resume
// and produce byte-identical output to an uninterrupted run.
//
// The file is a framed log (recover/framed_log.h) under the "WJL1" magic:
// framing, checksums, the torn-vs-rot tail scan, appends and degraded mode
// all live there. This file holds the record codecs and what is the sweep's
// own: task-index dedup and compaction.
//
// Records: a header (format version, the grid fingerprint from
// sweep::Fingerprint, the task count — a journal can never be resumed
// against a different sweep), then one record per completed task. Doubles
// are stored as their raw 8 bytes (bit-exact round trip — resume must
// reproduce the uninterrupted run's merge inputs exactly). A task's metrics
// snapshot is stored as values only; the names, timing flags and histogram
// bounds they belong to are a schema record, written whenever a task's
// metrics shape differs from the schema in force. Each fresh, resumed or
// compacted file starts with no schema in force; the reader applies schema
// records in file order, and a values-only record with no schema in force
// is rot.
//
// Sweep semantics on top of the framed log:
//  * Duplicate task indices (possible when a crash lands between "task
//    re-run" and "journal truncated") dedupe first-record-wins; the writer
//    drops an index it already journaled.
//  * Every `compact_every` appends the journal is rewritten without
//    duplicates (FramedLogWriter::Replace: temp file + fsync + rename),
//    bounding file growth across repeated crash/resume cycles.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "io/vfs.h"
#include "obs/metrics.h"
#include "recover/framed_log.h"

namespace wolt::recover {

inline constexpr std::uint32_t kJournalMagic = 0x574A4C31;  // "WJL1"
// Version 2 added the dynamic-workload frontier columns (oracle, regret,
// reassociation rate, quarantine trips) to TaskRecord. Version 3 moved the
// metric names out of task records into schema records.
inline constexpr std::uint32_t kJournalVersion = 3;

struct JournalHeader {
  std::uint64_t fingerprint = 0;  // sweep::Fingerprint of the grid
  std::uint64_t num_tasks = 0;
};

// One completed task's result, exactly the data the sweep merge consumes.
struct TaskRecord {
  std::uint64_t index = 0;
  std::string error;              // non-empty: the task body threw
  double aggregate_mbps = 0.0;
  double jain_fairness = 0.0;
  // Frontier columns (0 for static tasks); see sweep::TaskResult.
  double oracle_mbps = 0.0;
  double regret = 0.0;
  double reassoc_per_user_epoch = 0.0;
  std::uint64_t quarantine_trips = 0;
  double elapsed_us = 0.0;        // timing-quarantined, journaled for
                                  // include_timing reports
  std::vector<double> user_throughput;  // raw samples in insertion order
  bool has_metrics = false;
  obs::MetricsSnapshot metrics;
};

struct JournalReadResult {
  bool ok = false;      // file opened and the header record validated
  std::string error;    // why ok is false
  JournalHeader header;
  // Deduplicated task records (first record for an index wins), in file
  // order of first appearance.
  std::vector<TaskRecord> records;
  std::uint64_t valid_bytes = 0;  // length of the validated prefix
  std::uint64_t torn_bytes = 0;   // bytes past the prefix (discarded)
  std::size_t duplicates = 0;     // duplicate task records dropped
  // Why the valid prefix ended (both false when the file parsed cleanly):
  // a torn tail is an incomplete final frame (crash mid-append, expected);
  // a rotted tail is a complete-looking frame whose magic/checksum/payload
  // is wrong (medium corruption). Counted on recover.journal.torn_tail /
  // recover.journal.rot_truncated when a metrics scope is installed.
  bool tail_torn = false;
  bool tail_rot = false;
};

// Validates `path` front to back. Never throws; failures land in `error`.
// Replay never aborts on damage: a corrupt tail is classified (torn vs rot)
// and truncated back to the last good checksum frame.
JournalReadResult ReadJournal(const std::string& path, io::Vfs* vfs = nullptr);

class JournalWriter {
 public:
  struct Options {
    // Rewrite the journal (dedup + fsync + rename) every this many appends;
    // 0 disables compaction.
    std::size_t compact_every = 64;
    // Test hook, called after each task record has been flushed (and any
    // compaction it triggered has run), with the count of task records
    // appended through this writer; header and schema frames do not
    // count. The crash harness raises SIGKILL in here to die at an exact
    // journal position.
    std::function<void(std::size_t)> after_append;
    // Storage backend; nullptr = the real filesystem.
    io::Vfs* vfs = nullptr;
    // fsync after every frame (see FramedLogWriter::Options).
    bool sync_every_append = false;
  };

  // Fresh journal: truncates `path` and writes the header record.
  JournalWriter(const std::string& path, const JournalHeader& header,
                Options options);

  // Resume: truncates the file to `existing.valid_bytes` (discarding the
  // torn tail ReadJournal found) and appends after the surviving records.
  JournalWriter(const std::string& path, const JournalReadResult& existing,
                Options options);

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  // Journaling is active. When false the writer is a no-op; the run itself
  // keeps going (best-effort mode) — losing the journal must never take the
  // sweep down with it.
  bool ok() const { return log_.ok(); }

  // The writer gave up on journaling after an I/O failure (open, append,
  // truncate or reopen-after-compaction). Flipping to degraded emits one
  // loud stderr warning and bumps recover.journal.{io_error,degraded}.
  bool degraded() const { return log_.degraded(); }

  // Thread-safe: serialize, frame, write. Safe to call from the sweep
  // engine's worker threads. An I/O failure degrades the writer instead of
  // corrupting the journal: the file keeps its valid prefix.
  void Append(const TaskRecord& record);

  // fsync + close. Called by the destructor if not called explicitly.
  void Close();

 private:
  // A journaled task payload and the index into schemas_ of its metrics
  // schema (-1: the record carries no metrics).
  struct Stored {
    std::string payload;
    int schema = -1;
  };

  // Index into schemas_ of `metrics`' schema record, added when new.
  int InternSchema(const obs::MetricsSnapshot& metrics);
  void Compact();

  JournalHeader header_;
  Options options_;
  std::mutex mu_;
  FramedLogWriter log_;
  std::size_t appends_ = 0;
  // Every unique record written (or restored), for compaction.
  std::vector<Stored> records_;
  std::vector<std::uint64_t> seen_indices_;
  std::vector<std::string> schemas_;  // distinct schema record payloads
  int in_force_ = -1;  // schemas_ index of the file's schema in force
};

// Payload codecs, exposed for the torn-tail/corruption unit tests.
std::string EncodeHeaderPayload(const JournalHeader& header);
bool DecodeHeaderPayload(std::string_view payload, JournalHeader* out);
// The schema record of `metrics`: every name, timing flag, histogram bound
// and histogram bucket count, no values.
std::string EncodeSchemaPayload(const obs::MetricsSnapshot& metrics);
bool DecodeSchemaPayload(std::string_view payload,
                         obs::MetricsSnapshot* schema);
// A task record stores its metrics as values only, in schema order; a
// record with metrics decodes only against the schema it was written under
// (`schema` == nullptr: no schema in force, so such a record is rot).
std::string EncodeTaskPayload(const TaskRecord& record);
bool DecodeTaskPayload(std::string_view payload,
                       const obs::MetricsSnapshot* schema, TaskRecord* out);

}  // namespace wolt::recover
