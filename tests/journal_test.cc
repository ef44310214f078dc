// Unit tests for the sweep write-ahead journal (src/recover/): payload
// codec bit-exactness, torn-tail detection at every truncation offset,
// mid-file corruption, duplicate-record dedup, resume-after-truncate,
// compaction bounding file growth, and metric schema records across
// compaction and resume.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "recover/journal.h"

namespace wolt::recover {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return (fs::temp_directory_path() / name).string();
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

std::string Frame(std::string_view payload) {
  std::string out;
  AppendFrame(kJournalMagic, payload, &out);
  return out;
}

void Dump(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TaskRecord MakeRecord(std::uint64_t index) {
  TaskRecord r;
  r.index = index;
  r.aggregate_mbps = 123.456789 + static_cast<double>(index) * 0.25;
  r.jain_fairness = 0.91234567891234567;
  r.elapsed_us = 42.5;
  r.user_throughput = {1.25, 0.0, 7.75e-3, 1e9,
                       static_cast<double>(index) / 3.0};
  return r;
}

void ExpectRecordsEqual(const TaskRecord& a, const TaskRecord& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.error, b.error);
  // Exact double equality: the journal stores raw bits.
  EXPECT_EQ(a.aggregate_mbps, b.aggregate_mbps);
  EXPECT_EQ(a.jain_fairness, b.jain_fairness);
  EXPECT_EQ(a.elapsed_us, b.elapsed_us);
  ASSERT_EQ(a.user_throughput.size(), b.user_throughput.size());
  for (std::size_t i = 0; i < a.user_throughput.size(); ++i) {
    EXPECT_EQ(a.user_throughput[i], b.user_throughput[i]);
  }
  EXPECT_EQ(a.has_metrics, b.has_metrics);
}

TEST(JournalCodec, TaskPayloadRoundTripsBitExactly) {
  TaskRecord rec = MakeRecord(7);
  rec.error = "boom: solver threw";
  rec.has_metrics = true;
  obs::CounterSample c;
  c.name = "eval.evaluations";
  c.value = 12345;
  rec.metrics.counters.push_back(c);
  obs::GaugeSample g;
  g.name = "sweep.wall_seconds";
  g.timing = true;
  g.value = 1.5e-3;
  rec.metrics.gauges.push_back(g);
  obs::HistogramSample h;
  h.name = "sweep.task_latency_us";
  h.timing = true;
  h.bounds = {1.0, 10.0, 100.0};
  h.counts = {0, 3, 9, 1};
  h.overflow = 1;
  rec.metrics.histograms.push_back(h);

  obs::MetricsSnapshot schema;
  ASSERT_TRUE(DecodeSchemaPayload(EncodeSchemaPayload(rec.metrics), &schema));
  const std::string payload = EncodeTaskPayload(rec);
  TaskRecord no_schema;
  EXPECT_FALSE(DecodeTaskPayload(payload, nullptr, &no_schema));
  TaskRecord back;
  ASSERT_TRUE(DecodeTaskPayload(payload, &schema, &back));
  ExpectRecordsEqual(rec, back);
  ASSERT_EQ(back.metrics.counters.size(), 1u);
  EXPECT_EQ(back.metrics.counters[0].name, "eval.evaluations");
  EXPECT_EQ(back.metrics.counters[0].value, 12345u);
  ASSERT_EQ(back.metrics.gauges.size(), 1u);
  EXPECT_TRUE(back.metrics.gauges[0].timing);
  EXPECT_EQ(back.metrics.gauges[0].value, 1.5e-3);
  ASSERT_EQ(back.metrics.histograms.size(), 1u);
  EXPECT_EQ(back.metrics.histograms[0].counts,
            (std::vector<std::uint64_t>{0, 3, 9, 1}));
  EXPECT_EQ(back.metrics.histograms[0].overflow, 1u);
}

TEST(JournalCodec, HeaderPayloadRoundTrips) {
  JournalHeader h;
  h.fingerprint = 0xDEADBEEFCAFEF00DULL;
  h.num_tasks = 200;
  JournalHeader back;
  ASSERT_TRUE(DecodeHeaderPayload(EncodeHeaderPayload(h), &back));
  EXPECT_EQ(back.fingerprint, h.fingerprint);
  EXPECT_EQ(back.num_tasks, h.num_tasks);
}

TEST(JournalCodec, DecodeRejectsTruncatedPayloads) {
  const std::string payload = EncodeTaskPayload(MakeRecord(3));
  for (std::size_t cut = 0; cut < payload.size(); ++cut) {
    TaskRecord out;
    EXPECT_FALSE(DecodeTaskPayload(payload.substr(0, cut), nullptr, &out))
        << "cut at " << cut;
  }
}

TEST(JournalRead, MissingFileIsNotOk) {
  const JournalReadResult r = ReadJournal(TempPath("wolt_journal_nope.wal"));
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
}

TEST(JournalRead, EmptyOrHeaderlessFileIsNotOk) {
  const std::string path = TempPath("wolt_journal_empty.wal");
  Dump(path, "");
  EXPECT_FALSE(ReadJournal(path).ok);
  // A valid task frame without a preceding header record is also invalid.
  Dump(path, Frame(EncodeTaskPayload(MakeRecord(0))));
  const JournalReadResult r = ReadJournal(path);
  EXPECT_FALSE(r.ok);
  fs::remove(path);
}

// The central crash property at the file layer: cut the journal at EVERY
// byte offset; the reader must recover exactly the records whose frames
// survived whole and report the rest as torn.
TEST(JournalRead, TruncationAtEveryOffsetRecoversValidPrefix) {
  JournalHeader header;
  header.fingerprint = 0x5EEDULL;
  header.num_tasks = 3;
  std::string bytes = Frame(EncodeHeaderPayload(header));
  std::vector<std::uint64_t> frame_ends;  // cumulative end of each task frame
  for (std::uint64_t i = 0; i < 3; ++i) {
    bytes += Frame(EncodeTaskPayload(MakeRecord(i)));
    frame_ends.push_back(bytes.size());
  }
  const std::uint64_t header_end =
      frame_ends.empty() ? bytes.size() : frame_ends[0] -
          Frame(EncodeTaskPayload(MakeRecord(0))).size();

  const std::string path = TempPath("wolt_journal_trunc.wal");
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    Dump(path, bytes.substr(0, cut));
    const JournalReadResult r = ReadJournal(path);
    if (cut < header_end) {
      EXPECT_FALSE(r.ok) << "cut at " << cut;
      continue;
    }
    ASSERT_TRUE(r.ok) << "cut at " << cut << ": " << r.error;
    std::size_t expect_records = 0;
    std::uint64_t expect_valid = header_end;
    for (std::size_t k = 0; k < frame_ends.size(); ++k) {
      if (cut >= frame_ends[k]) {
        ++expect_records;
        expect_valid = frame_ends[k];
      }
    }
    EXPECT_EQ(r.records.size(), expect_records) << "cut at " << cut;
    EXPECT_EQ(r.valid_bytes, expect_valid) << "cut at " << cut;
    EXPECT_EQ(r.torn_bytes, cut - expect_valid) << "cut at " << cut;
    for (std::size_t k = 0; k < r.records.size(); ++k) {
      ExpectRecordsEqual(MakeRecord(k), r.records[k]);
    }
  }
  fs::remove(path);
}

TEST(JournalRead, CorruptedMidFileByteEndsValidPrefix) {
  JournalHeader header;
  header.num_tasks = 2;
  std::string bytes = Frame(EncodeHeaderPayload(header));
  bytes += Frame(EncodeTaskPayload(MakeRecord(0)));
  const std::size_t first_end = bytes.size();
  bytes += Frame(EncodeTaskPayload(MakeRecord(1)));
  // Flip one payload byte inside the second task frame: checksum must catch
  // it, keeping record 0 and discarding the rest as torn.
  bytes[first_end + 20] = static_cast<char>(bytes[first_end + 20] ^ 0x41);

  const std::string path = TempPath("wolt_journal_corrupt.wal");
  Dump(path, bytes);
  const JournalReadResult r = ReadJournal(path);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.records.size(), 1u);
  ExpectRecordsEqual(MakeRecord(0), r.records[0]);
  EXPECT_EQ(r.valid_bytes, first_end);
  EXPECT_EQ(r.torn_bytes, bytes.size() - first_end);
  fs::remove(path);
}

TEST(JournalRead, DuplicateIndicesDedupeFirstWins) {
  JournalHeader header;
  header.num_tasks = 2;
  TaskRecord first = MakeRecord(1);
  first.aggregate_mbps = 111.0;
  TaskRecord second = MakeRecord(1);
  second.aggregate_mbps = 222.0;
  std::string bytes = Frame(EncodeHeaderPayload(header));
  bytes += Frame(EncodeTaskPayload(first));
  bytes += Frame(EncodeTaskPayload(second));
  bytes += Frame(EncodeTaskPayload(MakeRecord(0)));

  const std::string path = TempPath("wolt_journal_dup.wal");
  Dump(path, bytes);
  const JournalReadResult r = ReadJournal(path);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.records.size(), 2u);
  EXPECT_EQ(r.duplicates, 1u);
  EXPECT_EQ(r.records[0].index, 1u);
  EXPECT_EQ(r.records[0].aggregate_mbps, 111.0);  // first record won
  EXPECT_EQ(r.records[1].index, 0u);
  fs::remove(path);
}

TEST(JournalWriter, WriteReadRoundTripAndResume) {
  const std::string path = TempPath("wolt_journal_rt.wal");
  JournalHeader header;
  header.fingerprint = 99;
  header.num_tasks = 10;
  {
    JournalWriter w(path, header, {});
    ASSERT_TRUE(w.ok());
    for (std::uint64_t i = 0; i < 4; ++i) w.Append(MakeRecord(i));
    w.Close();
  }
  // Simulate a crash that tore the 5th record mid-frame.
  std::string bytes = Slurp(path);
  const std::string frame = Frame(EncodeTaskPayload(MakeRecord(4)));
  Dump(path, bytes + frame.substr(0, frame.size() / 2));

  JournalReadResult existing = ReadJournal(path);
  ASSERT_TRUE(existing.ok) << existing.error;
  EXPECT_EQ(existing.records.size(), 4u);
  EXPECT_GT(existing.torn_bytes, 0u);
  EXPECT_EQ(existing.header.fingerprint, 99u);

  {
    // Resume: the torn tail is truncated away, new appends follow cleanly.
    JournalWriter w(path, existing, {});
    ASSERT_TRUE(w.ok());
    w.Append(MakeRecord(4));
    w.Append(MakeRecord(2));  // duplicate of a restored record: dropped
    w.Close();
  }
  const JournalReadResult final_read = ReadJournal(path);
  ASSERT_TRUE(final_read.ok) << final_read.error;
  ASSERT_EQ(final_read.records.size(), 5u);
  EXPECT_EQ(final_read.torn_bytes, 0u);
  EXPECT_EQ(final_read.duplicates, 0u);  // writer-side dedup kept it clean
  for (std::uint64_t i = 0; i < 5; ++i) {
    ExpectRecordsEqual(MakeRecord(i), final_read.records[i]);
  }
  fs::remove(path);
}

TEST(JournalWriter, CompactionDedupesAndBoundsGrowth) {
  const std::string path = TempPath("wolt_journal_compact.wal");
  JournalHeader header;
  header.num_tasks = 4;
  JournalWriter::Options opts;
  opts.compact_every = 4;
  std::size_t appends_seen = 0;
  opts.after_append = [&](std::size_t n) { appends_seen = n; };
  {
    JournalWriter w(path, header, opts);
    ASSERT_TRUE(w.ok());
    // 8 appends of the same 4 records; each duplicate is dropped before it
    // hits the file, and compaction rewrites the rest canonically.
    for (int round = 0; round < 2; ++round) {
      for (std::uint64_t i = 0; i < 4; ++i) w.Append(MakeRecord(i));
    }
    w.Close();
  }
  EXPECT_EQ(appends_seen, 4u);  // duplicates never count as appends
  const JournalReadResult r = ReadJournal(path);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.records.size(), 4u);
  EXPECT_EQ(r.duplicates, 0u);
  const std::uint64_t compact_size = fs::file_size(path);
  // A journal with the same 4 unique records written once is the floor.
  std::string canonical = Frame(EncodeHeaderPayload(header));
  for (std::uint64_t i = 0; i < 4; ++i) {
    canonical += Frame(EncodeTaskPayload(MakeRecord(i)));
  }
  EXPECT_EQ(compact_size, canonical.size());
  fs::remove(path);
}

TEST(JournalWriter, FreshWriterTruncatesPreexistingFile) {
  const std::string path = TempPath("wolt_journal_fresh.wal");
  Dump(path, "garbage from a previous life");
  JournalHeader header;
  header.num_tasks = 1;
  {
    JournalWriter w(path, header, {});
    ASSERT_TRUE(w.ok());
    w.Append(MakeRecord(0));
    w.Close();
  }
  const JournalReadResult r = ReadJournal(path);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.torn_bytes, 0u);
  fs::remove(path);
}

// Two metric shapes, interleaved with metrics-free records: a task whose
// index is 1 mod 3 carries an extra counter, no gauge and a histogram with
// different bounds; every fifth task carries no metrics at all.
TaskRecord MakeMetricsRecord(std::uint64_t index) {
  TaskRecord r = MakeRecord(index);
  r.has_metrics = index % 5 != 4;
  if (!r.has_metrics) return r;
  const bool wide = index % 3 == 1;
  obs::MetricsSnapshot& m = r.metrics;
  m.counters.push_back({"eval.evaluations", false, index * 3 + 1});
  if (wide) m.counters.push_back({"solver.solves", false, index});
  if (!wide) {
    m.gauges.push_back({"sweep.wall_seconds", true,
                        index == 0 ? -0.0 : 1e-3 * static_cast<double>(index)});
  }
  obs::HistogramSample h;
  h.name = "sweep.task_latency_us";
  h.timing = true;
  h.bounds = wide ? std::vector<double>{1.0, 10.0}
                  : std::vector<double>{-0.0, 10.0, 100.0};
  h.counts.assign(h.bounds.size() + 1, index);
  h.counts[0] = 7;
  h.underflow = index % 2;
  h.overflow = 3;
  h.rejected = index / 4;
  m.histograms.push_back(h);
  return r;
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, 8) == 0; }

void ExpectMetricsBitExact(const TaskRecord& a, const TaskRecord& b) {
  ExpectRecordsEqual(a, b);
  const obs::MetricsSnapshot& x = a.metrics;
  const obs::MetricsSnapshot& y = b.metrics;
  ASSERT_EQ(x.counters.size(), y.counters.size()) << "task " << a.index;
  for (std::size_t i = 0; i < x.counters.size(); ++i) {
    EXPECT_EQ(x.counters[i].name, y.counters[i].name);
    EXPECT_EQ(x.counters[i].timing, y.counters[i].timing);
    EXPECT_EQ(x.counters[i].value, y.counters[i].value);
  }
  ASSERT_EQ(x.gauges.size(), y.gauges.size()) << "task " << a.index;
  for (std::size_t i = 0; i < x.gauges.size(); ++i) {
    EXPECT_EQ(x.gauges[i].name, y.gauges[i].name);
    EXPECT_EQ(x.gauges[i].timing, y.gauges[i].timing);
    EXPECT_TRUE(SameBits(x.gauges[i].value, y.gauges[i].value));
  }
  ASSERT_EQ(x.histograms.size(), y.histograms.size()) << "task " << a.index;
  for (std::size_t i = 0; i < x.histograms.size(); ++i) {
    const obs::HistogramSample& hx = x.histograms[i];
    const obs::HistogramSample& hy = y.histograms[i];
    EXPECT_EQ(hx.name, hy.name);
    EXPECT_EQ(hx.timing, hy.timing);
    ASSERT_EQ(hx.bounds.size(), hy.bounds.size());
    for (std::size_t k = 0; k < hx.bounds.size(); ++k) {
      EXPECT_TRUE(SameBits(hx.bounds[k], hy.bounds[k]));
    }
    EXPECT_EQ(hx.counts, hy.counts);
    EXPECT_EQ(hx.underflow, hy.underflow);
    EXPECT_EQ(hx.overflow, hy.overflow);
    EXPECT_EQ(hx.rejected, hy.rejected);
  }
}

void ExpectAllRecordsBitExact(const JournalReadResult& r, std::size_t n) {
  ASSERT_EQ(r.records.size(), n);
  for (const TaskRecord& rec : r.records) {
    ExpectMetricsBitExact(MakeMetricsRecord(rec.index), rec);
  }
}

// Metric names live in schema records; task records carry values only. Two
// shapes interleaved must come back bit-exactly through appends,
// compactions, a crash that leaves a dangling schema record of the other
// shape, and a resume — which starts with no schema in force, so its first
// record re-states its schema even though it has the shape of the last
// restored record.
TEST(JournalSchema, InterleavedShapesRoundTripAcrossCompactionAndResume) {
  const std::string path = TempPath("wolt_journal_schema.wal");
  JournalHeader header;
  header.num_tasks = 20;
  JournalWriter::Options opts;
  opts.compact_every = 4;
  {
    JournalWriter w(path, header, opts);
    for (std::uint64_t i = 0; i < 10; ++i) w.Append(MakeMetricsRecord(i));
  }
  // Task 8 (narrow shape) is the last restored record with metrics. The
  // crash lands after the wide schema for task 10 and mid-way through
  // task 10's own frame.
  const std::string frame = Frame(EncodeTaskPayload(MakeMetricsRecord(10)));
  Dump(path, Slurp(path) +
                 Frame(EncodeSchemaPayload(MakeMetricsRecord(10).metrics)) +
                 frame.substr(0, frame.size() - 3));
  const JournalReadResult torn = ReadJournal(path);
  ASSERT_TRUE(torn.ok) << torn.error;
  EXPECT_TRUE(torn.tail_torn);
  ExpectAllRecordsBitExact(torn, 10);
  {
    JournalWriter w(path, torn, opts);
    ASSERT_TRUE(w.ok());
    w.Append(MakeMetricsRecord(11));  // narrow, like task 8
    const JournalReadResult mid = ReadJournal(path);
    ASSERT_TRUE(mid.ok) << mid.error;
    EXPECT_FALSE(mid.tail_rot);
    ExpectAllRecordsBitExact(mid, 11);
    for (std::uint64_t i = 12; i < 20; ++i) w.Append(MakeMetricsRecord(i));
    w.Append(MakeMetricsRecord(10));
    w.Append(MakeMetricsRecord(3));  // already journaled: dropped
  }
  const JournalReadResult r = ReadJournal(path);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.torn_bytes, 0u);
  EXPECT_EQ(r.duplicates, 0u);
  ExpectAllRecordsBitExact(r, 20);
  fs::remove(path);
}

TEST(JournalSchema, ValuesWithoutASchemaInForceAreRot) {
  JournalHeader header;
  header.num_tasks = 2;
  std::string bytes = Frame(EncodeHeaderPayload(header));
  bytes += Frame(EncodeTaskPayload(MakeRecord(0)));  // no metrics: fine
  const std::size_t valid = bytes.size();
  bytes += Frame(EncodeTaskPayload(MakeMetricsRecord(1)));
  const std::string path = TempPath("wolt_journal_noschema.wal");
  Dump(path, bytes);
  const JournalReadResult r = ReadJournal(path);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.records.size(), 1u);
  EXPECT_EQ(r.valid_bytes, valid);
  EXPECT_TRUE(r.tail_rot);
  EXPECT_FALSE(r.tail_torn);
  fs::remove(path);
}

TEST(JournalSchema, MetricsFreeRecordsWriteNoSchema) {
  const std::string path = TempPath("wolt_journal_plain.wal");
  JournalHeader header;
  header.num_tasks = 3;
  {
    JournalWriter w(path, header, {});
    for (std::uint64_t i = 0; i < 3; ++i) w.Append(MakeRecord(i));
  }
  std::string canonical = Frame(EncodeHeaderPayload(header));
  for (std::uint64_t i = 0; i < 3; ++i) {
    canonical += Frame(EncodeTaskPayload(MakeRecord(i)));
  }
  EXPECT_EQ(Slurp(path), canonical);
  fs::remove(path);
}

TEST(JournalRead, OlderFormatVersionFailsTheHeaderCheck) {
  JournalHeader header;
  std::string payload = EncodeHeaderPayload(header);
  const std::uint32_t old_version = kJournalVersion - 1;
  std::memcpy(&payload[1], &old_version, sizeof old_version);
  JournalHeader back;
  EXPECT_FALSE(DecodeHeaderPayload(payload, &back));
  const std::string path = TempPath("wolt_journal_v2.wal");
  Dump(path, Frame(payload));
  const JournalReadResult r = ReadJournal(path);
  EXPECT_FALSE(r.ok);
  EXPECT_FALSE(r.error.empty());
  fs::remove(path);
}

TEST(Fnv1a, MatchesReferenceVectors) {
  // Published FNV-1a 64 test vectors.
  EXPECT_EQ(Fnv1a64("", 0), 0xcbf29ce484222325ULL);
  EXPECT_EQ(Fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("foobar", 6), 0x85944171f73967e8ULL);
}

}  // namespace
}  // namespace wolt::recover
