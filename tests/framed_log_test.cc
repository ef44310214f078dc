// The framed log under both journals (src/recover/framed_log.h): frame
// scanning at every truncation offset and under every single-bit flip, the
// magic separating the two journal kinds, undecodable payloads counting as
// rot, the writer's fresh/resume/replace/degrade paths, and the two
// after_append numberings the crash harnesses depend on.
#include <gtest/gtest.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "fault/storage.h"
#include "recover/fleet_journal.h"
#include "recover/framed_log.h"
#include "recover/journal.h"

namespace wolt::recover {
namespace {

// Mixed payload sizes: empty, shorter than a frame header, exactly one,
// one past, and a few hundred bytes.
std::vector<std::string> Payloads() {
  std::vector<std::string> out;
  for (std::size_t size : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                           kFrameHeaderBytes, kFrameHeaderBytes + 1,
                           std::size_t{300}, std::size_t{3}}) {
    std::string p;
    for (std::size_t i = 0; i < size; ++i) {
      p.push_back(static_cast<char>((i * 37 + size) & 0xFF));
    }
    out.push_back(p);
  }
  return out;
}

struct Stream {
  std::string bytes;
  std::vector<std::uint64_t> ends;  // offset just past each frame
};

Stream Build(std::uint32_t magic) {
  Stream s;
  for (const std::string& p : Payloads()) {
    AppendFrame(magic, p, &s.bytes);
    s.ends.push_back(s.bytes.size());
  }
  return s;
}

// Scans `bytes`, accepting every payload; returns the frame ends visited.
FrameScan ScanAll(std::string_view bytes, std::uint32_t magic,
                  std::vector<std::uint64_t>* visited) {
  visited->clear();
  return ScanFrames(bytes, magic,
                    [&](std::string_view, std::uint64_t frame_end) {
                      visited->push_back(frame_end);
                      return true;
                    });
}

const std::uint32_t kMagics[] = {kJournalMagic, kFleetJournalMagic};

TEST(FramedLog, FramesLayOutMagicLengthChecksumPayload) {
  std::string out;
  AppendFrame(kJournalMagic, "abc", &out);
  ASSERT_EQ(out.size(), kFrameHeaderBytes + 3);
  std::uint32_t magic = 0;
  std::uint32_t len = 0;
  std::uint64_t sum = 0;
  std::memcpy(&magic, out.data(), 4);
  std::memcpy(&len, out.data() + 4, 4);
  std::memcpy(&sum, out.data() + 8, 8);
  EXPECT_EQ(magic, kJournalMagic);
  EXPECT_EQ(len, 3u);
  EXPECT_EQ(sum, Fnv1a64("abc", 3));
  EXPECT_EQ(out.substr(kFrameHeaderBytes), "abc");
}

TEST(FramedLog, CleanStreamScansWhole) {
  for (std::uint32_t magic : kMagics) {
    const Stream s = Build(magic);
    std::vector<std::uint64_t> visited;
    const FrameScan scan = ScanAll(s.bytes, magic, &visited);
    EXPECT_EQ(visited, s.ends);
    EXPECT_EQ(scan.valid_bytes, s.bytes.size());
    EXPECT_EQ(scan.torn_bytes, 0u);
    EXPECT_FALSE(scan.tail_torn);
    EXPECT_FALSE(scan.tail_rot);
  }
}

// A crash mid-append leaves a prefix of the stream: every cut keeps the
// whole frames before it and classes the rest torn, never rot.
TEST(FramedLog, TruncationAtEveryOffsetIsTorn) {
  for (std::uint32_t magic : kMagics) {
    const Stream s = Build(magic);
    for (std::size_t cut = 0; cut <= s.bytes.size(); ++cut) {
      std::uint64_t expect_valid = 0;
      std::vector<std::uint64_t> expect_visited;
      for (std::uint64_t end : s.ends) {
        if (end <= cut) {
          expect_valid = end;
          expect_visited.push_back(end);
        }
      }
      std::vector<std::uint64_t> visited;
      const FrameScan scan =
          ScanAll(std::string_view(s.bytes).substr(0, cut), magic, &visited);
      EXPECT_EQ(visited, expect_visited) << "cut at " << cut;
      EXPECT_EQ(scan.valid_bytes, expect_valid) << "cut at " << cut;
      EXPECT_EQ(scan.torn_bytes, cut - expect_valid) << "cut at " << cut;
      EXPECT_EQ(scan.tail_torn, cut != expect_valid) << "cut at " << cut;
      EXPECT_FALSE(scan.tail_rot) << "cut at " << cut;
    }
  }
}

// Medium damage: one flipped bit anywhere ends the valid prefix at the
// frame holding it and is rot — unless it enlarged that frame's length
// field past end-of-file, which is indistinguishable from a torn append.
TEST(FramedLog, OneBitFlipAtEveryByteIsRotOrTornPastEof) {
  for (std::uint32_t magic : kMagics) {
    const Stream s = Build(magic);
    for (std::size_t byte = 0; byte < s.bytes.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string damaged = s.bytes;
        damaged[byte] = static_cast<char>(damaged[byte] ^ (1 << bit));
        std::uint64_t start = 0;  // start of the frame holding `byte`
        for (std::uint64_t end : s.ends) {
          if (end > byte) break;
          start = end;
        }
        std::uint32_t len = 0;
        std::memcpy(&len, damaged.data() + start + 4, 4);
        const bool in_len = byte >= start + 4 && byte < start + 8;
        const bool torn =
            in_len && len > damaged.size() - start - kFrameHeaderBytes;
        std::vector<std::uint64_t> visited;
        const FrameScan scan = ScanAll(damaged, magic, &visited);
        const std::string where =
            "byte " + std::to_string(byte) + " bit " + std::to_string(bit);
        EXPECT_EQ(scan.valid_bytes, start) << where;
        EXPECT_EQ(scan.torn_bytes, damaged.size() - start) << where;
        EXPECT_EQ(scan.tail_torn, torn) << where;
        EXPECT_EQ(scan.tail_rot, !torn) << where;
      }
    }
  }
}

TEST(FramedLog, OneMagicNeverScansAsTheOther) {
  const Stream sweep = Build(kJournalMagic);
  const Stream fleet = Build(kFleetJournalMagic);
  std::vector<std::uint64_t> visited;
  for (const auto& [bytes, magic] :
       {std::pair{sweep.bytes, kFleetJournalMagic},
        std::pair{fleet.bytes, kJournalMagic}}) {
    const FrameScan scan = ScanAll(bytes, magic, &visited);
    EXPECT_TRUE(visited.empty());
    EXPECT_EQ(scan.valid_bytes, 0u);
    EXPECT_EQ(scan.torn_bytes, bytes.size());
    EXPECT_TRUE(scan.tail_rot);
    EXPECT_FALSE(scan.tail_torn);
  }
}

TEST(FramedLog, UndecodablePayloadIsRot) {
  const Stream s = Build(kFleetJournalMagic);
  for (std::size_t reject = 0; reject < s.ends.size(); ++reject) {
    std::size_t calls = 0;
    const FrameScan scan = ScanFrames(
        s.bytes, kFleetJournalMagic,
        [&](std::string_view, std::uint64_t) { return calls++ != reject; });
    const std::uint64_t start = reject == 0 ? 0 : s.ends[reject - 1];
    EXPECT_EQ(calls, reject + 1);
    EXPECT_EQ(scan.valid_bytes, start);
    EXPECT_TRUE(scan.tail_rot);
    EXPECT_FALSE(scan.tail_torn);
  }
}

// ---------------------------------------------------------------------------
// FramedLogWriter

void CountNothing(obs::MetricsScope&) {}

constexpr FramedLogWriter::Kind kTestLog{kFleetJournalMagic, "test log",
                                         &CountNothing};

TEST(FramedLogWriter, WritesFramesResumesAndReplaces) {
  fault::MemVfs mem;
  FramedLogWriter::Options opts;
  opts.vfs = &mem;
  std::vector<std::size_t> hooks;
  opts.after_append = [&](std::size_t n) { hooks.push_back(n); };
  std::string expect;
  {
    FramedLogWriter w("log", kTestLog, opts);
    EXPECT_FALSE(w.ok());  // not open until OpenFresh/Resume
    w.OpenFresh("header");
    ASSERT_TRUE(w.ok());
    w.Append("one");
    w.Append("");
    w.Close();
  }
  for (const char* p : {"header", "one", ""}) {
    AppendFrame(kTestLog.magic, p, &expect);
  }
  EXPECT_EQ(mem.GetFileBytes("log"), expect);
  EXPECT_EQ(hooks, (std::vector<std::size_t>{1, 2, 3}));

  // Resume drops a torn tail and appends after the kept prefix.
  mem.SetFileBytes("log", expect + "torn");
  hooks.clear();
  {
    FramedLogWriter w("log", kTestLog, opts);
    w.Resume(expect.size());
    ASSERT_TRUE(w.ok());
    w.Append("two");
  }
  AppendFrame(kTestLog.magic, "two", &expect);
  EXPECT_EQ(mem.GetFileBytes("log"), expect);
  EXPECT_EQ(hooks, (std::vector<std::size_t>{1}));

  // Replace swaps the whole file and keeps appending after it.
  std::string replaced;
  AppendFrame(kTestLog.magic, "header", &replaced);
  {
    FramedLogWriter w("log", kTestLog, opts);
    w.Resume(expect.size());
    EXPECT_TRUE(w.Replace(replaced).ok());
    w.Append("three");
    EXPECT_TRUE(w.ok());
  }
  AppendFrame(kTestLog.magic, "three", &replaced);
  EXPECT_EQ(mem.GetFileBytes("log"), replaced);
}

TEST(FramedLogWriter, IoFailureDegradesOnceAndKeepsThePrefix) {
  fault::MemVfs mem;
  fault::StorageFaultParams params;
  params.fail_at_op = 2;  // op0=open, op1=header, op2=first record
  params.fail_at_op_err = ENOSPC;
  fault::FaultVfs vfs(mem, params, /*seed=*/1);
  FramedLogWriter::Options opts;
  opts.vfs = &vfs;
  std::size_t hooks = 0;
  opts.after_append = [&](std::size_t) { ++hooks; };
  FramedLogWriter w("log", kTestLog, opts);
  w.OpenFresh("header");
  w.Append("lost");
  EXPECT_FALSE(w.ok());
  EXPECT_TRUE(w.degraded());
  w.Append("ignored");  // no-op once degraded
  w.Close();
  EXPECT_EQ(hooks, 1u);  // only the header made it
  std::string expect;
  AppendFrame(kTestLog.magic, "header", &expect);
  EXPECT_EQ(mem.GetFileBytes("log"), expect);
}

// ---------------------------------------------------------------------------
// The two journals' after_append numberings (the crash harnesses kill at an
// exact count, and e2e_bench's fleet check needs 1 + rounds x (shards + 2)).

TEST(FramedLogHooks, FleetCountsEveryFrameHeaderFirst) {
  fault::MemVfs mem;
  FleetJournalWriter::Options opts;
  opts.vfs = &mem;
  std::vector<std::size_t> hooks;
  opts.after_append = [&](std::size_t n) { hooks.push_back(n); };
  FleetJournalHeader header;
  header.num_shards = 3;
  header.rounds = 2;
  {
    FleetJournalWriter w("fleet.wal", header, opts);
    ASSERT_EQ(hooks, (std::vector<std::size_t>{1}));  // the header
    for (std::uint64_t round = 0; round < header.rounds; ++round) {
      for (std::uint32_t shard = 0; shard < header.num_shards; ++shard) {
        ShardRoundRecord rec;
        rec.round = round;
        rec.shard = shard;
        w.AppendShardRound(rec);
      }
      FleetRoundRecord fleet;
      fleet.round = round;
      w.AppendFleetRound(fleet);
      w.AppendSnapshot(round, "state");
    }
  }
  const std::size_t expect = 1 + header.rounds * (header.num_shards + 2);
  ASSERT_EQ(hooks.size(), expect);
  for (std::size_t i = 0; i < expect; ++i) EXPECT_EQ(hooks[i], i + 1);
}

TEST(FramedLogHooks, SweepCountsTaskRecordsOnly) {
  fault::MemVfs mem;
  JournalWriter::Options opts;
  opts.vfs = &mem;
  opts.compact_every = 2;
  std::vector<std::size_t> hooks;
  opts.after_append = [&](std::size_t n) { hooks.push_back(n); };
  JournalHeader header;
  header.num_tasks = 4;
  {
    JournalWriter w("sweep.wal", header, opts);
    EXPECT_TRUE(hooks.empty());  // the header does not count
    for (std::uint64_t i = 0; i < 4; ++i) {
      TaskRecord rec;
      rec.index = i;
      rec.has_metrics = true;  // a schema frame on the first and on change
      obs::CounterSample c;
      c.name = i < 2 ? "a" : "b";
      rec.metrics.counters.push_back(c);
      w.Append(rec);
      w.Append(rec);  // duplicate index: dropped, not counted
    }
  }
  EXPECT_EQ(hooks, (std::vector<std::size_t>{1, 2, 3, 4}));
  const JournalReadResult r = ReadJournal("sweep.wal", &mem);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.records.size(), 4u);
}

}  // namespace
}  // namespace wolt::recover
