// Write-ahead journal of the fleet runtime (src/fleet/runtime.h) — the
// durability layer behind the fleet's crash-safe resume contract: a fleet
// run SIGKILLed at any instant resumes from its last snapshot and produces a
// byte-identical report to an uninterrupted run.
//
// The file is a framed log (recover/framed_log.h) under the "WFL1" magic,
// distinct from the sweep journal's so the two artefacts can never be
// resumed against each other. Framing, checksums, the torn-vs-rot tail
// scan, appends and degraded mode live there; this file holds the record
// codecs, kind dispatch, (round, shard) dedup and the checkpoint rule.
//
// Record stream per completed round: one ShardRoundRecord per shard, one
// FleetRoundRecord, and — every `snapshot_every` rounds and after the final
// round — a snapshot record carrying the serialized fleet state (queue,
// supervisor, every shard). The snapshot is the resume point: the reader
// reports the last valid snapshot as a checkpoint, and valid records
// *after* it are discarded (the resumed run re-executes those rounds
// deterministically, regenerating them bit-for-bit).
//
// The header binds the journal to one configuration via the fleet
// fingerprint (fleet::Fingerprint over params + seed); resuming against a
// journal with a different fingerprint is refused by the runtime.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "io/vfs.h"
#include "recover/framed_log.h"

namespace wolt::recover {

inline constexpr std::uint32_t kFleetJournalMagic = 0x57464C31;  // "WFL1"
inline constexpr std::uint32_t kFleetJournalVersion = 1;

struct FleetJournalHeader {
  std::uint64_t fingerprint = 0;  // fleet::Fingerprint(params, seed)
  std::uint64_t num_shards = 0;
  std::uint64_t rounds = 0;
};

// Per-shard, per-round observable outcome. The concatenation of these (plus
// the FleetRoundRecords) is what the fleet report is folded from, so resume
// correctness is exactly "these records match the uninterrupted run's".
struct ShardRoundRecord {
  std::uint64_t round = 0;
  std::uint32_t shard = 0;
  std::uint8_t state = 0;          // fleet::ShardState after the round
  std::int8_t tier = -1;           // served ReoptTier; -1 = not scheduled
  double truth_aggregate = 0.0;    // ground-truth throughput (do-no-harm)
  std::uint64_t processed = 0;
  std::uint64_t decode_rejects = 0;
  std::uint64_t wire_faults = 0;
  std::uint64_t state_conflicts = 0;
  std::uint64_t directives = 0;
  std::uint64_t outbound = 0;
  std::uint64_t failures = 0;
  std::uint64_t dropped = 0;       // queue messages discarded (unavailable)
  std::uint8_t restarted = 0;
  std::uint8_t broke = 0;          // circuit break tripped this round
  std::uint8_t probed = 0;
  std::uint8_t held_violation = 0; // degraded shard moved off held state
  std::uint8_t isolation_violation = 0;  // foreign user id seen in the shard
};

// Fleet-wide per-round aggregates (queue accounting + reopt scheduling).
struct FleetRoundRecord {
  std::uint64_t round = 0;
  std::uint64_t enqueued = 0;
  std::uint64_t delivered = 0;
  std::uint64_t shed = 0;
  std::uint64_t discarded = 0;
  std::uint64_t backlog = 0;         // queue depth at end of round
  std::uint64_t reopt_scheduled = 0;
  std::uint64_t reopt_units = 0;     // virtual budget units spent
};

struct FleetJournalReadResult {
  bool ok = false;
  std::string error;
  FleetJournalHeader header;
  // Records up to (and including) the last valid snapshot, deduplicated
  // first-wins, in order of first appearance.
  std::vector<ShardRoundRecord> shard_records;
  std::vector<FleetRoundRecord> fleet_records;
  // Last valid snapshot (the resume point). Without one, resume restarts
  // the run from round 0 (only the header survives).
  bool has_checkpoint = false;
  std::uint64_t checkpoint_round = 0;  // round the snapshot was taken after
  std::string checkpoint_blob;         // fleet::FleetRuntime state
  std::uint64_t checkpoint_bytes = 0;  // file prefix ending after it
  std::uint64_t header_bytes = 0;      // file prefix ending after the header
  std::uint64_t valid_bytes = 0;       // full validated prefix
  std::uint64_t torn_bytes = 0;        // discarded tail past the prefix
  std::size_t duplicates = 0;          // duplicate records dropped
  std::size_t discarded_records = 0;   // valid records past the checkpoint
  // Tail classification (see JournalReadResult): torn = incomplete final
  // frame, rot = complete-looking frame with bad magic/checksum/payload.
  // Counted on recover.fleet.{torn_tail,rot_truncated}.
  bool tail_torn = false;
  bool tail_rot = false;
};

// Validates `path` front to back. Never throws; failures land in `error`.
// Damage never aborts replay: the corrupt tail is classified (torn vs rot)
// and truncated back to the last good checksum frame.
FleetJournalReadResult ReadFleetJournal(const std::string& path,
                                        io::Vfs* vfs = nullptr);

class FleetJournalWriter {
 public:
  // Every frame counts on after_append, the header included (append 1).
  using Options = FramedLogWriter::Options;

  // Fresh journal: truncates `path` and writes the header record.
  FleetJournalWriter(const std::string& path, const FleetJournalHeader& header,
                     Options options);

  // Resume: truncates the file back to the last checkpoint (or to the bare
  // header when there is none), discarding the torn tail and any records
  // past the snapshot — the resumed run regenerates those.
  FleetJournalWriter(const std::string& path,
                     const FleetJournalReadResult& existing, Options options);

  FleetJournalWriter(const FleetJournalWriter&) = delete;
  FleetJournalWriter& operator=(const FleetJournalWriter&) = delete;

  // Journaling is active. When false every append is a no-op; the fleet run
  // keeps going (best-effort mode, no crash resume past that point).
  bool ok() const { return log_.ok(); }
  // The writer gave up after an I/O failure; one loud stderr warning was
  // emitted and recover.fleet.{io_error,degraded} were bumped.
  bool degraded() const { return log_.degraded(); }

  void AppendShardRound(const ShardRoundRecord& record);
  void AppendFleetRound(const FleetRoundRecord& record);
  void AppendSnapshot(std::uint64_t round, const std::string& blob);

  // fsync + close. Called by the destructor if not called explicitly.
  void Close() { log_.Close(); }

 private:
  FramedLogWriter log_;
  std::string payload_;  // held encode buffer, reused by every append
};

}  // namespace wolt::recover
