#include "recover/fleet_journal.h"

#include <unordered_set>
#include <utility>

#include "obs/obs.h"
#include "util/codec.h"

namespace wolt::recover {
namespace {

using util::PutString;
using util::PutU32;
using util::PutU64;
using util::PutU8;
using Cursor = util::ByteCursor;

// Record kinds inside a frame payload (first byte).
constexpr std::uint8_t kKindHeader = 1;
constexpr std::uint8_t kKindShardRound = 2;
constexpr std::uint8_t kKindFleetRound = 3;
constexpr std::uint8_t kKindSnapshot = 4;

const FramedLogWriter::Kind kFleetLog{
    kFleetJournalMagic, "fleet journal", [](obs::MetricsScope& s) {
      s.recover.fleet_io_error.Add(1);
      s.recover.fleet_degraded.Add(1);
    }};

// Encoders append one record payload to *out (the writer's held buffer).
void EncodeHeader(const FleetJournalHeader& header, std::string* out) {
  PutU8(out, kKindHeader);
  PutU32(out, kFleetJournalVersion);
  PutU64(out, header.fingerprint);
  PutU64(out, header.num_shards);
  PutU64(out, header.rounds);
}

bool DecodeHeader(std::string_view payload, FleetJournalHeader* out) {
  Cursor cur(payload);
  if (cur.U8() != kKindHeader) return false;
  if (cur.U32() != kFleetJournalVersion) return false;
  out->fingerprint = cur.U64();
  out->num_shards = cur.U64();
  out->rounds = cur.U64();
  return cur.AtEnd();
}

bool DecodeShardRound(std::string_view payload, ShardRoundRecord* out) {
  Cursor cur(payload);
  if (cur.U8() != kKindShardRound) return false;
  out->round = cur.U64();
  out->shard = cur.U32();
  out->state = cur.U8();
  out->tier = static_cast<std::int8_t>(cur.U8());
  out->truth_aggregate = cur.Double();
  out->processed = cur.U64();
  out->decode_rejects = cur.U64();
  out->wire_faults = cur.U64();
  out->state_conflicts = cur.U64();
  out->directives = cur.U64();
  out->outbound = cur.U64();
  out->failures = cur.U64();
  out->dropped = cur.U64();
  out->restarted = cur.U8();
  out->broke = cur.U8();
  out->probed = cur.U8();
  out->held_violation = cur.U8();
  out->isolation_violation = cur.U8();
  return cur.AtEnd();
}

bool DecodeFleetRound(std::string_view payload, FleetRoundRecord* out) {
  Cursor cur(payload);
  if (cur.U8() != kKindFleetRound) return false;
  out->round = cur.U64();
  out->enqueued = cur.U64();
  out->delivered = cur.U64();
  out->shed = cur.U64();
  out->discarded = cur.U64();
  out->backlog = cur.U64();
  out->reopt_scheduled = cur.U64();
  out->reopt_units = cur.U64();
  return cur.AtEnd();
}

bool DecodeSnapshot(std::string_view payload, std::uint64_t* round,
                    std::string* blob) {
  Cursor cur(payload);
  if (cur.U8() != kKindSnapshot) return false;
  *round = cur.U64();
  *blob = cur.String();
  return cur.AtEnd();
}


void EncodeShardRound(const ShardRoundRecord& record, std::string* out) {
  PutU8(out, kKindShardRound);
  PutU64(out, record.round);
  PutU32(out, record.shard);
  PutU8(out, record.state);
  PutU8(out, static_cast<std::uint8_t>(record.tier));
  util::PutDouble(out, record.truth_aggregate);
  PutU64(out, record.processed);
  PutU64(out, record.decode_rejects);
  PutU64(out, record.wire_faults);
  PutU64(out, record.state_conflicts);
  PutU64(out, record.directives);
  PutU64(out, record.outbound);
  PutU64(out, record.failures);
  PutU64(out, record.dropped);
  PutU8(out, record.restarted);
  PutU8(out, record.broke);
  PutU8(out, record.probed);
  PutU8(out, record.held_violation);
  PutU8(out, record.isolation_violation);
}

void EncodeFleetRound(const FleetRoundRecord& record, std::string* out) {
  PutU8(out, kKindFleetRound);
  PutU64(out, record.round);
  PutU64(out, record.enqueued);
  PutU64(out, record.delivered);
  PutU64(out, record.shed);
  PutU64(out, record.discarded);
  PutU64(out, record.backlog);
  PutU64(out, record.reopt_scheduled);
  PutU64(out, record.reopt_units);
}

}  // namespace

FleetJournalReadResult ReadFleetJournal(const std::string& path,
                                        io::Vfs* vfs_in) {
  io::Vfs& vfs = io::OrDefault(vfs_in);
  FleetJournalReadResult out;

  std::string bytes;
  if (!vfs.ReadFileBytes(path, &bytes).ok()) {
    out.error = "cannot open fleet journal: " + path;
    return out;
  }

  bool saw_header = false;
  std::unordered_set<std::uint64_t> seen_shard;  // round*num_shards + shard
  std::unordered_set<std::uint64_t> seen_fleet;  // round
  // Record counts at the last snapshot seen; records past it are discarded
  // after the scan (the resumed run regenerates them).
  std::size_t cp_shard_count = 0;
  std::size_t cp_fleet_count = 0;

  const FrameScan scan = ScanFrames(
      bytes, kFleetJournalMagic,
      [&](std::string_view payload, std::uint64_t frame_end) {
        if (!saw_header) {
          saw_header = DecodeHeader(payload, &out.header);
          if (saw_header) {
            out.header_bytes = frame_end;
          } else {
            out.error =
                "fleet journal header record is missing or corrupt: " + path;
          }
          return saw_header;
        }
        const std::uint8_t kind =
            payload.empty() ? 0 : static_cast<std::uint8_t>(payload[0]);
        if (kind == kKindShardRound) {
          ShardRoundRecord rec;
          if (!DecodeShardRound(payload, &rec)) return false;
          const std::uint64_t key =
              rec.round * out.header.num_shards + rec.shard;
          if (!seen_shard.insert(key).second) {
            ++out.duplicates;
          } else {
            out.shard_records.push_back(rec);
          }
          return true;
        }
        if (kind == kKindFleetRound) {
          FleetRoundRecord rec;
          if (!DecodeFleetRound(payload, &rec)) return false;
          if (!seen_fleet.insert(rec.round).second) {
            ++out.duplicates;
          } else {
            out.fleet_records.push_back(rec);
          }
          return true;
        }
        if (kind == kKindSnapshot) {
          std::uint64_t round = 0;
          std::string blob;
          if (!DecodeSnapshot(payload, &round, &blob)) return false;
          out.has_checkpoint = true;
          out.checkpoint_round = round;
          out.checkpoint_blob = std::move(blob);
          out.checkpoint_bytes = frame_end;
          cp_shard_count = out.shard_records.size();
          cp_fleet_count = out.fleet_records.size();
          return true;
        }
        return false;  // unknown kind under a valid checksum: rot
      });

  if (!saw_header) {
    if (out.error.empty()) {
      out.error = "fleet journal has no valid header record: " + path;
    }
    out.torn_bytes = bytes.size();
    return out;
  }
  out.valid_bytes = scan.valid_bytes;
  out.torn_bytes = scan.torn_bytes;
  out.tail_torn = scan.tail_torn;
  out.tail_rot = scan.tail_rot;
  if (obs::MetricsScope* s = obs::CurrentScope()) {
    if (out.tail_torn) s->recover.fleet_torn_tail.Add(1);
    if (out.tail_rot) s->recover.fleet_rot_truncated.Add(1);
  }
  // Keep only records covered by the checkpoint: resume truncates to the
  // checkpoint and re-executes everything after it.
  out.discarded_records = (out.shard_records.size() - cp_shard_count) +
                          (out.fleet_records.size() - cp_fleet_count);
  out.shard_records.resize(cp_shard_count);
  out.fleet_records.resize(cp_fleet_count);
  out.ok = true;
  return out;
}

// ---------------------------------------------------------------------------
// FleetJournalWriter

FleetJournalWriter::FleetJournalWriter(const std::string& path,
                                       const FleetJournalHeader& header,
                                       Options options)
    : log_(path, kFleetLog, std::move(options)) {
  EncodeHeader(header, &payload_);
  log_.OpenFresh(payload_);
}

FleetJournalWriter::FleetJournalWriter(const std::string& path,
                                       const FleetJournalReadResult& existing,
                                       Options options)
    : log_(path, kFleetLog, std::move(options)) {
  if (!existing.ok) return;  // caller decides; typically restart fresh
  log_.Resume(existing.has_checkpoint ? existing.checkpoint_bytes
                                      : existing.header_bytes);
}

void FleetJournalWriter::AppendShardRound(const ShardRoundRecord& record) {
  payload_.clear();
  EncodeShardRound(record, &payload_);
  log_.Append(payload_);
}

void FleetJournalWriter::AppendFleetRound(const FleetRoundRecord& record) {
  payload_.clear();
  EncodeFleetRound(record, &payload_);
  log_.Append(payload_);
}

void FleetJournalWriter::AppendSnapshot(std::uint64_t round,
                                        const std::string& blob) {
  payload_.clear();
  PutU8(&payload_, kKindSnapshot);
  PutU64(&payload_, round);
  PutString(&payload_, blob);
  log_.Append(payload_);
}

}  // namespace wolt::recover
