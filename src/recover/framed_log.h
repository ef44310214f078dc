// One framed log: the on-disk format, scanner and writer behind both
// write-ahead journals — the sweep journal (recover/journal.h) and the fleet
// journal (recover/fleet_journal.h). Each journal keeps only its record
// codecs and what its records mean (dedup, compaction, checkpoints).
//
// Every record is one frame:
//
//   [u32 magic][u32 payload_len][u64 fnv1a(payload)][payload bytes]
//
// The magic names the journal kind ("WJL1" sweep, "WFL1" fleet), so a file
// of one kind never scans as the other.
//
// Crash semantics:
//  * ScanFrames validates frames front to back; the first bad frame ends
//    the valid prefix. A tail shorter than a frame header, or one whose
//    declared payload runs past end-of-file, is torn (a crash mid-append,
//    expected). A complete-looking frame with a bad magic or checksum, or
//    one whose payload the journal cannot decode, is rot (medium damage).
//  * FramedLogWriter hands each frame to the Vfs in one write (flushed to
//    the kernel: a process kill loses at most the frame being written) and
//    fsyncs on Close, on Replace, and after every append when asked.
//  * Any I/O failure degrades the writer: it closes the file (the valid
//    prefix stays), warns once on stderr and bumps the journal's
//    io_error/degraded counter pair; every later call is a no-op, so losing
//    the journal never takes the run down with it.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "io/vfs.h"

namespace wolt::obs {
struct MetricsScope;
}  // namespace wolt::obs

namespace wolt::recover {

// FNV-1a 64-bit over a byte string (the per-frame checksum).
std::uint64_t Fnv1a64(const char* data, std::size_t size);

inline constexpr std::size_t kFrameHeaderBytes =
    sizeof(std::uint32_t) * 2 + sizeof(std::uint64_t);

// Appends one frame of `payload` under `magic` to *out.
void AppendFrame(std::uint32_t magic, std::string_view payload,
                 std::string* out);

struct FrameScan {
  std::uint64_t valid_bytes = 0;  // length of the validated prefix
  std::uint64_t torn_bytes = 0;   // bytes past the prefix
  // Why the prefix ended (both false when every byte scanned clean).
  bool tail_torn = false;
  bool tail_rot = false;
};

// Called once per checksum-valid frame, in file order, with its payload and
// the file offset just past the frame. Returning false marks the payload
// undecodable: the scan stops before that frame and classes the tail rot.
using FrameVisitor =
    std::function<bool(std::string_view payload, std::uint64_t frame_end)>;

FrameScan ScanFrames(std::string_view bytes, std::uint32_t magic,
                     const FrameVisitor& visit);

class FramedLogWriter {
 public:
  struct Options {
    // Test hook, called after each frame has been flushed, with the count
    // of frames written through this writer (the header is frame 1). The
    // crash harness raises SIGKILL in here to die at an exact position.
    std::function<void(std::size_t)> after_append;
    // Storage backend; nullptr = the real filesystem.
    io::Vfs* vfs = nullptr;
    // fsync after every append. Default off: per-frame flush-to-kernel
    // survives a process kill, and Replace/Close fsync. The crash harness
    // turns this on so every append is a distinct durable point.
    bool sync_every_append = false;
  };

  // Which journal a log is: its magic, its name in warnings ("journal",
  // "fleet journal") and the obs counter pair a degrade bumps.
  struct Kind {
    std::uint32_t magic;
    const char* name;
    void (*count_degraded)(obs::MetricsScope& scope);
  };

  // Not open (ok() is false) until OpenFresh or Resume succeeds.
  FramedLogWriter(const std::string& path, Kind kind, Options options);
  ~FramedLogWriter() { Close(); }

  FramedLogWriter(const FramedLogWriter&) = delete;
  FramedLogWriter& operator=(const FramedLogWriter&) = delete;

  // The log is open and has not degraded.
  bool ok() const { return ok_; }
  bool degraded() const { return degraded_; }
  const std::string& path() const { return path_; }

  // Fresh log: truncates the file and appends the header frame.
  void OpenFresh(std::string_view header_payload);
  // Resume: truncates the file to its first `size` bytes (the prefix to
  // keep) and reopens it for appending.
  void Resume(std::uint64_t size);
  // Frames `payload` into a held buffer and writes it. No-op when not ok.
  void Append(std::string_view payload);
  // Replaces the whole file with `contents` (already framed) via temp file
  // + fsync + rename, then reopens it for appending. A crash or an I/O
  // failure in the rewrite leaves the old file in place; appends then go
  // on after it. Returns the rewrite's status.
  io::IoStatus Replace(const std::string& contents);
  // fsync + close. Called by the destructor if not called explicitly.
  void Close();

 private:
  void Degrade(const io::IoStatus& status, const char* what);

  std::string path_;
  Kind kind_;
  Options options_;
  io::Vfs* vfs_;
  int fd_ = -1;
  bool ok_ = false;
  bool degraded_ = false;
  std::size_t appends_ = 0;
  std::string frame_;
};

}  // namespace wolt::recover
