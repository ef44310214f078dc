#include "recover/framed_log.h"

#include <cstdio>
#include <utility>

#include "obs/obs.h"
#include "util/codec.h"
#include "util/fileio.h"

namespace wolt::recover {

std::uint64_t Fnv1a64(const char* data, std::size_t size) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < size; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ULL;
  }
  return h;
}

void AppendFrame(std::uint32_t magic, std::string_view payload,
                 std::string* out) {
  util::PutU32(out, magic);
  util::PutU32(out, static_cast<std::uint32_t>(payload.size()));
  util::PutU64(out, Fnv1a64(payload.data(), payload.size()));
  out->append(payload);
}

FrameScan ScanFrames(std::string_view bytes, std::uint32_t magic,
                     const FrameVisitor& visit) {
  std::size_t pos = 0;
  bool rot = false;
  while (bytes.size() - pos >= kFrameHeaderBytes) {
    util::ByteCursor frame(bytes.data() + pos, kFrameHeaderBytes);
    const std::uint32_t frame_magic = frame.U32();
    const std::uint32_t len = frame.U32();
    const std::uint64_t checksum = frame.U64();
    if (frame_magic != magic) {
      rot = true;
      break;
    }
    if (len > bytes.size() - pos - kFrameHeaderBytes) break;  // torn payload
    const std::string_view payload = bytes.substr(pos + kFrameHeaderBytes, len);
    const std::size_t frame_end = pos + kFrameHeaderBytes + len;
    if (Fnv1a64(payload.data(), len) != checksum ||
        !visit(payload, frame_end)) {
      rot = true;  // bad checksum, or a checksummed payload that is garbage
      break;
    }
    pos = frame_end;
  }
  FrameScan out;
  out.valid_bytes = pos;
  out.torn_bytes = bytes.size() - pos;
  if (out.torn_bytes > 0) {
    out.tail_rot = rot;
    out.tail_torn = !rot;
  }
  return out;
}

FramedLogWriter::FramedLogWriter(const std::string& path, Kind kind,
                                 Options options)
    : path_(path),
      kind_(kind),
      options_(std::move(options)),
      vfs_(&io::OrDefault(options_.vfs)) {}

void FramedLogWriter::OpenFresh(std::string_view header_payload) {
  io::IoStatus st;
  fd_ = vfs_->OpenWrite(path_, io::Vfs::OpenMode::kTruncate, &st);
  if (fd_ < 0) {
    Degrade(st, "cannot open");
    return;
  }
  ok_ = true;
  Append(header_payload);  // degrades on failure
}

void FramedLogWriter::Resume(std::uint64_t size) {
  io::IoStatus st = vfs_->Truncate(path_, size);
  if (!st.ok()) {
    Degrade(st, "cannot truncate to its valid prefix");
    return;
  }
  fd_ = vfs_->OpenWrite(path_, io::Vfs::OpenMode::kAppend, &st);
  if (fd_ < 0) {
    Degrade(st, "cannot reopen");
    return;
  }
  ok_ = true;
}

void FramedLogWriter::Append(std::string_view payload) {
  if (!ok_ || fd_ < 0) return;
  frame_.clear();
  AppendFrame(kind_.magic, payload, &frame_);
  io::IoStatus st = io::WriteAll(*vfs_, fd_, frame_);
  if (st.ok() && options_.sync_every_append) {
    st = io::FsyncRetry(*vfs_, fd_);
  }
  if (!st.ok()) {
    Degrade(st, "append failed");
    return;
  }
  ++appends_;
  if (options_.after_append) options_.after_append(appends_);
}

io::IoStatus FramedLogWriter::Replace(const std::string& contents) {
  vfs_->Close(fd_);
  fd_ = -1;
  const io::IoStatus write_st = util::WriteFileAtomic(path_, contents, vfs_);
  io::IoStatus open_st;
  fd_ = vfs_->OpenWrite(path_, io::Vfs::OpenMode::kAppend, &open_st);
  if (fd_ < 0) Degrade(open_st, "cannot reopen after a rewrite");
  return write_st;
}

void FramedLogWriter::Close() {
  if (fd_ < 0) return;
  io::IoStatus st = io::FsyncRetry(*vfs_, fd_);
  const io::IoStatus close_st = vfs_->Close(fd_);
  if (st.ok()) st = close_st;
  fd_ = -1;
  if (!st.ok()) Degrade(st, "close failed");
}

void FramedLogWriter::Degrade(const io::IoStatus& status, const char* what) {
  if (fd_ >= 0) {
    vfs_->Close(fd_);
    fd_ = -1;
  }
  ok_ = false;
  if (degraded_) return;
  degraded_ = true;
  std::fprintf(stderr,
               "wolt: %s %s: %s (%s) — journaling disabled, the run "
               "continues best-effort (no crash resume past this point)\n",
               kind_.name, path_.c_str(), what, status.Message().c_str());
  if (obs::MetricsScope* s = obs::CurrentScope()) kind_.count_degraded(*s);
}

}  // namespace wolt::recover
