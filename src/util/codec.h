// Binary payload codec shared by every crash-recovery artefact (the record
// payloads of the sweep and fleet journals in recover/, and the
// controller/fleet state snapshots). Fixed-width integers stored in
// native byte order and raw 8-byte doubles: these are same-machine recovery
// formats, not interchange formats, so native order is fine and gives exact
// double round trips for free — which the byte-identical-resume contract
// requires.
//
// Writing appends to a std::string; reading goes through ByteCursor, a
// bounds-checked sequential reader that poisons itself on any overrun (all
// further reads yield zeros and ok() turns false), so a truncated or corrupt
// payload can never run past its buffer or trigger a huge allocation.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace wolt::util {

inline void PutU8(std::string* out, std::uint8_t v) {
  out->push_back(static_cast<char>(v));
}

inline void PutU32(std::string* out, std::uint32_t v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out->append(buf, sizeof v);
}

inline void PutU64(std::string* out, std::uint64_t v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out->append(buf, sizeof v);
}

inline void PutI64(std::string* out, std::int64_t v) {
  PutU64(out, static_cast<std::uint64_t>(v));
}

inline void PutI32(std::string* out, std::int32_t v) {
  PutU32(out, static_cast<std::uint32_t>(v));
}

inline void PutDouble(std::string* out, double v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out->append(buf, sizeof v);
}

inline void PutString(std::string* out, const std::string& s) {
  PutU64(out, s.size());
  out->append(s);
}

// Bounds-checked sequential reader over a payload; any overrun poisons it.
class ByteCursor {
 public:
  ByteCursor(const char* data, std::size_t size) : p_(data), left_(size) {}
  explicit ByteCursor(std::string_view s) : ByteCursor(s.data(), s.size()) {}

  bool ok() const { return ok_; }
  bool AtEnd() const { return ok_ && left_ == 0; }

  std::uint8_t U8() {
    std::uint8_t v = 0;
    Raw(&v, sizeof v);
    return v;
  }
  std::uint32_t U32() {
    std::uint32_t v = 0;
    Raw(&v, sizeof v);
    return v;
  }
  std::uint64_t U64() {
    std::uint64_t v = 0;
    Raw(&v, sizeof v);
    return v;
  }
  std::int64_t I64() { return static_cast<std::int64_t>(U64()); }
  std::int32_t I32() { return static_cast<std::int32_t>(U32()); }
  double Double() {
    double v = 0;
    Raw(&v, sizeof v);
    return v;
  }
  std::string String() {
    const std::uint64_t n = U64();
    if (!ok_ || n > left_) {
      ok_ = false;
      return {};
    }
    std::string s(p_, static_cast<std::size_t>(n));
    p_ += n;
    left_ -= static_cast<std::size_t>(n);
    return s;
  }

  // Length-prefixed vectors. The element count is validated against the
  // bytes remaining before allocating, so a corrupt length cannot trigger a
  // huge allocation.
  bool DoubleVec(std::vector<double>* out) {
    const std::uint64_t n = U64();
    if (!ok_ || n > left_ / sizeof(double)) {
      ok_ = false;
      return false;
    }
    out->resize(static_cast<std::size_t>(n));
    for (double& v : *out) v = Double();
    return ok_;
  }
  bool U64Vec(std::vector<std::uint64_t>* out) {
    const std::uint64_t n = U64();
    if (!ok_ || n > left_ / sizeof(std::uint64_t)) {
      ok_ = false;
      return false;
    }
    out->resize(static_cast<std::size_t>(n));
    for (std::uint64_t& v : *out) v = U64();
    return ok_;
  }
  bool I64Vec(std::vector<std::int64_t>* out) {
    const std::uint64_t n = U64();
    if (!ok_ || n > left_ / sizeof(std::int64_t)) {
      ok_ = false;
      return false;
    }
    out->resize(static_cast<std::size_t>(n));
    for (std::int64_t& v : *out) v = I64();
    return ok_;
  }
  bool I32Vec(std::vector<int>* out) {
    const std::uint64_t n = U64();
    if (!ok_ || n > left_ / sizeof(std::int32_t)) {
      ok_ = false;
      return false;
    }
    out->resize(static_cast<std::size_t>(n));
    for (int& v : *out) v = I32();
    return ok_;
  }

 private:
  void Raw(void* dst, std::size_t n) {
    if (!ok_ || n > left_) {
      ok_ = false;
      std::memset(dst, 0, n);
      return;
    }
    std::memcpy(dst, p_, n);
    p_ += n;
    left_ -= n;
  }

  const char* p_;
  std::size_t left_;
  bool ok_ = true;
};

inline void PutI64Vec(std::string* out, const std::vector<std::int64_t>& v) {
  PutU64(out, v.size());
  for (std::int64_t x : v) PutI64(out, x);
}

inline void PutI32Vec(std::string* out, const std::vector<int>& v) {
  PutU64(out, v.size());
  for (int x : v) PutI32(out, x);
}

inline void PutU64Vec(std::string* out, const std::vector<std::uint64_t>& v) {
  PutU64(out, v.size());
  for (std::uint64_t x : v) PutU64(out, x);
}

inline void PutDoubleVec(std::string* out, const std::vector<double>& v) {
  PutU64(out, v.size());
  for (double x : v) PutDouble(out, x);
}

}  // namespace wolt::util
