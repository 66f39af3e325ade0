#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace wefr::data {

// --- byte-buffer serialization -------------------------------------
// Native-endianness memcpy of scalar fields, shared by every binary
// artifact the data layer writes (the WEFRFC01 fleet snapshot, the
// WEFRDM01/WEFRDS01 daemon records). Writers pair an endian sentinel in
// their fixed header with a trailing word-mixed digest, so foreign or
// damaged files degrade to a clean validation failure instead of a
// fault.

class ByteWriter {
 public:
  template <typename T>
  void scalar(T v) {
    const auto* p = reinterpret_cast<const char*>(&v);
    buf_.append(p, sizeof(T));
  }
  void bytes(const void* p, std::size_t n) {
    buf_.append(static_cast<const char*>(p), n);
  }
  void str(std::string_view s) {
    scalar(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }
  std::string& buf() { return buf_; }

 private:
  std::string buf_;
};

/// Bounds-checked reader over a serialized buffer: every read that
/// would run past the end fails instead of faulting, so truncated or
/// hostile files degrade to a clean invalidation.
class ByteReader {
 public:
  explicit ByteReader(std::string_view buf) : buf_(buf) {}

  template <typename T>
  bool scalar(T& out) {
    if (buf_.size() - pos_ < sizeof(T)) return false;
    std::memcpy(&out, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }
  bool str(std::string& out, std::size_t max_len = 1u << 20) {
    std::uint32_t n = 0;
    if (!scalar(n) || n > max_len || buf_.size() - pos_ < n) return false;
    out.assign(buf_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  const char* raw(std::size_t n) {
    if (buf_.size() - pos_ < n) return nullptr;
    const char* p = buf_.data() + pos_;
    pos_ += n;
    return p;
  }
  std::size_t pos() const { return pos_; }
  std::size_t remaining() const { return buf_.size() - pos_; }

 private:
  std::string_view buf_;
  std::size_t pos_ = 0;
};

inline std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

inline std::uint64_t fnv1a(std::string_view s) {
  return fnv1a(14695981039346656037ull, s.data(), s.size());
}

/// Bijective 64-bit mixer (the MurmurHash3 / SplitMix64 finalizer):
/// every output bit depends on every input bit.
inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

/// The full 128-bit product of `a` and `b`, folded to 64 bits (high
/// half xor low half): every output bit depends on every bit of `a`.
inline std::uint64_t fold_mul(std::uint64_t a, std::uint64_t b) {
  __extension__ typedef unsigned __int128 u128;
  const u128 p = static_cast<u128>(a) * b;
  return static_cast<std::uint64_t>(p) ^ static_cast<std::uint64_t>(p >> 64);
}

/// Trailing record digest (WEFRFC01, WEFRDM01, WEFRDS01). Four lanes
/// take the 8-byte words in turn; each word is xored into its lane and
/// mixed with it by a folded 128-bit multiply, so every bit of the lane
/// depends on every bit of the word. Leftover words go to lane 0 and
/// the zero-padded tail bytes to lane 1; the lanes and the length then
/// fold into one value, finished by mix64. The mix is what makes the
/// digest sound: a plain xor-multiply fold only carries bits upward, so
/// a difference confined to a word's top byte never reaches the low 56
/// bits and two such differences can cancel. The four lanes are
/// independent multiply chains, so the digest runs at about twice the
/// speed of one chain — it scans the entire multi-MB payload on every
/// warm load, directly on the cache-hit hot path.
inline std::uint64_t snapshot_digest(const void* data, std::size_t n) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t a = 0x243f6a8885a308d3ull, b = 0x13198a2e03707344ull;
  std::uint64_t c = 0xa4093822299f31d0ull, d = 0x082efa98ec4e6c89ull;
  std::size_t i = 0;
  for (; i + 4 * sizeof(std::uint64_t) <= n; i += 4 * sizeof(std::uint64_t)) {
    std::uint64_t w[4];
    std::memcpy(w, p + i, sizeof(w));
    a = fold_mul(a ^ w[0], kMul);
    b = fold_mul(b ^ w[1], kMul);
    c = fold_mul(c ^ w[2], kMul);
    d = fold_mul(d ^ w[3], kMul);
  }
  for (; i + sizeof(std::uint64_t) <= n; i += sizeof(std::uint64_t)) {
    std::uint64_t w;
    std::memcpy(&w, p + i, sizeof(w));
    a = fold_mul(a ^ w, kMul);
  }
  if (i < n) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, n - i);
    b = fold_mul(b ^ w, kMul);
  }
  std::uint64_t h = static_cast<std::uint64_t>(n);
  for (const std::uint64_t lane : {a, b, c, d}) h = fold_mul(h ^ lane, kMul);
  return mix64(h);
}

}  // namespace wefr::data
