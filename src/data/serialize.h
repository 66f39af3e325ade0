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
// their fixed header with a trailing FNV-1a digest, so foreign or
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

/// Trailing snapshot digest: FNV-1a folded over 8-byte words, tail
/// bytes one at a time. Any flipped byte still changes the digest, but
/// the word loop runs ~8x faster than the byte loop — the digest scans
/// the entire multi-MB payload on every warm load, so it sits directly
/// on the cache-hit hot path.
inline std::uint64_t snapshot_digest(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 14695981039346656037ull;
  std::size_t i = 0;
  for (; i + sizeof(std::uint64_t) <= n; i += sizeof(std::uint64_t)) {
    std::uint64_t word;
    std::memcpy(&word, p + i, sizeof(word));
    h ^= word;
    h *= 1099511628211ull;
  }
  for (; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace wefr::data
