// Little-endian fixed-width and varint encoding helpers used by the
// Parquet-lite file format, the Arrow-lite IPC wire format, and the Big
// Metadata baselines. Modeled on RocksDB's util/coding.h.

#ifndef BIGLAKE_COMMON_CODING_H_
#define BIGLAKE_COMMON_CODING_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/status.h"

namespace biglake {

inline void PutFixed32(std::string* dst, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  dst->append(buf, 4);
}

inline void PutFixed64(std::string* dst, uint64_t v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  dst->append(buf, 8);
}

inline void PutDouble(std::string* dst, double v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  dst->append(buf, 8);
}

inline uint32_t DecodeFixed32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

inline uint64_t DecodeFixed64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline double DecodeDouble(const char* p) {
  double v;
  std::memcpy(&v, p, 8);
  return v;
}

/// Appends v as a LEB128 varint (1-10 bytes).
inline void PutVarint64(std::string* dst, uint64_t v) {
  while (v >= 0x80) {
    dst->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  dst->push_back(static_cast<char>(v));
}

/// ZigZag-encodes signed values so small magnitudes stay small.
inline void PutVarint64Signed(std::string* dst, int64_t v) {
  PutVarint64(dst, (static_cast<uint64_t>(v) << 1) ^
                       static_cast<uint64_t>(v >> 63));
}

inline void PutLengthPrefixed(std::string* dst, std::string_view s) {
  PutVarint64(dst, s.size());
  dst->append(s.data(), s.size());
}

/// A forward-only decoder over an immutable byte range. All Get* methods
/// return OutOfRange on truncated input rather than reading past the end.
class Decoder {
 public:
  explicit Decoder(std::string_view data) : data_(data), pos_(0) {}

  size_t remaining() const { return data_.size() - pos_; }
  size_t position() const { return pos_; }
  bool done() const { return pos_ >= data_.size(); }

  Status GetFixed32(uint32_t* v) {
    if (remaining() < 4) return Truncated("fixed32");
    *v = DecodeFixed32(data_.data() + pos_);
    pos_ += 4;
    return Status::OK();
  }

  Status GetFixed64(uint64_t* v) {
    if (remaining() < 8) return Truncated("fixed64");
    *v = DecodeFixed64(data_.data() + pos_);
    pos_ += 8;
    return Status::OK();
  }

  Status GetDouble(double* v) {
    if (remaining() < 8) return Truncated("double");
    *v = DecodeDouble(data_.data() + pos_);
    pos_ += 8;
    return Status::OK();
  }

  Status GetVarint64(uint64_t* v) {
    uint64_t result = 0;
    for (int shift = 0; shift <= 63; shift += 7) {
      if (done()) return Truncated("varint64");
      uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
      result |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) {
        *v = result;
        return Status::OK();
      }
    }
    return Status::DataLoss("varint64 too long");
  }

  Status GetVarint64Signed(int64_t* v) {
    uint64_t u = 0;
    BL_RETURN_NOT_OK(GetVarint64(&u));
    *v = static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
    return Status::OK();
  }

  /// Reads an element count. Every encoded element takes at least one byte,
  /// so a count beyond remaining() is corrupt input: DataLoss, before any
  /// container is sized from it.
  Status GetCount(uint64_t* n) {
    BL_RETURN_NOT_OK(GetVarint64(n));
    if (*n > remaining()) {
      return Status::DataLoss("element count exceeds the remaining input");
    }
    return Status::OK();
  }

  Status GetLengthPrefixed(std::string_view* out) {
    uint64_t len = 0;
    BL_RETURN_NOT_OK(GetVarint64(&len));
    if (remaining() < len) return Truncated("length-prefixed bytes");
    *out = data_.substr(pos_, len);
    pos_ += len;
    return Status::OK();
  }

  Status GetLengthPrefixedString(std::string* out) {
    std::string_view sv;
    BL_RETURN_NOT_OK(GetLengthPrefixed(&sv));
    out->assign(sv);
    return Status::OK();
  }

  Status Skip(size_t n) {
    if (remaining() < n) return Truncated("skip");
    pos_ += n;
    return Status::OK();
  }

 private:
  static Status Truncated(const char* what) {
    return Status::OutOfRange(std::string("truncated input reading ") + what);
  }

  std::string_view data_;
  size_t pos_;
};

/// FNV-1a 64-bit hash; used for checksums and hash partitioning.
inline uint64_t Fnv1a64(std::string_view data, uint64_t seed = 0xcbf29ce484222325ULL) {
  uint64_t h = seed;
  for (char c : data) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// 64-bit finalizer (splitmix64); good avalanche for integer hashing.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace biglake

#endif  // BIGLAKE_COMMON_CODING_H_
