// The low-level pieces every snapshot is made of: the typed SnapshotError
// family, CRC-32, and a little-endian byte codec (SnapshotWriter /
// SnapshotReader) for the small "meta" sections that hold a scheme's scalars
// and parameters, and for reading the arena prologue.  Tables themselves are
// flat arena sections (io/arena.h), never codec streams.
//
// This header is deliberately free of any graph/scheme dependency so that
// every scheme translation unit can encode its meta section against it
// without layering cycles.
//
// Encoding rules:
//   * all integers little-endian, fixed width (u8/u32/u64/i32/i64),
//   * vectors are a u64 count followed by the elements.
#ifndef RTR_IO_SNAPSHOT_FORMAT_H
#define RTR_IO_SNAPSHOT_FORMAT_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace rtr {

/// Root of every snapshot failure; catch this to treat a cache file as
/// "absent" and fall back to a fresh build.
class SnapshotError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The file could not be opened, read, or written.
class SnapshotIoError final : public SnapshotError {
 public:
  using SnapshotError::SnapshotError;
};

/// Structurally malformed content (bad magic, impossible counts, trailing
/// or missing bytes inside a section).
class SnapshotFormatError : public SnapshotError {
 public:
  using SnapshotError::SnapshotError;
};

/// The file ends before the advertised content does.
class SnapshotTruncatedError final : public SnapshotFormatError {
 public:
  using SnapshotFormatError::SnapshotFormatError;
};

/// The file's format version is not the one this binary writes.
class SnapshotVersionError final : public SnapshotError {
 public:
  using SnapshotError::SnapshotError;
};

/// A section's CRC-32 does not match its payload.
class SnapshotChecksumError final : public SnapshotError {
 public:
  using SnapshotError::SnapshotError;
};

/// The snapshot holds a different scheme than the caller asked for.
class SnapshotSchemeMismatchError final : public SnapshotError {
 public:
  using SnapshotError::SnapshotError;
};

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) over a byte range.
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t size,
                                  std::uint32_t seed = 0);

/// Appends typed primitives to an in-memory byte buffer (the caller frames
/// the buffer into sections and writes it to disk).
class SnapshotWriter {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }
  void i32(std::int32_t v) { append_le(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { append_le(static_cast<std::uint64_t>(v)); }

  /// Appends raw bytes verbatim.
  // GCC 12 mis-models the inlined vector insert growing from empty and
  // reports a spurious -Wstringop-overflow ("region of size 0"); suppress
  // just that diagnostic here (false positive, see GCC PR 105329).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wstringop-overflow"
#endif
  void raw(const std::uint8_t* data, std::size_t size) {
    if (size == 0) return;
    bytes_.insert(bytes_.end(), data, data + size);
  }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

  /// u64 count followed by f(writer, element) for each element.
  template <typename T, typename F>
  void vec(const std::vector<T>& v, F f) {
    u64(v.size());
    for (const auto& x : v) f(*this, x);
  }

  void vec_i64(const std::vector<std::int64_t>& v) { bulk_vec(v); }
  void vec_u64(const std::vector<std::uint64_t>& v) { bulk_vec(v); }

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const {
    return bytes_;
  }
  [[nodiscard]] std::size_t size() const { return bytes_.size(); }

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  /// Fixed-width integer vectors: one memcpy on little-endian hosts, the
  /// element loop elsewhere.  The on-disk bytes are identical either way.
  template <typename T>
  void bulk_vec(const std::vector<T>& v) {
    u64(v.size());
    if constexpr (std::endian::native == std::endian::little) {
      raw(reinterpret_cast<const std::uint8_t*>(v.data()),
          v.size() * sizeof(T));
    } else {
      for (T x : v) append_le(static_cast<std::make_unsigned_t<T>>(x));
    }
  }

  std::vector<std::uint8_t> bytes_;
};

/// Reads typed primitives from a bounded byte range; every access is bounds
/// checked and running past the end throws SnapshotTruncatedError.
class SnapshotReader {
 public:
  SnapshotReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] std::uint8_t u8() {
    need(1);
    return data_[pos_++];
  }
  [[nodiscard]] std::uint32_t u32() { return read_le<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return read_le<std::uint64_t>(); }
  [[nodiscard]] std::int32_t i32() {
    return static_cast<std::int32_t>(read_le<std::uint32_t>());
  }
  [[nodiscard]] std::int64_t i64() {
    return static_cast<std::int64_t>(read_le<std::uint64_t>());
  }

  /// Reads a u64 count and calls f(reader) that many times, collecting the
  /// results.  `min_elem_bytes` guards against absurd counts in corrupt files
  /// before any allocation happens.
  template <typename T, typename F>
  [[nodiscard]] std::vector<T> vec(F f, std::size_t min_elem_bytes = 1) {
    const std::uint64_t count = u64();
    check_count(count, min_elem_bytes);
    std::vector<T> out;
    out.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) out.push_back(f(*this));
    return out;
  }

  [[nodiscard]] std::vector<std::int64_t> vec_i64() {
    return bulk_vec<std::int64_t>();
  }
  [[nodiscard]] std::vector<std::uint64_t> vec_u64() {
    return bulk_vec<std::uint64_t>();
  }

  /// Bounds-checked bulk copy out of the stream: the single place raw bytes
  /// leave a payload.  Checks BEFORE copying, so a truncated file or a
  /// short-mapped arena region can never be read past its end.
  void read_exact(void* dst, std::size_t n) {
    need(n);
    if (n != 0) std::memcpy(dst, data_ + pos_, n);  // rtr-lint: checked-copy
    pos_ += n;
  }

  /// Asserts the payload was consumed exactly; leftover bytes mean the file
  /// and this binary disagree about the encoding.
  void expect_exhausted(const std::string& what) const {
    if (pos_ != size_) {
      throw SnapshotFormatError("snapshot: " + what + " has " +
                                std::to_string(size_ - pos_) +
                                " unconsumed trailing bytes");
    }
  }

 private:
  /// Mirror of SnapshotWriter::bulk_vec.
  template <typename T>
  [[nodiscard]] std::vector<T> bulk_vec() {
    const std::uint64_t count = u64();
    check_count(count, sizeof(T));
    std::vector<T> out(static_cast<std::size_t>(count));
    if constexpr (std::endian::native == std::endian::little) {
      read_exact(out.data(), static_cast<std::size_t>(count) * sizeof(T));
    } else {
      for (auto& x : out) x = static_cast<T>(read_le<std::make_unsigned_t<T>>());
    }
    return out;
  }

  template <typename T>
  [[nodiscard]] T read_le() {
    need(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }

  void need(std::size_t n) const {
    if (size_ - pos_ < n) {
      throw SnapshotTruncatedError(
          "snapshot: truncated (need " + std::to_string(n) + " bytes at " +
          std::to_string(pos_) + ", have " + std::to_string(size_ - pos_) +
          ")");
    }
  }

  /// An element count cannot exceed the bytes left to read.
  void check_count(std::uint64_t count, std::size_t min_elem_bytes) const {
    if (min_elem_bytes > 0 &&
        count > (size_ - pos_) / std::max<std::size_t>(min_elem_bytes, 1)) {
      throw SnapshotTruncatedError(
          "snapshot: element count " + std::to_string(count) +
          " exceeds the remaining payload");
    }
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace rtr

#endif  // RTR_IO_SNAPSHOT_FORMAT_H
