// The relocatable snapshot arena: the one snapshot encoding (format
// version 2).
//
// A snapshot is ONE pointer-free, offset-based, 8-byte-aligned region:
//
//   offset  field
//   ------  ------------------------------------------------------------
//   0       magic: the 8 bytes "RTRSNAP\0"
//   8       format version (u32) = 2
//   12      padding (u32) = 0
//   16      ArenaFileHeader (fixed-size POD, CRC'd):
//             scheme name (64 bytes, NUL padded), ABI layout tag,
//             node/edge counts, directory offset/count, directory CRC
//   120     sections: raw typed element arrays, each 8-byte aligned,
//             in directory order, zero-padded between
//   ...     directory: dir_count x ArenaDirEntry
//             {name[32], offset, count, elem_size, crc}
//
// Because every reference is a file offset and every array element is a
// fixed-width POD, the region is *relocatable*: load-in-place is open +
// mmap + header/CRC check + fixup of offsets into FlatVec views -- O(ms) at
// any n.  The same bytes can live in an owned heap buffer (today's path), a
// file mapping, or a POSIX shared-memory object that multiple serving
// processes attach read-only (epoch swap = remap; one physical copy).
//
// Integrity policy: the mapped fast path verifies the header and directory
// CRCs only (O(1)); owned loads and tooling (`rtr_cli snapshot map-info`,
// the snapshot auditor) additionally verify every section CRC
// (verify_section_crcs).  The layout tag pins the host ABI -- endianness and
// the sizes of the fundamental types the views reinterpret -- so a file from
// an incompatible host fails loudly instead of misreading.
#ifndef RTR_IO_ARENA_H
#define RTR_IO_ARENA_H

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "io/snapshot_format.h"
#include "util/flat_vec.h"

namespace rtr {

inline constexpr std::uint32_t kArenaFormatVersion = 2;
inline constexpr std::size_t kArenaAlign = 8;
inline constexpr std::size_t kArenaMagicSize = 8;
inline constexpr std::size_t kArenaSectionNameMax = 31;
inline constexpr std::size_t kArenaSchemeNameMax = 63;

/// The 8 magic bytes every snapshot starts with: "RTRSNAP\0".
[[nodiscard]] const std::uint8_t* snapshot_magic();

/// A structurally invalid arena region: misaligned or out-of-bounds section
/// offset, overlapping sections, bad directory, ABI mismatch.  Subtype of
/// SnapshotFormatError so cache-miss fallbacks keep catching the root type.
class SnapshotArenaError final : public SnapshotFormatError {
 public:
  using SnapshotFormatError::SnapshotFormatError;
};

/// ABI fingerprint baked into every v2 file: little-endian byte order plus
/// the fixed sizes of the fundamental types the views reinterpret.  A file
/// written by an incompatible host fails the tag check up front.
[[nodiscard]] std::uint32_t arena_layout_tag();

/// On-disk directory entry (POD, written verbatim).
struct ArenaDirEntry {
  char name[32];           // section name, NUL padded
  std::uint64_t offset;    // from file start; kArenaAlign-aligned
  std::uint64_t count;     // element count
  std::uint32_t elem_size; // bytes per element
  std::uint32_t crc;       // CRC-32 over the count*elem_size payload bytes

  [[nodiscard]] std::string name_str() const;
  [[nodiscard]] std::uint64_t byte_size() const {
    return count * static_cast<std::uint64_t>(elem_size);
  }
};
static_assert(sizeof(ArenaDirEntry) == 56);
static_assert(std::is_trivially_copyable_v<ArenaDirEntry>);

/// On-disk file header at offset 16 (POD, written verbatim, CRC'd with the
/// header_crc field zeroed).
struct ArenaFileHeader {
  char scheme[64];          // registry scheme name, NUL padded
  std::uint32_t layout_tag; // must equal arena_layout_tag()
  std::uint32_t node_count;
  std::uint64_t edge_count;
  std::uint64_t dir_offset; // from file start
  std::uint32_t dir_count;
  std::uint32_t dir_crc;    // CRC-32 over the directory entries
  std::uint32_t header_crc;
  std::uint32_t pad;

  [[nodiscard]] std::string scheme_str() const;
};
static_assert(sizeof(ArenaFileHeader) == 104);
static_assert(std::is_trivially_copyable_v<ArenaFileHeader>);

/// Byte offset where sections begin (magic + version + pad + header).
inline constexpr std::size_t kArenaSectionStart =
    kArenaMagicSize + 8 + sizeof(ArenaFileHeader);

/// Owner of arena bytes: an owned heap buffer, a file mapping, or a shared
/// memory mapping.  Classes holding FlatVec views over an arena keep a
/// shared_ptr to the storage so the bytes outlive every view.
class ArenaStorage {
 public:
  virtual ~ArenaStorage() = default;
  ArenaStorage(const ArenaStorage&) = delete;
  ArenaStorage& operator=(const ArenaStorage&) = delete;

  [[nodiscard]] const std::uint8_t* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// True for mmap-backed storage (file or shm), false for owned buffers.
  [[nodiscard]] virtual bool is_mapped() const = 0;

 protected:
  ArenaStorage(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}
  const std::uint8_t* data_;
  std::size_t size_;
};

/// Wraps a heap buffer (the bit-compatible owning backend).
[[nodiscard]] std::shared_ptr<const ArenaStorage> make_owned_arena(
    std::vector<std::uint8_t> bytes);

/// mmap(2)s a file read-only (load-in-place).  Throws SnapshotIoError.
[[nodiscard]] std::shared_ptr<const ArenaStorage> map_arena_file(
    const std::string& path);

/// Attaches a POSIX shared-memory object read-only (MAP_SHARED): multiple
/// processes serve from one physical copy.  Throws SnapshotIoError.
[[nodiscard]] std::shared_ptr<const ArenaStorage> map_arena_shm(
    const std::string& shm_name);

/// Creates/overwrites a POSIX shared-memory object with the given bytes
/// (the publishing side of shm distribution).  Throws SnapshotIoError.
void publish_arena_shm(const std::string& shm_name, const std::uint8_t* data,
                       std::size_t size);

/// Removes a published shared-memory object (best effort; missing is fine).
void unlink_arena_shm(const std::string& shm_name);

/// Builds an arena image section by section.  Sections are appended in call
/// order (deterministic bytes for deterministic inputs), 8-aligned with zero
/// padding, and CRC'd individually.
class ArenaWriter {
 public:
  ArenaWriter();

  /// Appends `count` elements of a trivially copyable type with alignment
  /// <= kArenaAlign.  Section names are unique, non-empty, and at most
  /// kArenaSectionNameMax bytes.
  template <typename T>
  void add(const std::string& name, const T* data, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(alignof(T) <= kArenaAlign);
    add_raw(name, reinterpret_cast<const std::uint8_t*>(data),
            count, sizeof(T));
  }
  template <typename T>
  void add(const std::string& name, const FlatVec<T>& v) {
    add(name, v.data(), v.size());
  }
  template <typename T>
  void add(const std::string& name, const std::vector<T>& v) {
    add(name, v.data(), v.size());
  }
  /// A byte-blob section (elem_size 1): a scheme's little-endian "meta".
  void add_bytes(const std::string& name, const std::uint8_t* data,
                 std::size_t size) {
    add_raw(name, data, size, 1);
  }

  /// Stamps header + directory and returns the complete file image.
  [[nodiscard]] std::vector<std::uint8_t> finalize(const std::string& scheme,
                                                   std::int64_t node_count,
                                                   std::int64_t edge_count);

 private:
  void add_raw(const std::string& name, const std::uint8_t* data,
               std::size_t count, std::size_t elem_size);

  std::vector<std::uint8_t> bytes_;  // prologue placeholder + sections
  std::vector<ArenaDirEntry> dir_;
};

/// A CRC-valid arena can still carry inconsistent row offsets, and every
/// indexed access a loader hands out trusts them: throws SnapshotArenaError
/// unless `off` rises monotonically from 0 to `entries`.
inline void check_csr_offsets(const FlatVec<std::int64_t>& off,
                              std::size_t entries, const std::string& what) {
  if (off.empty() || off.front() != 0 ||
      off.back() != static_cast<std::int64_t>(entries) ||
      !std::is_sorted(off.begin(), off.end())) {
    throw SnapshotArenaError("arena: " + what +
                             " offsets do not frame their entry arrays");
  }
}

/// A parsed, validated arena: resolves named sections to FlatVec views.
/// Construction validates the *framing* -- magic, version, layout tag,
/// header CRC, directory bounds/CRC, per-section alignment + bounds +
/// non-overlap -- throwing typed SnapshotErrors.  Section payload CRCs are
/// verified separately (verify_section_crcs) so the mapped hot path stays
/// O(1) while owned loads and tooling stay end-to-end checked.
class ArenaView {
 public:
  ArenaView() = default;
  explicit ArenaView(std::shared_ptr<const ArenaStorage> storage);

  [[nodiscard]] const ArenaFileHeader& header() const { return header_; }
  [[nodiscard]] std::string scheme() const { return header_.scheme_str(); }
  [[nodiscard]] std::uint64_t file_bytes() const { return storage_->size(); }
  [[nodiscard]] const std::vector<ArenaDirEntry>& entries() const {
    return entries_;
  }
  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] const ArenaDirEntry& entry(const std::string& name) const;

  /// A typed view of one section; element size must match exactly.
  template <typename T>
  [[nodiscard]] FlatVec<T> vec(const std::string& name) const {
    static_assert(std::is_trivially_copyable_v<T>);
    static_assert(alignof(T) <= kArenaAlign);
    const ArenaDirEntry& e = entry(name);
    if (e.elem_size != sizeof(T)) {
      throw SnapshotArenaError("arena: section '" + name + "' has elem_size " +
                               std::to_string(e.elem_size) + ", expected " +
                               std::to_string(sizeof(T)));
    }
    return FlatVec<T>::view(
        reinterpret_cast<const T*>(storage_->data() + e.offset),
        static_cast<std::size_t>(e.count));
  }

  /// Same, with an exact element-count requirement (cross-structure checks:
  /// a CRC-valid header whose counts disagree with the arrays is corrupt).
  template <typename T>
  [[nodiscard]] FlatVec<T> vec(const std::string& name,
                               std::uint64_t expected_count) const {
    const ArenaDirEntry& e = entry(name);
    if (e.count != expected_count) {
      throw SnapshotArenaError(
          "arena: section '" + name + "' holds " + std::to_string(e.count) +
          " elements, header implies " + std::to_string(expected_count));
    }
    return vec<T>(name);
  }

  /// A SnapshotReader over a byte-blob section (a "meta" section).
  [[nodiscard]] SnapshotReader reader(const std::string& name) const;

  /// Recomputes every section CRC against the directory (owned loads and
  /// tooling; the mapped fast path skips it by design).
  void verify_section_crcs() const;

  /// The storage keeping every view alive; classes embedding views copy it.
  [[nodiscard]] const std::shared_ptr<const ArenaStorage>& storage() const {
    return storage_;
  }

 private:
  std::shared_ptr<const ArenaStorage> storage_;
  ArenaFileHeader header_{};
  std::vector<ArenaDirEntry> entries_;
};

}  // namespace rtr

#endif  // RTR_IO_ARENA_H
