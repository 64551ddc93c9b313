#include "io/arena.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>

#include "util/types.h"

namespace rtr {

const std::uint8_t* snapshot_magic() {
  static const std::uint8_t kMagic[kArenaMagicSize] = {'R', 'T', 'R', 'S',
                                                       'N', 'A', 'P', '\0'};
  return kMagic;
}

std::uint32_t arena_layout_tag() {
  // Everything a view reinterprets must agree between writer and reader:
  // byte order, the fundamental type widths, and the alignment quantum.
  // Struct sections (Edge, TreeNodeTable, hop pairs) are pinned by
  // static_asserts at their save/load sites, so they reduce to these.
  const std::uint8_t desc[] = {
      std::endian::native == std::endian::little ? std::uint8_t{1}
                                                 : std::uint8_t{2},
      static_cast<std::uint8_t>(sizeof(NodeId)),
      static_cast<std::uint8_t>(sizeof(NodeName)),
      static_cast<std::uint8_t>(sizeof(Port)),
      static_cast<std::uint8_t>(sizeof(Weight)),
      static_cast<std::uint8_t>(sizeof(Dist)),
      static_cast<std::uint8_t>(kArenaAlign),
  };
  return crc32(desc, sizeof desc, 0xA7E0A001u);
}

std::string ArenaDirEntry::name_str() const {
  const auto* end = static_cast<const char*>(
      std::memchr(name, '\0', sizeof name));  // rtr-lint: checked-copy
  return std::string(name, end == nullptr ? sizeof name
                                          : static_cast<std::size_t>(end - name));
}

std::string ArenaFileHeader::scheme_str() const {
  const auto* end = static_cast<const char*>(
      std::memchr(scheme, '\0', sizeof scheme));  // rtr-lint: checked-copy
  return std::string(scheme,
                     end == nullptr ? sizeof scheme
                                    : static_cast<std::size_t>(end - scheme));
}

// ---------------------------------------------------------------- storage --

namespace {

class OwnedArenaStorage final : public ArenaStorage {
 public:
  explicit OwnedArenaStorage(std::vector<std::uint8_t> bytes)
      : ArenaStorage(nullptr, 0), bytes_(std::move(bytes)) {
    data_ = bytes_.data();
    size_ = bytes_.size();
  }
  [[nodiscard]] bool is_mapped() const override { return false; }

 private:
  std::vector<std::uint8_t> bytes_;
};

class MappedArenaStorage final : public ArenaStorage {
 public:
  MappedArenaStorage(void* addr, std::size_t size)
      : ArenaStorage(static_cast<const std::uint8_t*>(addr), size) {}
  ~MappedArenaStorage() override {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
  [[nodiscard]] bool is_mapped() const override { return true; }
};

[[noreturn]] void throw_errno(const std::string& what) {
  throw SnapshotIoError(what + ": " + std::strerror(errno));
}

/// mmap(2)s an open descriptor read-only and wraps it; closes fd regardless.
std::shared_ptr<const ArenaStorage> map_fd(int fd, const std::string& what,
                                           int flags) {
  struct ::stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw_errno("arena: fstat " + what);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    throw SnapshotTruncatedError("arena: " + what + " is empty");
  }
  void* addr = ::mmap(nullptr, size, PROT_READ, flags, fd, 0);
  ::close(fd);
  if (addr == MAP_FAILED) throw_errno("arena: mmap " + what);
  return std::make_shared<MappedArenaStorage>(addr, size);
}

std::string normalize_shm_name(const std::string& shm_name) {
  return shm_name.empty() || shm_name.front() != '/' ? "/" + shm_name
                                                     : shm_name;
}

}  // namespace

std::shared_ptr<const ArenaStorage> make_owned_arena(
    std::vector<std::uint8_t> bytes) {
  return std::make_shared<OwnedArenaStorage>(std::move(bytes));
}

std::shared_ptr<const ArenaStorage> map_arena_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw_errno("arena: open " + path);
  // MAP_PRIVATE read-only: identical sharing semantics to MAP_SHARED for a
  // never-written mapping, and it works on filesystems that reject shared
  // file mappings.
  return map_fd(fd, path, MAP_PRIVATE);
}

std::shared_ptr<const ArenaStorage> map_arena_shm(const std::string& shm_name) {
  const std::string name = normalize_shm_name(shm_name);
  const int fd = ::shm_open(name.c_str(), O_RDONLY, 0);
  if (fd < 0) throw_errno("arena: shm_open " + name);
  // MAP_SHARED so every attached process references the one physical copy.
  return map_fd(fd, "shm " + name, MAP_SHARED);
}

void publish_arena_shm(const std::string& shm_name, const std::uint8_t* data,
                       std::size_t size) {
  const std::string name = normalize_shm_name(shm_name);
  const int fd = ::shm_open(name.c_str(), O_CREAT | O_RDWR, 0644);
  if (fd < 0) throw_errno("arena: shm_open " + name);
  if (::ftruncate(fd, static_cast<off_t>(size)) != 0) {
    ::close(fd);
    ::shm_unlink(name.c_str());
    throw_errno("arena: ftruncate shm " + name);
  }
  void* addr = ::mmap(nullptr, size, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
  ::close(fd);
  if (addr == MAP_FAILED) {
    ::shm_unlink(name.c_str());
    throw_errno("arena: mmap shm " + name);
  }
  std::copy(data, data + size, static_cast<std::uint8_t*>(addr));
  ::munmap(addr, size);
}

void unlink_arena_shm(const std::string& shm_name) {
  ::shm_unlink(normalize_shm_name(shm_name).c_str());
}

// ----------------------------------------------------------------- writer --

ArenaWriter::ArenaWriter() : bytes_(kArenaSectionStart, 0) {}

void ArenaWriter::add_raw(const std::string& name, const std::uint8_t* data,
                          std::size_t count, std::size_t elem_size) {
  if (name.empty() || name.size() > kArenaSectionNameMax) {
    throw std::invalid_argument("ArenaWriter: bad section name '" + name + "'");
  }
  for (const ArenaDirEntry& e : dir_) {
    if (e.name_str() == name) {
      throw std::invalid_argument("ArenaWriter: duplicate section '" + name +
                                  "'");
    }
  }
  while (bytes_.size() % kArenaAlign != 0) bytes_.push_back(0);
  ArenaDirEntry e{};
  std::copy(name.begin(), name.end(), e.name);
  e.offset = bytes_.size();
  e.count = count;
  e.elem_size = static_cast<std::uint32_t>(elem_size);
  const std::size_t payload = count * elem_size;
  e.crc = crc32(data, payload);
  if (payload != 0) bytes_.insert(bytes_.end(), data, data + payload);
  dir_.push_back(e);
}

std::vector<std::uint8_t> ArenaWriter::finalize(const std::string& scheme,
                                                std::int64_t node_count,
                                                std::int64_t edge_count) {
  if (scheme.empty() || scheme.size() > kArenaSchemeNameMax) {
    throw std::invalid_argument("ArenaWriter: bad scheme name '" + scheme +
                                "'");
  }
  while (bytes_.size() % kArenaAlign != 0) bytes_.push_back(0);
  const std::uint64_t dir_offset = bytes_.size();
  for (const ArenaDirEntry& e : dir_) {
    const auto* p = reinterpret_cast<const std::uint8_t*>(&e);
    bytes_.insert(bytes_.end(), p, p + sizeof e);
  }

  ArenaFileHeader h{};
  std::copy(scheme.begin(), scheme.end(), h.scheme);
  h.layout_tag = arena_layout_tag();
  h.node_count = static_cast<std::uint32_t>(node_count);
  h.edge_count = static_cast<std::uint64_t>(edge_count);
  h.dir_offset = dir_offset;
  h.dir_count = static_cast<std::uint32_t>(dir_.size());
  h.dir_crc = crc32(bytes_.data() + dir_offset,
                    dir_.size() * sizeof(ArenaDirEntry));
  h.header_crc = crc32(reinterpret_cast<const std::uint8_t*>(&h), sizeof h);

  std::copy(snapshot_magic(), snapshot_magic() + kArenaMagicSize,
            bytes_.begin());
  // Version u32 + zero pad u32, little-endian, right after the magic.
  for (std::size_t i = 0; i < 4; ++i) {
    bytes_[kArenaMagicSize + i] =
        static_cast<std::uint8_t>(kArenaFormatVersion >> (8 * i));
    bytes_[kArenaMagicSize + 4 + i] = 0;
  }
  const auto* hp = reinterpret_cast<const std::uint8_t*>(&h);
  std::copy(hp, hp + sizeof h,
            bytes_.begin() + static_cast<std::ptrdiff_t>(kArenaMagicSize + 8));
  return std::move(bytes_);
}

// ------------------------------------------------------------------- view --

ArenaView::ArenaView(std::shared_ptr<const ArenaStorage> storage)
    : storage_(std::move(storage)) {
  if (storage_ == nullptr) {
    throw std::invalid_argument("ArenaView: null storage");
  }
  const std::uint8_t* base = storage_->data();
  const std::size_t size = storage_->size();
  if (size < kArenaSectionStart) {
    throw SnapshotTruncatedError("arena: region shorter than the v2 prologue");
  }
  if (!std::equal(snapshot_magic(), snapshot_magic() + kArenaMagicSize, base)) {
    throw SnapshotFormatError("arena: bad magic (not a snapshot)");
  }
  SnapshotReader prologue(base + kArenaMagicSize, 8);
  const std::uint32_t version = prologue.u32();
  if (version != kArenaFormatVersion) {
    throw SnapshotVersionError("arena: version " + std::to_string(version) +
                               ", this reader maps only version " +
                               std::to_string(kArenaFormatVersion));
  }
  SnapshotReader hr(base + kArenaMagicSize + 8, sizeof(ArenaFileHeader));
  hr.read_exact(&header_, sizeof header_);

  ArenaFileHeader crc_check = header_;
  crc_check.header_crc = 0;
  const std::uint32_t expect_crc =
      crc32(reinterpret_cast<const std::uint8_t*>(&crc_check),
            sizeof crc_check);
  if (expect_crc != header_.header_crc) {
    throw SnapshotChecksumError("arena: header CRC mismatch");
  }
  if (header_.layout_tag != arena_layout_tag()) {
    throw SnapshotArenaError(
        "arena: layout tag mismatch (written on an incompatible host ABI)");
  }

  const std::uint64_t dir_bytes =
      static_cast<std::uint64_t>(header_.dir_count) * sizeof(ArenaDirEntry);
  if (header_.dir_offset < kArenaSectionStart ||
      header_.dir_offset % kArenaAlign != 0 ||
      header_.dir_offset > size || dir_bytes > size - header_.dir_offset ||
      header_.dir_offset + dir_bytes != size) {
    throw SnapshotArenaError(
        "arena: directory does not span the region tail (offset " +
        std::to_string(header_.dir_offset) + ", " +
        std::to_string(header_.dir_count) + " entries, region " +
        std::to_string(size) + " bytes)");
  }
  if (crc32(base + header_.dir_offset,
            static_cast<std::size_t>(dir_bytes)) != header_.dir_crc) {
    throw SnapshotChecksumError("arena: directory CRC mismatch");
  }

  entries_.resize(header_.dir_count);
  SnapshotReader dr(base + header_.dir_offset,
                    static_cast<std::size_t>(dir_bytes));
  for (ArenaDirEntry& e : entries_) {
    dr.read_exact(&e, sizeof e);
    const std::string name = e.name_str();
    if (name.empty() || name.size() > kArenaSectionNameMax ||
        e.name[sizeof e.name - 1] != '\0') {
      throw SnapshotArenaError("arena: malformed section name in directory");
    }
    if (e.elem_size == 0) {
      throw SnapshotArenaError("arena: section '" + name +
                               "' has elem_size 0");
    }
    if (e.offset % kArenaAlign != 0) {
      throw SnapshotArenaError("arena: section '" + name +
                               "' offset " + std::to_string(e.offset) +
                               " is not " + std::to_string(kArenaAlign) +
                               "-byte aligned");
    }
    if (e.offset < kArenaSectionStart || e.offset > header_.dir_offset ||
        e.byte_size() > header_.dir_offset - e.offset) {
      throw SnapshotArenaError("arena: section '" + name +
                               "' extends past the region end");
    }
  }
  // Sections must not overlap (offsets need not be sorted in the directory,
  // though the writer emits them that way).  Empty sections own no bytes, so
  // they take no part: one shares its offset with the next non-empty
  // section, and an offset-only sort could order the two either way.
  std::vector<std::size_t> order;
  order.reserve(entries_.size());
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].byte_size() != 0) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return entries_[a].offset < entries_[b].offset;
  });
  for (std::size_t i = 1; i < order.size(); ++i) {
    const ArenaDirEntry& prev = entries_[order[i - 1]];
    const ArenaDirEntry& cur = entries_[order[i]];
    if (prev.offset + prev.byte_size() > cur.offset) {
      throw SnapshotArenaError("arena: sections '" + prev.name_str() +
                               "' and '" + cur.name_str() + "' overlap");
    }
  }
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    for (std::size_t j = i + 1; j < entries_.size(); ++j) {
      if (entries_[i].name_str() == entries_[j].name_str()) {
        throw SnapshotArenaError("arena: duplicate section '" +
                                 entries_[i].name_str() + "'");
      }
    }
  }
}

bool ArenaView::has(const std::string& name) const {
  for (const ArenaDirEntry& e : entries_) {
    if (e.name_str() == name) return true;
  }
  return false;
}

const ArenaDirEntry& ArenaView::entry(const std::string& name) const {
  for (const ArenaDirEntry& e : entries_) {
    if (e.name_str() == name) return e;
  }
  throw SnapshotArenaError("arena: missing section '" + name + "'");
}

SnapshotReader ArenaView::reader(const std::string& name) const {
  const ArenaDirEntry& e = entry(name);
  if (e.elem_size != 1) {
    throw SnapshotArenaError("arena: section '" + name +
                             "' is not a byte blob");
  }
  return SnapshotReader(storage_->data() + e.offset,
                        static_cast<std::size_t>(e.count));
}

void ArenaView::verify_section_crcs() const {
  for (const ArenaDirEntry& e : entries_) {
    const std::uint32_t actual =
        crc32(storage_->data() + e.offset,
              static_cast<std::size_t>(e.byte_size()));
    if (actual != e.crc) {
      throw SnapshotChecksumError("arena: section '" + e.name_str() +
                                  "' CRC mismatch");
    }
  }
}

}  // namespace rtr
