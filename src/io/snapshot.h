// Binary scheme snapshots: build once, serve forever.
//
// A snapshot file freezes one built SchemeHandle -- graph, TINN naming, and
// the scheme's routing tables -- so a serving process can skip the
// O(n^2)-ish preprocessing entirely and go straight to answering queries
// (the paper's preprocess-once/query-forever model made operational).
//
// There is one encoding: the relocatable arena of io/arena.h (format
// version 2).  The file IS the in-memory layout -- one pointer-free,
// 8-aligned region of typed flat arrays plus a directory -- written under
// three section prefixes: "graph/" (the CSR digraph), "names/" (the TINN
// permutation), and "scheme/" (whatever the scheme's registry hooks write:
// its per-node tables as flat sections, plus a small little-endian "meta"
// section for scalars and parameters).  Loading in place is open + mmap +
// header/CRC check + offset fixup into FlatVec views, O(ms) at any n and
// for every scheme; the same bytes also load into an owned buffer (with
// full section-CRC verification) and publish into POSIX shared memory for
// multi-process serving.
//
// Version policy: every file starts with the "RTRSNAP\0" magic and a u32
// format version.  This binary reads and writes version 2 only; any other
// version -- including the retired version-1 streamed encoding -- is
// rejected with SnapshotVersionError before a single table byte is read.
// SchemeRegistry::build_or_load treats such a file as a cache miss: it
// rebuilds the scheme and overwrites the file with a version-2 snapshot.
//
// Every failure mode is a typed exception (see io/snapshot_format.h): bad
// magic, wrong version, truncation, checksum mismatch, scheme mismatch,
// structurally invalid arena.  A load either returns a fully constructed
// SchemeHandle or throws -- there is no half-loaded state.
#ifndef RTR_IO_SNAPSHOT_H
#define RTR_IO_SNAPSHOT_H

#include <cstdint>
#include <string>
#include <vector>

#include "io/arena.h"
#include "io/snapshot_format.h"
#include "net/scheme.h"

namespace rtr {

/// The one format version this binary reads and writes.
inline constexpr std::uint32_t kSnapshotVersion = kArenaFormatVersion;
inline constexpr std::size_t kSnapshotMagicSize = kArenaMagicSize;

/// Everything `rtr_cli snapshot info` prints without loading the tables.
struct SnapshotSectionInfo {
  std::string name;
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;
};

struct SnapshotInfo {
  std::uint32_t version = 0;
  std::string scheme;  // registry name, e.g. "stretch6"
  NodeId node_count = 0;
  std::int64_t edge_count = 0;
  std::uint64_t file_bytes = 0;
  std::vector<SnapshotSectionInfo> sections;
};

/// Serializes a built handle under the registry name it was built as.  The
/// registry must have snapshot hooks for that name.  Writes to a temporary
/// sibling first and renames into place, so readers never observe a torn
/// file.  Throws SnapshotIoError on filesystem trouble.
void save_snapshot(const std::string& path, const std::string& scheme_name,
                   const SchemeHandle& handle,
                   const SchemeRegistry& registry = SchemeRegistry::global());

/// Loads a snapshot into a ready-to-serve handle over an owned copy of the
/// file (use map_snapshot for load-in-place).  When `expected_scheme` is
/// non-empty the file's scheme name must match it exactly
/// (SnapshotSchemeMismatchError otherwise).  All section CRCs are verified
/// before any scheme state is constructed.
[[nodiscard]] SchemeHandle load_snapshot(
    const std::string& path, const std::string& expected_scheme = "",
    const SchemeRegistry& registry = SchemeRegistry::global());

/// Zero-copy fast path: mmap(2)s a snapshot and serves straight off the
/// mapping (FlatVec views into the file; the handle keeps the mapping alive).
/// Verifies framing (magic, version, layout tag, header + directory CRCs,
/// section bounds) but NOT the per-section payload CRCs -- that is what
/// keeps it O(ms) at any n; run `rtr_cli snapshot map-info` or the auditor
/// for end-to-end checks.
[[nodiscard]] SchemeHandle map_snapshot(
    const std::string& path, const std::string& expected_scheme = "",
    const SchemeRegistry& registry = SchemeRegistry::global());

/// Attaches a snapshot published in a POSIX shared-memory object
/// (MAP_SHARED read-only): every serving process references one physical
/// copy.  Same verification contract as map_snapshot.
[[nodiscard]] SchemeHandle map_snapshot_shm(
    const std::string& shm_name, const std::string& expected_scheme = "",
    const SchemeRegistry& registry = SchemeRegistry::global());

/// Publishes a snapshot file into a POSIX shared-memory object after
/// fully validating it (framing + every section CRC).  Readers attach with
/// map_snapshot_shm.  Returns the snapshot's scheme name.
std::string publish_snapshot_shm(const std::string& path,
                                 const std::string& shm_name);

/// Validates framing and checksums and returns the header/section table
/// without constructing the scheme (cheap: one pass over the file).
[[nodiscard]] SnapshotInfo inspect_snapshot(const std::string& path);

/// Serving-path degradation notice: a cache save failed (full disk,
/// read-only directory) but the built scheme serves regardless.  Logs to
/// stderr once per process -- an epoch loop hitting this every rebuild must
/// neither spam the log nor stay silent about serving cold forever.
void warn_snapshot_cache_save_failed_once(const std::string& context,
                                          const SnapshotError& error);

}  // namespace rtr

#endif  // RTR_IO_SNAPSHOT_H
