#include "io/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <utility>

namespace rtr {

namespace {

/// Reads a whole file in one gulp; SnapshotIoError when it cannot be opened.
std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) {
    throw SnapshotIoError("snapshot: cannot open '" + path + "' for reading");
  }
  const std::streamoff size = in.tellg();
  if (size < 0) {
    throw SnapshotIoError("snapshot: cannot stat '" + path + "'");
  }
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!in) {
    throw SnapshotIoError("snapshot: read error on '" + path + "'");
  }
  return bytes;
}

/// Streams the complete file into `fd`: graph + names as flat sections, the
/// scheme's tables through its registry hooks, the header last.
void write_image(int fd, const std::string& what,
                 const std::string& scheme_name, const SchemeHandle& handle,
                 const SchemeRegistry& registry) {
  ArenaWriter w(fd, what);
  handle.graph().save_arena(w);
  handle.names().save_arena(w);
  registry.arena_saver(scheme_name)(handle.scheme(), w);
  w.finish(scheme_name, handle.graph().node_count(),
           handle.graph().edge_count());
}

/// Removes the scratch file and throws with the errno text of the failure.
[[noreturn]] void fail_save(const std::string& tmp, const std::string& what) {
  const int err = errno;
  ::unlink(tmp.c_str());
  throw SnapshotIoError("snapshot: " + what + ": " + std::strerror(err));
}

/// Constructs a ready-to-serve handle over a validated arena view.  Shared
/// by the owned (load_snapshot) and mapped (map_snapshot*) paths; `where`
/// names the source for error messages.
SchemeHandle handle_from_arena(const ArenaView& view, const std::string& where,
                               const std::string& expected_scheme,
                               const SchemeRegistry& registry) {
  const std::string scheme_name = view.scheme();
  if (!expected_scheme.empty() && scheme_name != expected_scheme) {
    throw SnapshotSchemeMismatchError("snapshot: '" + where +
                                      "' holds scheme '" + scheme_name +
                                      "', expected '" + expected_scheme + "'");
  }
  // A file naming a scheme this registry cannot load (unknown, or registered
  // without hooks -- e.g. written by a newer binary) must stay inside the
  // typed-error contract so cache users can treat it as a miss.
  const SchemeRegistry::ArenaLoader* loader = nullptr;
  try {
    loader = &registry.arena_loader(scheme_name);
  } catch (const std::exception& e) {
    throw SnapshotSchemeMismatchError(
        "snapshot: '" + where + "' holds scheme '" + scheme_name +
        "' which this registry cannot load: " + e.what());
  }

  auto graph = std::make_shared<const Digraph>(Digraph::from_arena(view));
  NameAssignment names = NameAssignment::from_arena(view);
  SnapshotLoadContext ctx;
  ctx.graph = graph;
  ctx.names = names;
  // Scheme hooks may throw a plain std::exception on CRC-valid but
  // mutually inconsistent sections; callers rely on catching SnapshotError
  // to treat a bad cache file as a miss.
  std::shared_ptr<const Scheme> scheme;
  try {
    scheme = (*loader)(view, ctx);
    if (scheme == nullptr) {
      throw SnapshotFormatError("snapshot: loader returned no scheme");
    }
    return SchemeHandle(std::move(graph), std::move(names), std::move(scheme));
  } catch (const SnapshotError&) {
    throw;
  } catch (const std::exception& e) {
    throw SnapshotFormatError(std::string("snapshot: bad scheme section: ") +
                              e.what());
  }
}

}  // namespace

void save_snapshot(const std::string& path, const std::string& scheme_name,
                   const SchemeHandle& handle, const SchemeRegistry& registry) {
  // Write-then-rename so a crashed or concurrent writer never leaves a
  // half-written file where a reader expects a snapshot.  The scratch name
  // is unique per process *and* per call, so concurrent savers targeting
  // the same cache path (several cold serving processes racing on a miss)
  // each publish a complete file; last rename wins.
  static std::atomic<std::uint64_t> save_counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(save_counter.fetch_add(1));
  const int fd =
      ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
  if (fd < 0) {
    throw SnapshotIoError("snapshot: cannot open '" + tmp +
                          "' for writing: " + std::strerror(errno));
  }
  try {
    write_image(fd, tmp, scheme_name, handle, registry);
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  if (::close(fd) != 0) fail_save(tmp, "cannot close '" + tmp + "'");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    fail_save(tmp, "cannot rename '" + tmp + "' to '" + path + "'");
  }
}

SchemeHandle load_snapshot(const std::string& path,
                           const std::string& expected_scheme,
                           const SchemeRegistry& registry) {
  // Same arena parse as the mapped path, plus full section CRC verification
  // (this path has already paid for reading every byte).
  ArenaView view(make_owned_arena(slurp(path)));
  view.verify_section_crcs();
  return handle_from_arena(view, path, expected_scheme, registry);
}

SchemeHandle map_snapshot(const std::string& path,
                          const std::string& expected_scheme,
                          const SchemeRegistry& registry) {
  ArenaView view(map_arena_file(path));
  return handle_from_arena(view, path, expected_scheme, registry);
}

SchemeHandle map_snapshot_shm(const std::string& shm_name,
                              const std::string& expected_scheme,
                              const SchemeRegistry& registry) {
  ArenaView view(map_arena_shm(shm_name));
  return handle_from_arena(view, "shm:" + shm_name, expected_scheme, registry);
}

std::string publish_snapshot_shm(const std::string& path,
                                 const std::string& shm_name) {
  // Validate end to end before publishing: a shared-memory object is read by
  // many processes on their fast (no-payload-CRC) path, so the publisher
  // carries the full verification.
  ArenaView view(map_arena_file(path));
  view.verify_section_crcs();
  publish_arena_shm(shm_name, view.storage()->data(), view.storage()->size());
  return view.scheme();
}

SnapshotInfo inspect_snapshot(const std::string& path) {
  ArenaView view(map_arena_file(path));
  view.verify_section_crcs();
  SnapshotInfo info;
  info.version = kSnapshotVersion;
  info.scheme = view.scheme();
  info.node_count = static_cast<NodeId>(view.header().node_count);
  info.edge_count = static_cast<std::int64_t>(view.header().edge_count);
  info.file_bytes = view.file_bytes();
  for (const ArenaDirEntry& e : view.entries()) {
    info.sections.push_back(
        SnapshotSectionInfo{e.name_str(), e.byte_size(), e.crc});
  }
  return info;
}

void warn_snapshot_cache_save_failed_once(const std::string& context,
                                          const SnapshotError& error) {
  static std::atomic<bool> warned{false};
  if (!warned.exchange(true)) {
    std::cerr << "warning: " << context
              << " could not save the snapshot cache (" << error.what()
              << "); serving the built scheme without a cache (further save "
                 "failures are silent)\n";
  }
}

}  // namespace rtr
