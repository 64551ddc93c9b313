// Differential conformance suite for binary scheme snapshots: for every
// registered scheme, save -> load must (a) re-save byte-identically and
// (b) answer roundtrip queries exactly like the freshly built scheme, on
// the owned and the mapped load path alike; files of the retired version-1
// format are rejected, never half-read; and the bytes a scheme persists stay
// within a fixed multiple of the table state it accounts for.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "graph/generators.h"
#include "io/snapshot.h"
#include "net/scheme.h"
#include "test_support.h"

namespace rtr {
namespace {

using ::rtr::testing::Instance;
using ::rtr::testing::shared_instance;

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

std::string temp_path(const std::string& tag) {
  return ::testing::TempDir() + "rtr_snapshot_" + tag + ".rtrsnap";
}

/// A file in the retired version-1 layout as far as any reader can tell:
/// the RTRSNAP magic, format version 1, then a streamed payload.
void write_v1_file(const std::string& path) {
  std::vector<std::uint8_t> bytes(snapshot_magic(),
                                  snapshot_magic() + kSnapshotMagicSize);
  const std::uint8_t version_and_payload[] = {1, 0, 0, 0, 8, 0, 0, 0, 0, 0,
                                              0, 0, 's', 't', 'r', 'e', 't',
                                              'c', 'h', '6', 32, 0, 0, 0};
  bytes.insert(bytes.end(), std::begin(version_and_payload),
               std::end(version_and_payload));
  bytes.resize(256, 0);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Route-for-route and stat-for-stat equality with the built handle.
void expect_answers_like(const SchemeHandle& built, const SchemeHandle& h,
                         const std::string& what) {
  EXPECT_EQ(h.names().names(), built.names().names()) << what;
  EXPECT_EQ(h.table_stats().max_bits(), built.table_stats().max_bits())
      << what;
  EXPECT_DOUBLE_EQ(h.table_stats().mean_bits(),
                   built.table_stats().mean_bits())
      << what;
  Rng rng(99);
  const NodeId n = built.graph().node_count();
  for (int i = 0; i < 300; ++i) {
    auto s = static_cast<NodeId>(rng.index(n));
    auto t = static_cast<NodeId>(rng.index(n));
    if (s == t) t = static_cast<NodeId>((t + 1) % n);
    const RouteResult a = built.roundtrip(s, t);
    const RouteResult b = h.roundtrip(s, t);
    ASSERT_EQ(a.ok(), b.ok()) << what << " " << s << "->" << t;
    ASSERT_EQ(a.out_length, b.out_length) << what << " " << s << "->" << t;
    ASSERT_EQ(a.back_length, b.back_length) << what << " " << s << "->" << t;
    ASSERT_EQ(a.out_hops, b.out_hops) << what << " " << s << "->" << t;
    ASSERT_EQ(a.back_hops, b.back_hops) << what << " " << s << "->" << t;
    ASSERT_EQ(a.max_header_bits, b.max_header_bits)
        << what << " " << s << "->" << t;
  }
}

class SnapshotRoundtripTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SnapshotRoundtripTest, ResaveIsByteIdenticalAndAnswersMatch) {
  const std::string scheme_name = GetParam();
  const auto inst = shared_instance(Family::kRandom, 64, 4, 2024);
  const BuildContext ctx = inst->context(7);
  SchemeHandle built(ctx.graph, ctx.names,
                     SchemeRegistry::global().build(scheme_name, ctx));

  const std::string path_a = temp_path(scheme_name + "_a");
  const std::string path_b = temp_path(scheme_name + "_b");
  save_snapshot(path_a, scheme_name, built);

  // Load and re-save: the bytes must not drift (canonical encoding -- all
  // associative state is serialized in sorted order).
  SchemeHandle loaded = load_snapshot(path_a, scheme_name);
  save_snapshot(path_b, scheme_name, loaded);
  EXPECT_EQ(read_file(path_a), read_file(path_b))
      << scheme_name << ": save -> load -> save changed the bytes";

  // The loaded handle serves the identical graph/naming.
  ASSERT_EQ(loaded.graph().node_count(), built.graph().node_count());
  EXPECT_EQ(loaded.names().names(), built.names().names());
  EXPECT_EQ(loaded.name(), built.name());

  // Identical table accounting (the stats are recomputed from the loaded
  // tables, so equality means the tables themselves survived).
  EXPECT_EQ(loaded.table_stats().max_bits(), built.table_stats().max_bits());
  EXPECT_DOUBLE_EQ(loaded.table_stats().mean_bits(),
                   built.table_stats().mean_bits());

  // Differential query check on 500 sampled pairs: loaded vs freshly built.
  Rng rng(99);
  const NodeId n = built.graph().node_count();
  for (int i = 0; i < 500; ++i) {
    auto s = static_cast<NodeId>(rng.index(n));
    auto t = static_cast<NodeId>(rng.index(n));
    if (s == t) t = static_cast<NodeId>((t + 1) % n);
    RouteResult a = built.roundtrip(s, t);
    RouteResult b = loaded.roundtrip(s, t);
    ASSERT_TRUE(a.ok()) << scheme_name << " built failed " << s << "->" << t;
    ASSERT_TRUE(b.ok()) << scheme_name << " loaded failed " << s << "->" << t;
    ASSERT_EQ(a.out_length, b.out_length) << scheme_name << " " << s << "->" << t;
    ASSERT_EQ(a.back_length, b.back_length) << scheme_name << " " << s << "->" << t;
    ASSERT_EQ(a.out_hops, b.out_hops) << scheme_name << " " << s << "->" << t;
    ASSERT_EQ(a.back_hops, b.back_hops) << scheme_name << " " << s << "->" << t;
    ASSERT_EQ(a.max_header_bits, b.max_header_bits)
        << scheme_name << " " << s << "->" << t;
  }

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST_P(SnapshotRoundtripTest, V1ToV2RepackAndMappedLoadAnswerIdentically) {
  const std::string scheme_name = GetParam();
  const auto inst = shared_instance(Family::kRandom, 64, 4, 2024);
  const BuildContext ctx = inst->context(7);
  SchemeHandle built(ctx.graph, ctx.names,
                     SchemeRegistry::global().build(scheme_name, ctx));

  // A version-1 cache file is a miss: build_or_load rebuilds and repacks
  // the cache path as a version-2 arena ...
  const std::string cache = temp_path(scheme_name + "_v1cache");
  const std::string direct = temp_path(scheme_name + "_direct");
  write_v1_file(cache);
  int ctx_builds = 0;
  (void)SchemeRegistry::global().build_or_load(
      scheme_name,
      [&] {
        ++ctx_builds;
        return inst->context(7);  // a fresh scheme rng, as `built` had
      },
      cache, SchemeRegistry::SnapshotLoadMode::kMapped);
  EXPECT_EQ(ctx_builds, 1) << scheme_name << ": a v1 file must be rebuilt";

  // ... whose bytes equal a direct save of the built scheme ...
  save_snapshot(direct, scheme_name, built);
  EXPECT_EQ(read_file(cache), read_file(direct))
      << scheme_name << ": the rebuilt cache drifted from a direct save";

  // ... and whose owned and zero-copy mapped loads answer route-for-route
  // and stat-for-stat like the built scheme.
  expect_answers_like(built, load_snapshot(cache, scheme_name),
                      scheme_name + " owned");
  expect_answers_like(built, map_snapshot(cache, scheme_name),
                      scheme_name + " mapped");

  std::remove(cache.c_str());
  std::remove(direct.c_str());
}

/// The arena image laid out in memory from a file's sections alone: the
/// prologue, each payload 8-aligned and zero-padded in directory order, the
/// directory, and the header with every offset and CRC recomputed.  This is
/// the layout the writer built in memory before it streamed to the file.
std::vector<std::uint8_t> canonical_image(const ArenaView& file) {
  std::vector<std::uint8_t> image(kArenaSectionStart, 0);
  const auto pad = [&image] {
    while (image.size() % kArenaAlign != 0) image.push_back(0);
  };
  std::vector<ArenaDirEntry> dir;
  for (const ArenaDirEntry& src : file.entries()) {
    pad();
    const std::uint8_t* payload = file.storage()->data() + src.offset;
    const auto size = static_cast<std::size_t>(src.byte_size());
    ArenaDirEntry e{};
    std::copy(std::begin(src.name), std::end(src.name), e.name);
    e.offset = image.size();
    e.count = src.count;
    e.elem_size = src.elem_size;
    e.crc = crc32(payload, size);
    image.insert(image.end(), payload, payload + size);
    dir.push_back(e);
  }
  pad();
  ArenaFileHeader h{};
  const std::string scheme = file.scheme();
  std::copy(scheme.begin(), scheme.end(), h.scheme);
  h.layout_tag = arena_layout_tag();
  h.node_count = file.header().node_count;
  h.edge_count = file.header().edge_count;
  h.dir_offset = image.size();
  h.dir_count = static_cast<std::uint32_t>(dir.size());
  const auto* d = reinterpret_cast<const std::uint8_t*>(dir.data());
  h.dir_crc = crc32(d, dir.size() * sizeof(ArenaDirEntry));
  h.header_crc = crc32(reinterpret_cast<const std::uint8_t*>(&h), sizeof h);
  image.insert(image.end(), d, d + dir.size() * sizeof(ArenaDirEntry));
  std::copy(snapshot_magic(), snapshot_magic() + kArenaMagicSize,
            image.begin());
  image[kArenaMagicSize] = static_cast<std::uint8_t>(kArenaFormatVersion);
  const auto* hp = reinterpret_cast<const std::uint8_t*>(&h);
  std::copy(hp, hp + sizeof h, image.begin() + kArenaMagicSize + 8);
  return image;
}

// save_snapshot streams each section to the file as the hooks add it and
// writes the header last; the file must be exactly the canonical image.
TEST_P(SnapshotRoundtripTest, StreamedFileEqualsTheCanonicalImage) {
  const std::string scheme_name = GetParam();
  const auto inst = shared_instance(Family::kRandom, 64, 4, 2024);
  const BuildContext ctx = inst->context(7);
  const SchemeHandle built(ctx.graph, ctx.names,
                           SchemeRegistry::global().build(scheme_name, ctx));
  const std::string path = temp_path(scheme_name + "_streamed");
  save_snapshot(path, scheme_name, built);
  const std::vector<std::uint8_t> bytes = read_file(path);
  const ArenaView view(make_owned_arena(bytes));
  EXPECT_EQ(view.scheme(), scheme_name);
  EXPECT_EQ(view.header().node_count, static_cast<std::uint32_t>(inst->n()));
  EXPECT_EQ(view.header().edge_count,
            static_cast<std::uint64_t>(inst->graph.edge_count()));
  EXPECT_EQ(bytes, canonical_image(view)) << scheme_name;
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SnapshotRoundtripTest,
                         ::testing::ValuesIn(SchemeRegistry::global().names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(SnapshotInspect, ReportsHeaderAndSections) {
  const auto inst = shared_instance(Family::kRandom, 32, 3, 11);
  const BuildContext ctx = inst->context(3);
  SchemeHandle built(ctx.graph, ctx.names,
                     SchemeRegistry::global().build("rtz3", ctx));
  const std::string path = temp_path("inspect");
  save_snapshot(path, "rtz3", built);

  SnapshotInfo info = inspect_snapshot(path);
  EXPECT_EQ(info.version, kSnapshotVersion);
  EXPECT_EQ(info.scheme, "rtz3");
  EXPECT_EQ(info.node_count, inst->n());
  EXPECT_EQ(info.edge_count, inst->graph.edge_count());
  // v2 arena sections: the graph CSR arrays, the name permutation, and at
  // least one scheme-owned section.
  auto has_section = [&](const std::string& name) {
    for (const auto& s : info.sections) {
      if (s.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_section("graph/offset"));
  EXPECT_TRUE(has_section("graph/edges"));
  EXPECT_TRUE(has_section("names/name_of"));
  bool has_scheme = false;
  for (const auto& s : info.sections) {
    if (s.name.rfind("scheme/", 0) == 0) has_scheme = true;
  }
  EXPECT_TRUE(has_scheme);
  std::uint64_t section_bytes = 0;
  for (const auto& s : info.sections) section_bytes += s.bytes;
  EXPECT_LT(section_bytes, info.file_bytes);
  std::remove(path.c_str());
}

/// Whether any write-then-rename scratch file of `path` exists.
bool scratch_files_left(const std::string& path) {
  namespace fs = std::filesystem;
  const fs::path p(path);
  if (!fs::is_directory(p.parent_path())) return false;
  const std::string scratch = p.filename().string() + ".tmp.";
  for (const auto& entry : fs::directory_iterator(p.parent_path())) {
    if (entry.path().filename().string().rfind(scratch, 0) == 0) return true;
  }
  return false;
}

TEST(SnapshotStream, WriterOverAFullDeviceThrowsWithTheErrnoText) {
  const int fd = ::open("/dev/full", O_WRONLY | O_CLOEXEC);
  if (fd < 0) GTEST_SKIP() << "no /dev/full on this host";
  const std::vector<std::int64_t> x = {1, 2, 3};
  try {
    ArenaWriter w(fd, "/dev/full");
    w.add("a/x", x);
    w.finish("test", 0, 0);
    ADD_FAILURE() << "writing to /dev/full succeeded";
  } catch (const SnapshotIoError& e) {
    EXPECT_NE(std::string(e.what()).find(std::strerror(ENOSPC)),
              std::string::npos)
        << e.what();
  }
  ::close(fd);
}

TEST(SnapshotStream, SaveIntoAMissingDirectoryThrowsAndLeavesNothing) {
  const auto inst = shared_instance(Family::kRandom, 32, 3, 11);
  const BuildContext ctx = inst->context(3);
  const SchemeHandle built(ctx.graph, ctx.names,
                           SchemeRegistry::global().build("rtz3", ctx));
  const std::string path =
      ::testing::TempDir() + "rtr_no_such_dir/snap.rtrsnap";
  std::filesystem::remove_all(::testing::TempDir() + "rtr_no_such_dir");
  EXPECT_THROW(save_snapshot(path, "rtz3", built), SnapshotIoError);
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_FALSE(scratch_files_left(path));
}

// A save that fails part way (here the file-size limit stops it) unlinks
// its scratch file and leaves the previous file untouched.
TEST(SnapshotStream, SaveThatFailsMidStreamLeavesNoScratchFile) {
  const auto inst = shared_instance(Family::kRandom, 64, 4, 2024);
  const BuildContext ctx = inst->context(7);
  const SchemeHandle built(ctx.graph, ctx.names,
                           SchemeRegistry::global().build("rtz3", ctx));
  const std::string path = temp_path("midstream");
  save_snapshot(path, "rtz3", built);
  const std::vector<std::uint8_t> before = read_file(path);
  {
    const testing::FileSizeLimit limit(4096);
    try {
      save_snapshot(path, "rtz3", built);
      ADD_FAILURE() << "a save past the file-size limit succeeded";
    } catch (const SnapshotIoError& e) {
      EXPECT_NE(std::string(e.what()).find(std::strerror(EFBIG)),
                std::string::npos)
          << e.what();
    }
  }
  EXPECT_EQ(read_file(path), before);
  EXPECT_FALSE(scratch_files_left(path));
  std::remove(path.c_str());
}

TEST(BuildOrLoad, CacheMissBuildsAndSavesCacheHitSkipsConstruction) {
  const auto inst = shared_instance(Family::kRandom, 40, 4, 5);
  const std::string path = temp_path("build_or_load");
  std::remove(path.c_str());

  int ctx_builds = 0;
  auto make_ctx = [&]() {
    ++ctx_builds;
    return inst->context(13);
  };

  // Miss: builds, saves, returns the built handle.
  SchemeHandle first =
      SchemeRegistry::global().build_or_load("stretch6", make_ctx, path);
  EXPECT_EQ(ctx_builds, 1);
  EXPECT_EQ(inspect_snapshot(path).scheme, "stretch6");

  // Hit: construction is skipped entirely -- make_ctx is never called.
  SchemeHandle second =
      SchemeRegistry::global().build_or_load("stretch6", make_ctx, path);
  EXPECT_EQ(ctx_builds, 1) << "cache hit must not rebuild the context";

  Rng rng(21);
  for (int i = 0; i < 100; ++i) {
    auto s = static_cast<NodeId>(rng.index(inst->n()));
    auto t = static_cast<NodeId>(rng.index(inst->n()));
    if (s == t) continue;
    RouteResult a = first.roundtrip(s, t);
    RouteResult b = second.roundtrip(s, t);
    ASSERT_EQ(a.ok(), b.ok());
    ASSERT_EQ(a.roundtrip_length(), b.roundtrip_length());
  }
  std::remove(path.c_str());
}

TEST(BuildOrLoad, MappedModeHitsV2CachesAndFallsBackForV1) {
  const auto inst = shared_instance(Family::kRandom, 40, 4, 5);
  const std::string path = temp_path("mapped_build_or_load");
  std::remove(path.c_str());
  constexpr auto kMapped = SchemeRegistry::SnapshotLoadMode::kMapped;

  int ctx_builds = 0;
  auto make_ctx = [&]() {
    ++ctx_builds;
    return inst->context(13);
  };

  // Miss: builds and saves v2, exactly like owned mode.
  SchemeHandle first = SchemeRegistry::global().build_or_load(
      "stretch6", make_ctx, path, kMapped);
  EXPECT_EQ(ctx_builds, 1);

  // Hit: the v2 cache serves zero-copy; construction is skipped.
  SchemeHandle second = SchemeRegistry::global().build_or_load(
      "stretch6", make_ctx, path, kMapped);
  EXPECT_EQ(ctx_builds, 1) << "mapped cache hit must not rebuild";
  Rng rng(21);
  for (int i = 0; i < 100; ++i) {
    auto s = static_cast<NodeId>(rng.index(inst->n()));
    auto t = static_cast<NodeId>(rng.index(inst->n()));
    if (s == t) continue;
    const RouteResult a = first.roundtrip(s, t);
    const RouteResult b = second.roundtrip(s, t);
    ASSERT_EQ(a.ok(), b.ok());
    ASSERT_EQ(a.roundtrip_length(), b.roundtrip_length());
  }

  // A v1 cache file is neither mapped nor decoded: mapped mode falls back
  // all the way to a rebuild, which leaves a v2 file the next start maps.
  write_v1_file(path);
  SchemeHandle third = SchemeRegistry::global().build_or_load(
      "stretch6", make_ctx, path, kMapped);
  EXPECT_EQ(ctx_builds, 2) << "a v1 cache file must be rebuilt";
  EXPECT_EQ(third.graph().node_count(), inst->n());
  EXPECT_EQ(inspect_snapshot(path).version, kSnapshotVersion);
  (void)SchemeRegistry::global().build_or_load("stretch6", make_ctx, path,
                                               kMapped);
  EXPECT_EQ(ctx_builds, 2) << "the rewritten cache must serve the next start";
  std::remove(path.c_str());
}

TEST(BuildOrLoad, MismatchedCachedSchemeIsRebuiltAndOverwritten) {
  const auto inst = shared_instance(Family::kRandom, 40, 4, 5);
  const std::string path = temp_path("wrong_scheme_cache");
  std::remove(path.c_str());

  // Seed the cache file with a *different* scheme.
  (void)SchemeRegistry::global().build_or_load(
      "rtz3", [&] { return inst->context(13); }, path);
  ASSERT_EQ(inspect_snapshot(path).scheme, "rtz3");

  // Asking for fulltable at the same path must rebuild, not serve rtz3.
  SchemeHandle handle = SchemeRegistry::global().build_or_load(
      "fulltable", [&] { return inst->context(13); }, path);
  EXPECT_EQ(handle.name(), "full-table(stretch1)");
  EXPECT_EQ(inspect_snapshot(path).scheme, "fulltable");
  std::remove(path.c_str());
}

TEST(SnapshotVersion, V1FilesAreRejectedNotHalfRead) {
  const std::string path = temp_path("v1_rejected");
  write_v1_file(path);
  EXPECT_THROW((void)load_snapshot(path), SnapshotVersionError);
  EXPECT_THROW((void)map_snapshot(path), SnapshotVersionError);
  EXPECT_THROW((void)inspect_snapshot(path), SnapshotVersionError);

  // build_or_load treats the file as a miss: it rebuilds, and the file it
  // leaves behind is a version-2 snapshot that maps.
  const auto inst = shared_instance(Family::kRandom, 40, 4, 5);
  int ctx_builds = 0;
  const SchemeHandle built = SchemeRegistry::global().build_or_load(
      "stretch6",
      [&] {
        ++ctx_builds;
        return inst->context(13);
      },
      path);
  EXPECT_EQ(ctx_builds, 1);
  const SchemeHandle mapped = map_snapshot(path, "stretch6");
  EXPECT_EQ(mapped.graph().node_count(), inst->n());
  expect_answers_like(built, mapped, "stretch6 rebuilt over v1");
  std::remove(path.c_str());
}

// The paper measures schemes by per-node table state (so do Krioukov et
// al.), so the bytes a snapshot persists must track the bytes table_stats
// accounts.  Scheme-owned bytes per node (the file minus the graph/* and
// names/* sections) may be at most kMaxSchemeBytesMultiple times the
// accounted table bytes per node.  The bound is the larger of the rtz3 and
// stretch6 multiples on this instance measured before the exstretch and
// polystretch tables became native sections: rtz3 3.9645 (stretch6 1.0791),
// rounded up.  At that time exstretch stored 19.4x and polystretch 65.8x.
constexpr double kMaxSchemeBytesMultiple = 3.97;

class SnapshotSizeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SnapshotSizeTest, SchemeBytesPerNodeStayNearAccountedTableBytes) {
  const std::string scheme_name = GetParam();
  // The instance `rtr_cli snapshot save <scheme> <path> random 256 1` saves.
  constexpr NodeId kN = 256;
  Rng rng(1);
  const BuildContext ctx =
      BuildContext::for_graph(make_family(Family::kRandom, kN, 4, rng), 1);
  const SchemeHandle built(ctx.graph, ctx.names,
                           SchemeRegistry::global().build(scheme_name, ctx));
  const std::string path = temp_path(scheme_name + "_size");
  save_snapshot(path, scheme_name, built);
  const SnapshotInfo info = inspect_snapshot(path);
  std::remove(path.c_str());

  std::uint64_t shared_bytes = 0;
  for (const SnapshotSectionInfo& s : info.sections) {
    if (s.name.rfind("graph/", 0) == 0 || s.name.rfind("names/", 0) == 0) {
      shared_bytes += s.bytes;
    }
  }
  const double scheme_bytes_per_node =
      static_cast<double>(info.file_bytes - shared_bytes) / kN;
  const double accounted_bytes_per_node = built.table_stats().mean_bits() / 8;
  ASSERT_GT(accounted_bytes_per_node, 0);
  EXPECT_LE(scheme_bytes_per_node / accounted_bytes_per_node,
            kMaxSchemeBytesMultiple)
      << scheme_name << ": " << scheme_bytes_per_node
      << " snapshot bytes/node vs " << accounted_bytes_per_node
      << " accounted table bytes/node";
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SnapshotSizeTest,
                         ::testing::ValuesIn(SchemeRegistry::global().names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace rtr
