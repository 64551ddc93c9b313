// Structural corruption of the v2 relocatable arena must surface as typed
// exceptions on the ZERO-COPY path: a mapped view trusts offsets and counts
// from the file, so every way those can lie -- misalignment, out-of-bounds,
// overlap, CRC-valid-but-inconsistent headers -- has to be rejected during
// framing validation, before any table is dereferenced.
//
// The tampering helpers re-stamp the directory and header CRCs after each
// mutation: these tests target the STRUCTURAL validators, and a checksum
// error would mask the check actually under test.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "io/arena.h"
#include "io/snapshot.h"
#include "net/scheme.h"
#include "test_support.h"

namespace rtr {
namespace {

using ::rtr::testing::shared_instance;

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<std::uint8_t>((std::istreambuf_iterator<char>(in)),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
  ASSERT_TRUE(out.good()) << path;
}

constexpr std::size_t kHeaderOffset = kArenaMagicSize + 8;

ArenaFileHeader header_of(const std::vector<std::uint8_t>& bytes) {
  ArenaFileHeader h;
  std::memcpy(&h, bytes.data() + kHeaderOffset, sizeof h);
  return h;
}

std::vector<ArenaDirEntry> dir_of(const std::vector<std::uint8_t>& bytes,
                                  const ArenaFileHeader& h) {
  std::vector<ArenaDirEntry> dir(h.dir_count);
  std::memcpy(dir.data(), bytes.data() + h.dir_offset,
              h.dir_count * sizeof(ArenaDirEntry));
  return dir;
}

/// Writes back a (possibly mutated) directory and re-stamps dir + header
/// CRCs, so only the mutation under test is observable to the loader.
void restamp(std::vector<std::uint8_t>& bytes, ArenaFileHeader h,
             const std::vector<ArenaDirEntry>& dir) {
  std::memcpy(bytes.data() + h.dir_offset, dir.data(),
              dir.size() * sizeof(ArenaDirEntry));
  h.dir_crc = crc32(bytes.data() + h.dir_offset,
                    dir.size() * sizeof(ArenaDirEntry));
  h.header_crc = 0;
  h.header_crc = crc32(reinterpret_cast<const std::uint8_t*>(&h), sizeof h);
  std::memcpy(bytes.data() + kHeaderOffset, &h, sizeof h);
}

class ArenaCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    inst_ = shared_instance(Family::kRandom, 32, 3, 7);
    path_ = ::testing::TempDir() + "rtr_arena_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".rtrsnap";
    const BuildContext ctx = inst_->context(9);
    SchemeHandle built(ctx.graph, ctx.names,
                       SchemeRegistry::global().build("stretch6", ctx));
    save_snapshot(path_, "stretch6", built);
    pristine_ = read_file(path_);
    header_ = header_of(pristine_);
    dir_ = dir_of(pristine_, header_);
    ASSERT_GE(dir_.size(), 3u);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// Index of a named section in the pristine directory.
  std::size_t index_of(const std::string& name) const {
    for (std::size_t i = 0; i < dir_.size(); ++i) {
      if (dir_[i].name_str() == name) return i;
    }
    ADD_FAILURE() << "section not found: " << name;
    return 0;
  }

  std::shared_ptr<const ::rtr::testing::Instance> inst_;
  std::string path_;
  std::vector<std::uint8_t> pristine_;
  ArenaFileHeader header_{};
  std::vector<ArenaDirEntry> dir_;
};

TEST_F(ArenaCorruptionTest, PristineFileMapsAndServes) {
  const SchemeHandle mapped = map_snapshot(path_, "stretch6");
  EXPECT_EQ(mapped.graph().node_count(), inst_->n());
  const RouteResult res = mapped.roundtrip(0, 5);
  EXPECT_TRUE(res.ok());
}

TEST_F(ArenaCorruptionTest, MisalignedSectionOffsetIsTyped) {
  // Nudging a section off the 8-byte grid would hand the views misaligned
  // element pointers -- UB the validator must refuse up front.
  auto bytes = pristine_;
  auto dir = dir_;
  dir[1].offset += 4;
  restamp(bytes, header_, dir);
  write_file(path_, bytes);
  EXPECT_THROW((void)map_snapshot(path_, "stretch6"), SnapshotArenaError);
  EXPECT_THROW((void)load_snapshot(path_, "stretch6"), SnapshotArenaError);
}

TEST_F(ArenaCorruptionTest, SectionOffsetPastRegionEndIsTyped) {
  auto bytes = pristine_;
  auto dir = dir_;
  // Aligned (so alignment is not what fires) but entirely past the mapping.
  dir[1].offset = (bytes.size() + kArenaAlign) & ~(kArenaAlign - 1);
  restamp(bytes, header_, dir);
  write_file(path_, bytes);
  EXPECT_THROW((void)map_snapshot(path_, "stretch6"), SnapshotArenaError);
}

TEST_F(ArenaCorruptionTest, SectionRunningOffTheEndIsTyped) {
  // In-bounds offset whose count*elem_size runs past EOF: the other way an
  // out-of-bounds read hides.
  auto bytes = pristine_;
  auto dir = dir_;
  dir[1].count = (bytes.size() / dir[1].elem_size) + 1;
  restamp(bytes, header_, dir);
  write_file(path_, bytes);
  EXPECT_THROW((void)map_snapshot(path_, "stretch6"), SnapshotArenaError);
}

TEST_F(ArenaCorruptionTest, OverlappingSectionsAreTyped) {
  // Two directory entries claiming the same bytes: individually in bounds
  // and aligned, so only the overlap scan can catch it.
  auto bytes = pristine_;
  auto dir = dir_;
  dir[1].offset = dir[0].offset;
  dir[1].count = dir[0].count;
  dir[1].elem_size = dir[0].elem_size;
  dir[1].crc = dir[0].crc;
  restamp(bytes, header_, dir);
  write_file(path_, bytes);
  EXPECT_THROW((void)map_snapshot(path_, "stretch6"), SnapshotArenaError);
}

TEST_F(ArenaCorruptionTest, CrcValidButCountMismatchedHeaderIsTyped) {
  // Shrink graph/offset by one element and re-stamp EVERY checksum,
  // including the section's own payload CRC: the file is now fully
  // CRC-consistent but internally inconsistent (the header's node count
  // implies n+1 offsets).  Only the cross-structure count check can refuse
  // it -- and must, on the mapped path, which skips payload CRCs entirely.
  auto bytes = pristine_;
  auto dir = dir_;
  const std::size_t g = index_of("graph/offset");
  dir[g].count -= 1;
  dir[g].crc = crc32(bytes.data() + dir[g].offset,
                     static_cast<std::size_t>(dir[g].count) * dir[g].elem_size);
  restamp(bytes, header_, dir);
  write_file(path_, bytes);
  EXPECT_THROW((void)map_snapshot(path_, "stretch6"), SnapshotArenaError);
  EXPECT_THROW((void)load_snapshot(path_, "stretch6"), SnapshotArenaError);
}

TEST_F(ArenaCorruptionTest, NonMonotoneGraphOffsetsAreTyped) {
  // Row 0 claims to end past every edge while the endpoints still match
  // the header: the mapped path skips payload CRCs, so only the row-offset
  // check stands between this file and out-of-bounds row spans.
  auto bytes = pristine_;
  const ArenaDirEntry& e = dir_[index_of("graph/offset")];
  const auto edges = static_cast<std::int64_t>(header_.edge_count);
  const std::int64_t past_the_end = edges + 1000;
  std::memcpy(bytes.data() + e.offset + sizeof(std::int64_t), &past_the_end,
              sizeof past_the_end);
  write_file(path_, bytes);
  EXPECT_THROW((void)map_snapshot(path_, "stretch6"), SnapshotArenaError);
}

TEST_F(ArenaCorruptionTest, PayloadBitFlipPassesMappedFramingButFailsOwned) {
  // The documented integrity split: a payload flip (CRCs NOT re-stamped)
  // is invisible to the mapped fast path's O(1) framing check but caught
  // by the owned load and by verify_section_crcs -- the publisher-grade
  // sweep shm distribution runs before exposing bytes to other processes.
  auto bytes = pristine_;
  bytes[dir_[1].offset] ^= 0x01;
  write_file(path_, bytes);
  EXPECT_NO_THROW((void)map_snapshot(path_, "stretch6"));
  EXPECT_THROW((void)load_snapshot(path_, "stretch6"), SnapshotChecksumError);
  const ArenaView view{map_arena_file(path_)};
  EXPECT_THROW(view.verify_section_crcs(), SnapshotChecksumError);
}

TEST_F(ArenaCorruptionTest, EveryArenaErrorIsASnapshotError) {
  // The cache-miss fallback in build_or_load catches SnapshotError; a typed
  // arena error escaping that net would take down serving instead of
  // triggering a rebuild.
  auto bytes = pristine_;
  auto dir = dir_;
  dir[1].offset += 4;
  restamp(bytes, header_, dir);
  write_file(path_, bytes);
  EXPECT_THROW((void)map_snapshot(path_, "stretch6"), SnapshotError);
  // And build_or_load (mapped mode) rebuilds over it rather than throwing.
  int ctx_builds = 0;
  const SchemeHandle rebuilt = SchemeRegistry::global().build_or_load(
      "stretch6",
      [&] {
        ++ctx_builds;
        return inst_->context(9);
      },
      path_, SchemeRegistry::SnapshotLoadMode::kMapped);
  EXPECT_EQ(ctx_builds, 1);
  EXPECT_EQ(rebuilt.graph().node_count(), inst_->n());
}

TEST_F(ArenaCorruptionTest, ShmPublishAttachServesOnePhysicalCopy) {
  // PID-suffixed: parallel ctest invocations must not share an object.
  const std::string shm_name = "rtr_test_shm_" + std::to_string(::getpid());
  try {
    const std::string scheme = publish_snapshot_shm(path_, shm_name);
    EXPECT_EQ(scheme, "stretch6");
  } catch (const SnapshotIoError&) {
    GTEST_SKIP() << "POSIX shm unavailable in this environment";
  }
  SchemeHandle attached = map_snapshot_shm(shm_name, "stretch6");
  SchemeHandle owned = load_snapshot(path_, "stretch6");
  ASSERT_EQ(attached.graph().node_count(), owned.graph().node_count());
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    auto s = static_cast<NodeId>(rng.index(inst_->n()));
    auto t = static_cast<NodeId>(rng.index(inst_->n()));
    if (s == t) continue;
    const RouteResult a = attached.roundtrip(s, t);
    const RouteResult b = owned.roundtrip(s, t);
    ASSERT_EQ(a.ok(), b.ok());
    ASSERT_EQ(a.roundtrip_length(), b.roundtrip_length());
    ASSERT_EQ(a.out_hops, b.out_hops);
    ASSERT_EQ(a.back_hops, b.back_hops);
  }
  unlink_arena_shm(shm_name);
  // A publish of a damaged file must refuse BEFORE exposing bytes: other
  // processes attach with payload CRCs unverified by design.
  auto bytes = pristine_;
  bytes[dir_[1].offset] ^= 0x01;
  write_file(path_, bytes);
  EXPECT_THROW((void)publish_snapshot_shm(path_, shm_name),
               SnapshotChecksumError);
}

// Empty sections own no bytes and share their offset with the section
// written after them; the overlap scan must not mistake that for overlap,
// wherever the empty section sits and however the directory orders a tie.
TEST(ArenaEmptySections, MapAtFirstMiddleAndLastPosition) {
  const std::vector<std::int64_t> x = {1, 2, 3};
  const std::vector<std::int32_t> y = {4, 5};
  const std::vector<std::int32_t> none;
  ArenaWriter w;
  w.add("a/empty_first", none);
  w.add("a/x", x);
  w.add("a/empty_mid", none);
  w.add("a/y", y);
  w.add("a/empty_last", none);
  std::vector<std::uint8_t> bytes = w.finalize("test", 0, 0);

  const auto check = [&](const std::vector<std::uint8_t>& image) {
    const ArenaView view(make_owned_arena(image));
    EXPECT_NO_THROW(view.verify_section_crcs());
    EXPECT_EQ(view.vec<std::int64_t>("a/x"), x);
    EXPECT_EQ(view.vec<std::int32_t>("a/y"), y);
    for (const char* name : {"a/empty_first", "a/empty_mid", "a/empty_last"}) {
      EXPECT_TRUE(view.vec<std::int32_t>(name).empty()) << name;
    }
  };
  ASSERT_NO_THROW(check(bytes));
  const ArenaFileHeader h = header_of(bytes);
  std::vector<ArenaDirEntry> dir = dir_of(bytes, h);
  ASSERT_EQ(dir[2].offset, dir[3].offset) << "empty_mid shares y's offset";
  ASSERT_EQ(dir[0].offset, dir[1].offset) << "empty_first shares x's offset";

  // The same file with every empty section listed after the non-empty one
  // it shares an offset with.
  std::swap(dir[0], dir[1]);
  std::swap(dir[2], dir[3]);
  restamp(bytes, h, dir);
  EXPECT_NO_THROW(check(bytes));

  // And mapped from disk, where the serving path reads it.
  const std::string path =
      ::testing::TempDir() + "rtr_arena_empty_sections.rtrsnap";
  write_file(path, bytes);
  EXPECT_NO_THROW((void)ArenaView(map_arena_file(path)));
  std::remove(path.c_str());
}

// The instance `rtr_cli snapshot save rtz3 x.rtrsnap ring 128 7` saves: no
// ball label there has a light hop, so the ball-hop section is empty and
// shares its offset with the membership offsets written next.
TEST(ArenaEmptySections, Rtz3RingSnapshotSavesMapsAndRoutes) {
  Rng rng(7);
  const BuildContext ctx =
      BuildContext::for_graph(make_family(Family::kRing, 128, 4, rng), 7);
  const SchemeHandle built(ctx.graph, ctx.names,
                           SchemeRegistry::global().build("rtz3", ctx));
  const std::string path = ::testing::TempDir() + "rtr_arena_rtz3_ring.rtrsnap";
  save_snapshot(path, "rtz3", built);
  const SchemeHandle mapped = map_snapshot(path, "rtz3");
  ASSERT_EQ(mapped.graph().node_count(), 128);
  for (NodeId s = 0; s < 128; s += 7) {
    for (NodeId t = 0; t < 128; t += 5) {
      const RouteResult a = built.roundtrip(s, t);
      const RouteResult b = mapped.roundtrip(s, t);
      ASSERT_TRUE(b.ok()) << s << "->" << t;
      EXPECT_EQ(a.roundtrip_length(), b.roundtrip_length()) << s << "->" << t;
    }
  }
  std::remove(path.c_str());
}

// The checked-in fixture that the CI hygiene gate also runs `rtr_cli
// snapshot map-info` over: a v2 arena written by a past revision must keep
// mapping and serving on every future one, or the on-disk format has
// silently broken compatibility.
TEST(CommittedFixture, V2ArenaStillMapsAndServes) {
  const std::string path =
      std::string(RTR_SOURCE_DIR) + "/tests/data/stretch6_n32_v2.rtrsnap";
  if (!std::ifstream(path).good()) {
    GTEST_SKIP() << "fixture not present at " << path;
  }
  const ArenaView view{map_arena_file(path)};
  EXPECT_NO_THROW(view.verify_section_crcs());
  const SchemeHandle mapped = map_snapshot(path, "stretch6");
  EXPECT_EQ(mapped.graph().node_count(), 32);
  Rng rng(5);
  int ok = 0;
  for (int i = 0; i < 50; ++i) {
    auto s = static_cast<NodeId>(rng.index(32));
    auto t = static_cast<NodeId>(rng.index(32));
    if (s == t) continue;
    if (mapped.roundtrip(s, t).ok()) ++ok;
  }
  EXPECT_GT(ok, 0);
}

}  // namespace
}  // namespace rtr
