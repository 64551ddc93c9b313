// Deep invariant auditor tests: every registered scheme passes a clean
// audit across graph families, and deliberately corrupted structures --
// unsorted dictionary, broken CSR row, dangling port resolution, cyclic
// tree parent, oversize ball, broken name bijection, damaged snapshot
// sections -- each fire their specific invariant.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "audit/audit.h"
#include "core/exstretch.h"
#include "core/polystretch.h"
#include "graph/dijkstra.h"
#include "io/arena.h"
#include "io/snapshot.h"
#include "net/scheme.h"
#include "rtz/rtz3_scheme.h"
#include "test_support.h"
#include "treeroute/tree_router.h"

namespace rtr {

/// Test-only backdoor into the audited structures' privates: corruption is
/// injected directly into a built artifact, so each test proves the auditor
/// catches exactly the damage class it claims to.
struct AuditTestPeer {
  // Frozen structures store FlatVecs; corruption is injected by materializing
  // the array, damaging it, and assigning the damaged copy back.
  static FlatVec<std::int64_t>& offsets(Digraph& g) { return g.offset_; }
  static FlatVec<Edge>& edges(Digraph& g) { return g.edges_; }
  static FlatVec<std::int32_t>& port_slots(Digraph& g) {
    return g.port_slot_;
  }
  static FlatVec<NodeName>& names(NameAssignment& a) { return a.name_of_; }
  static std::vector<NodeId>& parents(TreeRouter& t) { return t.parent_; }
  static BallSystem& balls(Rtz3Scheme& s) { return s.balls_; }
  static FlatVec<std::int64_t>& ball_off(Rtz3Scheme& s) { return s.ball_off_; }
  static FlatVec<NodeName>& ball_keys(Rtz3Scheme& s) { return s.ball_key_; }
  static FlatVec<std::int64_t>& nbr_off(ExStretchScheme& s) {
    return s.nbr_off_;
  }
  static FlatVec<NodeName>& nbr_keys(ExStretchScheme& s) { return s.nbr_key_; }
  static FlatVec<std::int64_t>& dict_off(ExStretchScheme& s) {
    return s.dict_off_;
  }
  static FlatVec<std::int32_t>& dict_keys(ExStretchScheme& s) {
    return s.dict_key_;
  }
  static FlatVec<std::int64_t>& dict_off(PolyStretchScheme& s) {
    return s.dict_off_;
  }
  static FlatVec<std::uint16_t>& dict_keys(PolyStretchScheme& s) {
    return s.dict_key_;
  }
};

namespace {

using testing::Instance;
using testing::make_instance;

const AuditEntry* find_entry(const AuditReport& report,
                             const std::string& component,
                             const std::string& invariant) {
  for (const AuditEntry& e : report.entries()) {
    if (e.component == component && e.invariant == invariant) return &e;
  }
  return nullptr;
}

/// First entry whose component starts with the given prefix (arena section
/// names are scheme-dependent, e.g. "snapshot/scheme/ball_key").
const AuditEntry* find_prefix_entry(const AuditReport& report,
                                    const std::string& component_prefix,
                                    const std::string& invariant) {
  for (const AuditEntry& e : report.entries()) {
    if (e.invariant == invariant &&
        e.component.rfind(component_prefix, 0) == 0) {
      return &e;
    }
  }
  return nullptr;
}

/// Expects exactly this invariant to have failed (others may fail too when
/// the damage cascades, but the named one must fire).
/// Swaps the first and last key of the first CSR row holding two or more,
/// so the row is no longer ascending; false when every row is shorter.
template <typename K>
bool unsort_one_row(const FlatVec<std::int64_t>& off, FlatVec<K>& keys) {
  auto damaged = keys.to_vector();
  for (std::size_t row = 0; row + 1 < off.size(); ++row) {
    const auto b = static_cast<std::size_t>(off[row]);
    const auto e = static_cast<std::size_t>(off[row + 1]);
    if (e - b >= 2) {
      std::swap(damaged[b], damaged[e - 1]);
      keys = std::move(damaged);
      return true;
    }
  }
  return false;
}

void expect_fired(const AuditReport& report, const std::string& component,
                  const std::string& invariant) {
  EXPECT_FALSE(report.ok()) << report.summary(true);
  const AuditEntry* e = find_entry(report, component, invariant);
  ASSERT_NE(e, nullptr) << "no entry " << component << " :: " << invariant
                        << "\n"
                        << report.summary(true);
  EXPECT_FALSE(e->ok) << component << " :: " << invariant
                      << " did not fire\n"
                      << report.summary(true);
}

// ---------------------------------------------------------------- clean ---

TEST(AuditClean, EveryRegisteredSchemePassesAcrossFamilies) {
  const auto& registry = SchemeRegistry::global();
  for (const Family family :
       {Family::kRandom, Family::kGrid, Family::kRing}) {
    const Instance inst = make_instance(family, 120, 4, 17);
    for (const std::string& scheme_name : registry.names()) {
      BuildContext ctx = inst.context(5);
      SchemeHandle handle(ctx.graph, ctx.names,
                          registry.build(scheme_name, ctx));
      AuditReport report;
      audit_handle(handle, report);
      EXPECT_TRUE(report.ok())
          << scheme_name << " x " << family_name(family) << ":\n"
          << report.summary(false);
    }
  }
}

TEST(AuditClean, ReportSerializesToJson) {
  const Instance inst = make_instance(Family::kRandom, 80, 4, 3);
  AuditReport report;
  inst.graph.audit(report);
  EXPECT_TRUE(report.ok());
  const std::string json = report.to_json_string();
  EXPECT_NE(json.find("\"schema\": \"rtr-audit/1\""), std::string::npos);
  EXPECT_NE(json.find("csr-row-monotone"), std::string::npos);
}

// ------------------------------------------------------------ corrupted ---

TEST(AuditCorruption, BrokenCsrRowFires) {
  Instance inst = make_instance(Family::kRandom, 100, 4, 11);
  auto& offsets = AuditTestPeer::offsets(inst.graph);
  ASSERT_GE(offsets.size(), 3u);
  auto damaged = offsets.to_vector();
  damaged[1] = damaged[2] + 1;  // row 1 now ends before it begins
  offsets = std::move(damaged);
  AuditReport report;
  inst.graph.audit(report);
  expect_fired(report, "graph", "csr-row-monotone");
}

TEST(AuditCorruption, DanglingEdgeHeadFires) {
  Instance inst = make_instance(Family::kRandom, 100, 4, 11);
  auto damaged = AuditTestPeer::edges(inst.graph).to_vector();
  damaged[0].to = inst.n() + 5;
  AuditTestPeer::edges(inst.graph) = std::move(damaged);
  AuditReport report;
  inst.graph.audit(report);
  expect_fired(report, "graph", "edges-in-range");
}

TEST(AuditCorruption, DanglingPortResolutionFires) {
  Instance inst = make_instance(Family::kRandom, 100, 4, 11);
  // Point one port-resolution slot at a different row slot: the key no
  // longer resolves to the edge carrying that port.
  auto& slots = AuditTestPeer::port_slots(inst.graph);
  ASSERT_GE(slots.size(), 2u);
  auto damaged = slots.to_vector();
  std::swap(damaged[0], damaged[1]);
  slots = std::move(damaged);
  AuditReport report;
  inst.graph.audit(report);
  expect_fired(report, "graph", "port-table-bijection");
}

TEST(AuditCorruption, BrokenNameBijectionFires) {
  Instance inst = make_instance(Family::kRandom, 100, 4, 11);
  auto& name_of = AuditTestPeer::names(inst.names);
  auto damaged = name_of.to_vector();
  std::swap(damaged[0], damaged[1]);  // id_of_ left stale
  name_of = std::move(damaged);
  AuditReport report;
  {
    auto scope = report.scope("names");
    inst.names.audit(report);
  }
  expect_fired(report, "names", "name-bijection");
}

TEST(AuditCorruption, UnsortedDictionaryFires) {
  const Instance inst = make_instance(Family::kRandom, 120, 4, 17);
  Rng rng(5);
  Rtz3Scheme scheme(inst.graph, *inst.metric, inst.names, rng);
  // Find a node whose own-ball key row has two keys and unsort that row
  // inside the flat key array.
  const auto& off = AuditTestPeer::ball_off(scheme);
  auto keys = AuditTestPeer::ball_keys(scheme).to_vector();
  bool corrupted = false;
  for (NodeId v = 0; v < inst.n() && !corrupted; ++v) {
    const auto b = static_cast<std::size_t>(off[static_cast<std::size_t>(v)]);
    const auto e =
        static_cast<std::size_t>(off[static_cast<std::size_t>(v) + 1]);
    if (e - b >= 2) {
      std::swap(keys[b], keys[e - 1]);
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted) << "no node with a 2+ entry ball dictionary";
  AuditTestPeer::ball_keys(scheme) = std::move(keys);
  AuditReport report;
  scheme.audit(report);
  expect_fired(report, "rtz3", "dicts-sorted-unique");
}

// exstretch's find_in_row and polystretch's next_hop binary-search their CSR
// rows, so a mapped file with valid CRCs but an unsorted row would misroute
// silently; the audit catches it.
TEST(AuditCorruption, UnsortedExStretchNeighborRowFires) {
  const Instance inst = make_instance(Family::kRandom, 120, 4, 17);
  Rng rng(5);
  ExStretchScheme scheme(inst.graph, *inst.metric, inst.names, rng);
  ASSERT_TRUE(unsort_one_row(AuditTestPeer::nbr_off(scheme),
                             AuditTestPeer::nbr_keys(scheme)));
  AuditReport report;
  scheme.audit(report);
  expect_fired(report, "exstretch", "rows-sorted-unique");
}

TEST(AuditCorruption, UnsortedExStretchDictionaryRowFires) {
  const Instance inst = make_instance(Family::kRandom, 120, 4, 17);
  Rng rng(5);
  ExStretchScheme scheme(inst.graph, *inst.metric, inst.names, rng);
  ASSERT_TRUE(unsort_one_row(AuditTestPeer::dict_off(scheme),
                             AuditTestPeer::dict_keys(scheme)));
  AuditReport report;
  scheme.audit(report);
  expect_fired(report, "exstretch", "rows-sorted-unique");
}

TEST(AuditCorruption, UnsortedPolyStretchDictionaryRowFires) {
  const Instance inst = make_instance(Family::kRandom, 120, 4, 17);
  PolyStretchScheme scheme(inst.graph, *inst.metric, inst.names);
  ASSERT_TRUE(unsort_one_row(AuditTestPeer::dict_off(scheme),
                             AuditTestPeer::dict_keys(scheme)));
  AuditReport report;
  scheme.audit(report);
  expect_fired(report, "polystretch", "rows-sorted-unique");
}

TEST(AuditCorruption, CyclicTreeParentFires) {
  const Instance inst = make_instance(Family::kRandom, 100, 4, 11);
  TreeRouter router(dijkstra_out_tree(inst.graph, 0));
  auto& parents = AuditTestPeer::parents(router);
  // A non-root member now points at itself: the root walk never terminates.
  const NodeId victim = router.members().back() != router.root()
                            ? router.members().back()
                            : router.members().front();
  parents[static_cast<std::size_t>(victim)] = victim;
  AuditReport report;
  router.audit(report);
  expect_fired(report, "tree", "parents-acyclic");
}

TEST(AuditCorruption, OversizeBallFires) {
  // n chosen so that n > ball_slack * sqrt(n ln n): an all-nodes ball must
  // overflow the Lemma 2 budget.
  const Instance inst = make_instance(Family::kRandom, 300, 4, 7);
  Rng rng(5);
  Rtz3Scheme scheme(inst.graph, *inst.metric, inst.names, rng);
  BallSystem& balls = AuditTestPeer::balls(scheme);
  // A non-center node whose ball swells to every node in the graph.
  NodeId victim = kNoNode;
  for (NodeId v = 0; v < inst.n(); ++v) {
    if (balls.center_index_of[static_cast<std::size_t>(v)] < 0) {
      victim = v;
      break;
    }
  }
  ASSERT_NE(victim, kNoNode);
  std::vector<NodeId> everyone(static_cast<std::size_t>(inst.n()));
  for (NodeId v = 0; v < inst.n(); ++v) {
    everyone[static_cast<std::size_t>(v)] = v;
  }
  // Materialize the CSR rows, swell the victim's ball, and repack.
  std::vector<std::vector<NodeId>> ball_rows(static_cast<std::size_t>(inst.n()));
  std::vector<std::vector<NodeId>> cluster_rows(
      static_cast<std::size_t>(inst.n()));
  for (NodeId v = 0; v < inst.n(); ++v) {
    const auto b = balls.ball(v);
    ball_rows[static_cast<std::size_t>(v)].assign(b.begin(), b.end());
    const auto c = balls.cluster(v);
    cluster_rows[static_cast<std::size_t>(v)].assign(c.begin(), c.end());
  }
  ball_rows[static_cast<std::size_t>(victim)] = everyone;
  balls.adopt_rows(ball_rows, cluster_rows);
  AuditReport report;
  {
    auto scope = report.scope("rtz3");
    balls.audit(report);
  }
  expect_fired(report, "rtz3/balls", "ball-size");
}

TEST(AuditCorruption, SortedDictHelperCatchesDisorderAndDuplicates) {
  struct FakeDict {
    std::vector<NodeName> keys;
    [[nodiscard]] std::size_t size() const { return keys.size(); }
    [[nodiscard]] NodeName key_at(std::size_t i) const { return keys[i]; }
  };
  AuditReport report;
  audit_sorted_dict(report, "sorted", FakeDict{{1, 2, 3}});
  audit_sorted_dict(report, "unsorted", FakeDict{{3, 1, 2}});
  audit_sorted_dict(report, "duplicate", FakeDict{{1, 1, 2}});
  EXPECT_TRUE(find_entry(report, "", "sorted")->ok);
  EXPECT_FALSE(find_entry(report, "", "unsorted")->ok);
  EXPECT_FALSE(find_entry(report, "", "duplicate")->ok);
}

TEST(AuditCorruption, UnsortedRowHelperChecksEachRowOnItsOwn) {
  const FlatVec<std::int64_t> off(std::vector<std::int64_t>{0, 2, 4, 4, 6});
  // Rows {1, 5} {2, 7} {} {7, 9}: ascending in each row, not overall.
  EXPECT_EQ(first_unsorted_row(off, std::vector<int>{1, 5, 2, 7, 7, 9}), -1);
  EXPECT_EQ(first_unsorted_row(off, std::vector<int>{1, 5, 7, 2, 7, 9}), 1);
  EXPECT_EQ(first_unsorted_row(off, std::vector<int>{1, 5, 2, 7, 9, 9}), 3);
}

// -------------------------------------------------------------- snapshot ---

class AuditSnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = "/tmp/rtr_audit_test_" + std::to_string(::getpid()) + ".rtrsnap";
    const Instance inst = make_instance(Family::kRandom, 80, 4, 3);
    BuildContext ctx = inst.context(5);
    SchemeHandle handle(ctx.graph, ctx.names,
                        SchemeRegistry::global().build("rtz3", ctx));
    save_snapshot(path_, "rtz3", handle);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// XORs one byte of the saved file.
  void flip_byte(std::size_t offset) {
    std::fstream f(path_, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f);
    f.seekg(static_cast<std::streamoff>(offset));
    char b = 0;
    f.read(&b, 1);
    b = static_cast<char>(b ^ 0xFF);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&b, 1);
  }

  std::string path_;
};

TEST_F(AuditSnapshotTest, CleanSnapshotPasses) {
  AuditReport report;
  audit_snapshot_file(path_, report);
  EXPECT_TRUE(report.ok()) << report.summary(false);
  EXPECT_NE(find_entry(report, "snapshot/graph/offset", "crc"), nullptr);
  EXPECT_NE(find_prefix_entry(report, "snapshot/scheme/", "crc"), nullptr);
}

TEST_F(AuditSnapshotTest, BadSectionCrcFires) {
  // Find a non-empty scheme-owned section's payload range in the intact
  // file, then damage one byte inside it.
  std::string name;
  std::uint64_t offset = 0;
  {
    const ArenaView view(map_arena_file(path_));
    view.verify_section_crcs();
    for (const ArenaDirEntry& e : view.entries()) {
      if (e.name_str().rfind("scheme/", 0) == 0 && e.byte_size() > 0) {
        name = e.name_str();
        offset = e.offset + e.byte_size() / 2;
        break;
      }
    }
  }
  ASSERT_FALSE(name.empty());
  flip_byte(static_cast<std::size_t>(offset));

  AuditReport report;
  audit_snapshot_file(path_, report);
  expect_fired(report, "snapshot/" + name, "crc");
  // The untouched sections still audit clean.
  EXPECT_TRUE(find_entry(report, "snapshot/graph/offset", "crc")->ok);
  EXPECT_TRUE(find_entry(report, "snapshot/names/name_of", "crc")->ok);

  // The load path agrees: a damaged section is a checksum error.
  EXPECT_THROW(load_snapshot(path_), SnapshotChecksumError);
}

TEST_F(AuditSnapshotTest, TruncatedFileFires) {
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.close();
  std::vector<char> bytes(size / 2);
  std::ifstream re(path_, std::ios::binary);
  re.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  re.close();
  std::ofstream out(path_, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.close();

  AuditReport report;
  audit_snapshot_file(path_, report);
  expect_fired(report, "snapshot", "framing");
}

TEST_F(AuditSnapshotTest, MissingFileIsAFailedReportNotAThrow) {
  AuditReport report;
  audit_snapshot_file("/tmp/rtr_no_such_file.rtrsnap", report);
  expect_fired(report, "snapshot", "readable");
}

}  // namespace
}  // namespace rtr
