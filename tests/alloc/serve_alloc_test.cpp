// QueryEngine::serve must not touch the heap once warm: every registered
// scheme answers a query from its frozen tables with the header on the
// stack.  And a cover hierarchy's double trees, like an rtz3 build's ball
// trees, allocate in proportion to their memberships, not to trees x n.
// Under the auto metric mode only a whole-level consumer (polystretch here)
// allocates the n x n APSP matrix; rtz3 and stretch6 builds never do, and a
// sparse metric keeps nothing once a build is over.  An exstretch build
// peaks at less than twice what the built scheme keeps.
// This binary replaces the global operator new with one that counts
// allocations and bytes, which is why it is not part of rtr_tests: a
// replacement applies to the whole program.
// Allocations and bytes are counted per thread (the calling thread's own);
// live bytes, allocated minus freed, and their peak are counted over all
// threads.
#include <gtest/gtest.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "cover/hierarchy.h"
#include "cover/sparse_cover.h"
#include "io/snapshot.h"
#include "net/query_engine.h"
#include "net/scheme.h"
#include "rt/metric.h"
#include "rtz/rtz3_scheme.h"
#include "test_support.h"

namespace {

thread_local std::int64_t t_allocations = 0;
thread_local std::int64_t t_allocated_bytes = 0;
thread_local std::int64_t t_largest_allocation = 0;
// Usable bytes of every block the replaced operator new handed out and
// operator delete has not yet taken back, on any thread.
std::atomic<std::int64_t> g_live_bytes{0};
// The most g_live_bytes has reached; a test stores the current live bytes
// here before the span it measures.
std::atomic<std::int64_t> g_peak_live_bytes{0};

void count(std::size_t size) noexcept {
  ++t_allocations;
  t_allocated_bytes += static_cast<std::int64_t>(size);
  t_largest_allocation =
      std::max(t_largest_allocation, static_cast<std::int64_t>(size));
}

void* track(void* p) noexcept {
  const auto size = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live =
      g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  std::int64_t peak = g_peak_live_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_live_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
  return p;
}

void* counted_alloc(std::size_t size) noexcept {
  count(size);
  return track(std::malloc(size == 0 ? 1 : size));
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) noexcept {
  count(size);
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  return track(std::aligned_alloc(a, (size + a - 1) / a * a));
}

// Not inlined: where GCC sees free() meet a pointer from the replaced
// operator new it warns of a mismatch that is not there (both sides are
// malloc/free).
[[gnu::noinline]] void release(void* p) noexcept {
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = counted_aligned_alloc(size, align)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}

namespace rtr {
namespace {

using ::rtr::testing::Instance;
using ::rtr::testing::make_instance;

struct AllocCase {
  Family family;
  NodeId n;
  std::uint64_t seed;
};

class ServeAllocationTest : public ::testing::TestWithParam<AllocCase> {};

TEST_P(ServeAllocationTest, ServeAllocatesNothingAfterWarmUp) {
  const AllocCase c = GetParam();
  const Instance inst = make_instance(c.family, c.n, 5, c.seed);
  const auto ctx = inst.context(c.seed + 1);
  const std::vector<RoundtripQuery> queries =
      QueryEngine::sample_pairs(inst.n(), 1000, c.seed + 2);
  constexpr std::size_t kWarmUp = 100;
  {
    // The probe itself counts (a call, unlike a new-expression, cannot be
    // elided).
    const std::int64_t before = t_allocations;
    ::operator delete(::operator new(16));
    ASSERT_EQ(t_allocations - before, 1);
  }
  for (const std::string& name : SchemeRegistry::global().names()) {
    QueryEngineOptions opts;
    opts.threads = 1;
    const QueryEngine engine =
        QueryEngine::from_registry(SchemeRegistry::global(), name, ctx, opts);
    std::int64_t failed = 0;
    for (std::size_t i = 0; i < kWarmUp; ++i) {
      failed += engine.serve(queries[i].src, queries[i].dst).ok() ? 0 : 1;
    }
    const std::int64_t before = t_allocations;
    for (std::size_t i = kWarmUp; i < queries.size(); ++i) {
      failed += engine.serve(queries[i].src, queries[i].dst).ok() ? 0 : 1;
    }
    const std::int64_t allocations = t_allocations - before;
    const auto served = static_cast<double>(queries.size() - kWarmUp);
    EXPECT_EQ(failed, 0) << name;
    EXPECT_EQ(allocations, 0)
        << name << ": " << static_cast<double>(allocations) / served
        << " heap allocations per serve";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Instances, ServeAllocationTest,
    ::testing::Values(AllocCase{Family::kRandom, 256, 41},
                      AllocCase{Family::kScaleFree, 1024, 42}),
    [](const auto& info) {
      return (info.param.family == Family::kRandom ? std::string("random_n")
                                                   : std::string("scale_free_n")) +
             std::to_string(info.param.n);
    });

// The double trees of a cover hierarchy cost O(their members) each, so the
// bytes a build allocates stay within c * (memberships + levels * n): the
// levels * n term pays for the per-node home and trees_of lists and the
// per-worker rank map.  Trees sized to the graph allocate ~90 bytes per
// tree per node instead: 301 MB for this instance's 3253 trees, where
// member-local trees take 2.3 MB against a bound of 7 MB.  The
// sparse covers the hierarchy consumes are its input, not its trees:
// replaying them on their own (the pair-level table, then each level's
// seed balls and cover) measures the bytes to leave out.
TEST(HierarchyAllocationTest, TreesAllocateInProportionToMemberships) {
  const Instance inst = make_instance(Family::kScaleFree, 1024, 5, 42);
  const Digraph reversed = inst.graph.reversed();
  constexpr int kK = 3;  // polystretch's default
  std::int64_t before = t_allocated_bytes;
  const CoverHierarchy hierarchy(inst.graph, reversed, *inst.metric, kK, 1);
  const std::int64_t hierarchy_bytes = t_allocated_bytes - before;

  before = t_allocated_bytes;
  const RoundtripBallLevels ball_levels(*inst.metric);
  std::int64_t cover_bytes = t_allocated_bytes - before;
  ASSERT_EQ(ball_levels.level_count(), hierarchy.level_count());
  std::int64_t memberships = 0;
  std::int64_t trees = 0;
  for (std::int32_t level = 0; level < hierarchy.level_count(); ++level) {
    const HierarchyLevel& lvl = hierarchy.level(level);
    before = t_allocated_bytes;
    const SparseCoverResult cover =
        build_sparse_cover(ball_levels.balls(level), kK);
    cover_bytes += t_allocated_bytes - before;
    trees += static_cast<std::int64_t>(lvl.trees.size());
    for (const DoubleTree& tree : lvl.trees) memberships += tree.member_count();
  }
  const std::int64_t tree_bytes = hierarchy_bytes - cover_bytes;
  const std::int64_t levels = hierarchy.level_count();
  constexpr std::int64_t kBytesPerUnit = 512;
  const std::int64_t bound =
      kBytesPerUnit * (memberships + levels * inst.n());
  EXPECT_LT(tree_bytes, bound)
      << trees << " trees, " << memberships << " memberships, " << levels
      << " levels: " << tree_bytes << " bytes allocated outside the covers";
}

// An rtz3 build allocates in proportion to its tables: the sum of the ball
// sizes (one label, table and up-port per ball membership) plus the
// n x |A| center arrays.  Each ball tree is member-local, so the build
// stays within c * (sum |Ball(v)| + n * |A|).  Ball trees sized to the graph
// (an n-length mask and n-length out- and in-trees per root) took ~570
// bytes per unit on both instances (57.5 MB per build); member-local trees
// take ~119 (12.0 MB), most of it now the full-graph center trees.  The
// ball system the build starts from is counted too.
class Rtz3AllocationTest : public ::testing::TestWithParam<AllocCase> {};

TEST_P(Rtz3AllocationTest, BuildAllocatesInProportionToBallsAndCenters) {
  const AllocCase c = GetParam();
  const Instance inst = make_instance(c.family, c.n, 5, c.seed);
  Rng rng(c.seed + 1);
  Rtz3Scheme::Options options;
  options.threads = 1;
  const std::int64_t before = t_allocated_bytes;
  const Rtz3Scheme scheme(inst.graph, *inst.metric, inst.names, rng, options);
  const std::int64_t build_bytes = t_allocated_bytes - before;

  std::int64_t memberships = 0;
  for (NodeId v = 0; v < inst.n(); ++v) {
    memberships += static_cast<std::int64_t>(scheme.balls().ball(v).size());
  }
  const auto centers = static_cast<std::int64_t>(scheme.balls().centers.size());
  const std::int64_t units = memberships + inst.n() * centers;
  constexpr std::int64_t kBytesPerUnit = 256;
  EXPECT_LT(build_bytes, kBytesPerUnit * units)
      << memberships << " ball memberships, " << centers << " centers: "
      << build_bytes << " bytes, "
      << static_cast<double>(build_bytes) / static_cast<double>(units)
      << " per unit";
}

INSTANTIATE_TEST_SUITE_P(
    Instances, Rtz3AllocationTest,
    ::testing::Values(AllocCase{Family::kRandom, 1024, 41},
                      AllocCase{Family::kScaleFree, 1024, 42}),
    [](const auto& info) {
      return (info.param.family == Family::kRandom ? std::string("random_n")
                                                   : std::string("scale_free_n")) +
             std::to_string(info.param.n);
    });

// Under MetricMode::kAuto the metric is sparse rows, and no build makes the
// n x n APSP matrix (n^2 * 8 bytes, 8 MB at n = 1024).  An rtz3 or stretch6
// build reads balls, neighbourhoods and nearest-center sweeps, so no
// allocation of it, metric included, comes near the matrix.  The largest
// measured 0.75 MB for rtz3 and 1.78 MB for stretch6 (a flattened
// dictionary), both families: at most a fifth of the matrix, against a
// bound of a quarter.  A polystretch build is a whole-level consumer: it
// fills the metric's 4-byte roundtrip table (n^2 * 4 bytes), and its
// largest allocation, 4,194,308 bytes on both families, is the top cover
// level's n^2 + 1 ball ids, which tie with the table.  exstretch is not
// bounded here: its largest allocation on random n = 1024 is not the metric
// but PackedLabels<int32_t>::Builder's label words growing by doubling to
// 8,388,608 bytes, as large as the matrix.
class MetricAllocationTest : public ::testing::TestWithParam<AllocCase> {
 protected:
  /// Largest single allocation made (on this thread, the only one with
  /// "threads" = 1) while making an auto-mode metric and building `scheme`.
  std::int64_t largest_allocation(const std::string& scheme) const {
    const AllocCase c = GetParam();
    const Instance inst = make_instance(c.family, c.n, 5, c.seed);
    const auto graph = std::make_shared<const Digraph>(inst.graph);
    t_largest_allocation = 0;
    const auto metric = make_roundtrip_metric(graph, MetricMode::kAuto, 1);
    const BuildContext ctx = BuildContext::wrap(
        graph, metric, inst.names, c.seed + 1, {{"threads", "1"}});
    (void)SchemeRegistry::global().build(scheme, ctx);
    return t_largest_allocation;
  }

  static std::int64_t matrix_bytes() {
    const auto n = static_cast<std::int64_t>(GetParam().n);
    return n * n * static_cast<std::int64_t>(sizeof(Dist));
  }

  static std::int64_t table_bytes() {
    const auto n = static_cast<std::int64_t>(GetParam().n);
    return n * n * static_cast<std::int64_t>(sizeof(std::int32_t));
  }
};

TEST_P(MetricAllocationTest, BallSchemesBuildWithoutTheMatrix) {
  for (const std::string scheme : {"rtz3", "stretch6"}) {
    const std::int64_t largest = largest_allocation(scheme);
    EXPECT_LT(largest, matrix_bytes() / 4)
        << scheme << ": largest allocation " << largest << " bytes against a "
        << matrix_bytes() << "-byte matrix";
  }
}

TEST_P(MetricAllocationTest, CoverSchemeBuildsTheTableNotTheMatrix) {
  const std::int64_t largest = largest_allocation("polystretch");
  EXPECT_GE(largest, table_bytes());
  EXPECT_LT(largest, matrix_bytes())
      << "polystretch: largest allocation " << largest << " bytes";
}

INSTANTIATE_TEST_SUITE_P(
    Instances, MetricAllocationTest,
    ::testing::Values(AllocCase{Family::kRandom, 1024, 41},
                      AllocCase{Family::kScaleFree, 1024, 42}),
    [](const auto& info) {
      return (info.param.family == Family::kRandom ? std::string("random_n")
                                                   : std::string("scale_free_n")) +
             std::to_string(info.param.n);
    });

// A sparse metric is a pure function of its graph: a cover scheme's build
// reads one roundtrip row per node through it and leaves nothing behind.
// Rows grown to full for the dictionaries' pair reads held n^2 entries
// (~30 MB here) until the metric died.  The build runs on its own thread,
// so that thread's search scratch is freed when it exits, and the bytes
// still live after the scheme is gone are what the metric retains.
TEST(SparseMetricRetentionTest, CoverBuildLeavesNothingInTheMetric) {
  const Instance inst = make_instance(Family::kScaleFree, 1024, 5, 42);
  const auto graph = std::make_shared<const Digraph>(inst.graph);
  const auto metric = make_roundtrip_metric(graph, MetricMode::kSparse, 1);
  (void)SchemeRegistry::global();  // the process-lifetime registry
  const std::int64_t before = g_live_bytes.load();
  std::thread build([&] {
    const BuildContext ctx = BuildContext::wrap(graph, metric, inst.names, 43,
                                                {{"threads", "1"}});
    (void)SchemeRegistry::global().build("polystretch", ctx);
  });
  build.join();
  const std::int64_t retained = g_live_bytes.load() - before;
  EXPECT_LT(retained, 64 * static_cast<std::int64_t>(inst.n()))
      << retained << " bytes still live after a sparse polystretch build";
}

// An exstretch build stages each node's rows as small sorted records (a key,
// a waypoint name, a tree reference) and mints the R2 labels straight into
// packed CSR, so its peak holds little more than the tables it keeps -- and
// a built scheme keeps its cover hierarchy for audit (~20 MB here).  Hash
// maps of by-value R2 labels per node, copied again into label vectors
// before packing, raised the peak to ~7.8x what the scheme keeps.  The
// build runs on its own thread so that thread's search scratch is not
// counted as kept.
TEST(ExStretchBuildAllocationTest, BuildPeakStaysBelowTwiceWhatItKeeps) {
  const Instance inst = make_instance(Family::kScaleFree, 1024, 5, 42);
  const auto graph = std::make_shared<const Digraph>(inst.graph);
  const auto metric = make_roundtrip_metric(graph, MetricMode::kSparse, 1);
  (void)SchemeRegistry::global();  // the process-lifetime registry
  std::shared_ptr<const Scheme> scheme;
  const std::int64_t before = g_live_bytes.load();
  g_peak_live_bytes.store(before);
  std::thread build([&] {
    const BuildContext ctx = BuildContext::wrap(graph, metric, inst.names, 43,
                                                {{"threads", "1"}});
    scheme = SchemeRegistry::global().build("exstretch", ctx);
  });
  build.join();
  const std::int64_t raised = g_peak_live_bytes.load() - before;
  const std::int64_t kept = g_live_bytes.load() - before;
  EXPECT_LT(raised, 2 * kept)
      << "an exstretch build raised peak live bytes by " << raised
      << " for a scheme that keeps " << kept;
}

// save_snapshot streams each section to the file as the hooks add it, so a
// save holds the writer's directory and the hooks' small locals (rtz3's
// address arrays: O(n)), never the image: ~50 KB here against a 1.7 MB
// file.  An image built in memory first raises the peak by at least the
// whole file.
TEST(SnapshotSaveAllocationTest, SaveHoldsFarLessThanTheFile) {
  const Instance inst = make_instance(Family::kRandom, 1024, 5, 44);
  const BuildContext ctx = inst.context(45);
  const SchemeHandle handle(ctx.graph, ctx.names,
                            SchemeRegistry::global().build("rtz3", ctx));
  const std::string path = ::testing::TempDir() + "rtr_alloc_save.rtrsnap";
  const std::int64_t before = g_live_bytes.load();
  g_peak_live_bytes.store(before);
  save_snapshot(path, "rtz3", handle);
  const std::int64_t raised = g_peak_live_bytes.load() - before;
  const auto file_bytes =
      static_cast<std::int64_t>(std::filesystem::file_size(path));
  std::remove(path.c_str());
  EXPECT_LT(raised, file_bytes / 8)
      << "a save raised peak live bytes by " << raised << " for a "
      << file_bytes << "-byte file";
}

}  // namespace
}  // namespace rtr
