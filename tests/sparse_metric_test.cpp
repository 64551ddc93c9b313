// Differential conformance for the sparse roundtrip metric and the parallel
// scheme builders:
//
//  * The lazily-expanded SparseRoundtripMetric must be observationally
//    identical to the dense APSP-backed metric -- distances, init orders,
//    neighborhood prefixes, balls, radii -- on every family and size.
//  * Every registered scheme built on the sparse metric must produce
//    byte-identical snapshots to the same build on the dense metric (the
//    metric is construction-time scaffolding; tables cannot depend on it).
//  * Parallel construction (options["threads"]) must be byte-identical to
//    the serial build for any thread count, on both metric backends.  The
//    ParallelDeterminism suite runs under TSAN in CI, where the sparse
//    metric's per-row locking is exercised by concurrent builder threads.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "net/scheme.h"
#include "rt/metric.h"
#include "test_support.h"

namespace rtr {
namespace {

using ::rtr::testing::FamilyParam;
using ::rtr::testing::family_param_name;
using ::rtr::testing::shared_instance;

class SparseMetricTest : public ::testing::TestWithParam<FamilyParam> {};

TEST_P(SparseMetricTest, MatchesDenseMetricObservationally) {
  const auto [family, n, seed] = GetParam();
  const auto inst = shared_instance(family, n, 8, seed);
  const RoundtripMetric& dense = *inst->metric;
  const SparseRoundtripMetric sparse(
      std::make_shared<const Digraph>(inst->graph));

  ASSERT_EQ(sparse.node_count(), dense.node_count());
  EXPECT_EQ(sparse.rt_diameter(), dense.rt_diameter());

  // Sampled sources keep the n=2048 instantiation affordable; every row a
  // scheme would read (init order, neighborhoods, balls) is checked exactly.
  const NodeId stride = std::max<NodeId>(1, n / 64);
  for (NodeId v = 0; v < n; v += stride) {
    EXPECT_EQ(sparse.rt_radius_from(v), dense.rt_radius_from(v)) << "v=" << v;
    EXPECT_EQ(sparse.init_order(v, inst->names.names()),
              dense.init_order(v, inst->names.names()))
        << "v=" << v;
    for (const NodeId size : {NodeId{1}, NodeId{7}, n / 4, n}) {
      EXPECT_EQ(sparse.neighborhood(v, size, inst->names.names()),
                dense.neighborhood(v, size, inst->names.names()))
          << "v=" << v << " size=" << size;
    }
    const Dist rv = dense.rt_radius_from(v);
    for (const Dist radius : {Dist{0}, Dist{1}, rv / 4, rv / 2, rv}) {
      EXPECT_EQ(sparse.ball(v, radius), dense.ball(v, radius))
          << "v=" << v << " radius=" << radius;
    }
    for (NodeId u = 0; u < n; u += 3 * stride + 1) {
      EXPECT_EQ(sparse.d(v, u), dense.d(v, u)) << v << "->" << u;
      EXPECT_EQ(sparse.r(v, u), dense.r(v, u)) << v << "<->" << u;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, SparseMetricTest,
    ::testing::Values(FamilyParam{Family::kRandom, 128, 1},
                      FamilyParam{Family::kGrid, 128, 2},
                      FamilyParam{Family::kRing, 128, 3},
                      FamilyParam{Family::kRandom, 512, 4},
                      FamilyParam{Family::kGrid, 512, 5},
                      FamilyParam{Family::kRing, 512, 6},
                      FamilyParam{Family::kRandom, 2048, 7},
                      FamilyParam{Family::kGrid, 2048, 8},
                      FamilyParam{Family::kRing, 2048, 9}),
    [](const auto& info) { return family_param_name(info.param); });

// Snapshot bytes of a scheme built from a context: the canonical encoding
// makes byte equality the strongest available "same tables" check.
std::vector<std::uint8_t> scheme_snapshot_bytes(const std::string& name,
                                                const BuildContext& ctx) {
  const std::shared_ptr<const Scheme> scheme =
      SchemeRegistry::global().build(name, ctx);
  return testing::scheme_arena_bytes(name, *scheme);
}

class SparseSchemeDifferentialTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(SparseSchemeDifferentialTest, SnapshotBytesMatchDenseBuild) {
  const std::string scheme_name = GetParam();
  for (const Family family : {Family::kRandom, Family::kGrid, Family::kRing}) {
    const auto inst = shared_instance(family, 128, 6, 31);
    const auto graph = std::make_shared<const Digraph>(inst->graph);
    const auto sparse = std::make_shared<const SparseRoundtripMetric>(graph);
    const BuildContext dense_ctx =
        BuildContext::wrap(graph, inst->metric, inst->names, 17);
    const BuildContext sparse_ctx =
        BuildContext::wrap(graph, sparse, inst->names, 17);
    EXPECT_EQ(scheme_snapshot_bytes(scheme_name, dense_ctx),
              scheme_snapshot_bytes(scheme_name, sparse_ctx))
        << scheme_name << " on " << family_name(family)
        << ": sparse-metric build diverged from the dense build";
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, SparseSchemeDifferentialTest,
                         ::testing::ValuesIn(SchemeRegistry::global().names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(SparseMetricMemory, ResidentRowsStaySublinearAfterSchemeBuild) {
  // Regression for the covered-radius blow-up: certifying the nearest-center
  // scan through per-node rows forced them to cover out to the centers,
  // which on the expander family meant near-full rows (~0.9 n entries per
  // node).  With the batch nearest_all sweeps and the budget-pruned ball
  // search, resident rows track roundtrip-ball sizes -- O~(sqrt(n ln n))
  // entries per node -- which is the whole memory story of the sparse
  // backend.  The budget has ~4x headroom over the measured value and sits
  // ~5x below the pre-fix failure mode.
  const NodeId n = 1024;
  const auto inst = shared_instance(Family::kRandom, n, 8, 77);
  const auto graph = std::make_shared<const Digraph>(inst->graph);
  const auto sparse = std::make_shared<const SparseRoundtripMetric>(graph);
  const BuildContext ctx = BuildContext::wrap(graph, sparse, inst->names, 17);
  (void)SchemeRegistry::global().build("rtz3", ctx);
  const double per_node =
      static_cast<double>(sparse->cached_entries()) / static_cast<double>(n);
  const double budget =
      8.0 * std::sqrt(static_cast<double>(n) * std::log(static_cast<double>(n)));
  EXPECT_LE(per_node, budget)
      << "resident sparse rows average " << per_node
      << " entries/node after an rtz3 build; sublinear budget is " << budget;
}

TEST(SparseMetricHint, PreparedNeighborhoodsMatchUnpreparedAnswers) {
  // Regression for the neighborhood budget ladder: prepare_neighborhoods
  // publishes a pilot radius that redirects expand_to_count's probe budgets
  // (one near-critical probe instead of a doubling ladder whose overshoot
  // budgets explore near-whole-graph one-directional balls).  The hint is a
  // pure performance channel: every neighborhood prefix, distance, and ball
  // must be identical to a metric that never saw the hint, including on rows
  // left warm by earlier pair queries (the bench's shared-metric shape).
  const NodeId n = 512;
  const auto inst = shared_instance(Family::kRandom, n, 8, 21);
  const auto graph = std::make_shared<const Digraph>(inst->graph);
  const SparseRoundtripMetric hinted(graph);
  const SparseRoundtripMetric plain(graph);
  const NodeId q = static_cast<NodeId>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  // Warm a few rows the way the query phase does before the hood pass.
  for (NodeId v = 0; v < n; v += 97) {
    (void)hinted.r(v, (v + n / 2) % n);
  }
  hinted.prepare_neighborhoods(q, 1);
  for (NodeId v = 0; v < n; ++v) {
    ASSERT_EQ(hinted.neighborhood(v, q, inst->names.names()),
              plain.neighborhood(v, q, inst->names.names()))
        << "v=" << v;
  }
  for (NodeId v = 0; v < n; v += 13) {
    EXPECT_EQ(hinted.ball(v, 3 * hinted.r(v, (v + 1) % n)),
              plain.ball(v, 3 * plain.r(v, (v + 1) % n)))
        << "v=" << v;
  }
}

class ParallelDeterminismTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ParallelDeterminismTest, SnapshotBytesMatchSerialForAnyThreadCount) {
  const std::string scheme_name = GetParam();
  const auto inst = shared_instance(Family::kRandom, 128, 6, 42);
  const auto graph = std::make_shared<const Digraph>(inst->graph);
  const auto sparse = std::make_shared<const SparseRoundtripMetric>(graph);
  const auto bytes_with = [&](std::shared_ptr<const RoundtripMetric> metric,
                              const std::string& threads) {
    const BuildContext ctx = BuildContext::wrap(graph, std::move(metric),
                                                inst->names, 23,
                                                {{"threads", threads}});
    return scheme_snapshot_bytes(scheme_name, ctx);
  };
  const std::vector<std::uint8_t> serial = bytes_with(inst->metric, "1");
  for (const char* threads : {"2", "5", "8"}) {
    EXPECT_EQ(bytes_with(inst->metric, threads), serial)
        << scheme_name << " threads=" << threads << " (dense metric)";
  }
  // The sparse metric adds concurrent lazy row expansion under the builder
  // threads (per-row mutexes; TSAN watches this instantiation in CI).
  EXPECT_EQ(bytes_with(sparse, "4"), serial)
      << scheme_name << " threads=4 (sparse metric)";
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ParallelDeterminismTest,
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
