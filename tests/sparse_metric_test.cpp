// Differential conformance for the sparse roundtrip metric and the parallel
// scheme builders:
//
//  * The search-backed SparseRoundtripMetric must be observationally
//    identical to the dense APSP-backed metric -- distances, init orders,
//    neighborhood prefixes, balls, roundtrip rows -- on every family and
//    size, whatever was asked of it before.
//  * Every registered scheme built on the sparse metric, or on the auto-mode
//    metric, must produce byte-identical snapshots to the same build on the
//    dense metric (the metric is construction-time scaffolding; tables
//    cannot depend on it).
//  * Parallel construction (options["threads"]) must be byte-identical to
//    the serial build for any thread count, on both metric backends.  The
//    ParallelDeterminism suite runs under TSAN in CI, where concurrent
//    builder threads search the sparse metric and fill roundtrip rows on
//    their own per-thread scratch.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "net/scheme.h"
#include "rt/metric.h"
#include "test_support.h"
#include "util/parallel.h"

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
  // scheme would read (init order, neighborhoods, balls, roundtrip rows) is
  // checked exactly.
  const NodeId stride = std::max<NodeId>(1, n / 64);
  // The sampled rows fill from three threads at once, the way the
  // dictionaries' fan-out reads them (TSAN watches this suite in CI).
  const auto row_size = static_cast<std::size_t>(dense.node_count());
  std::vector<std::vector<Dist>> sparse_rows((n + stride - 1) / stride);
  parallel_tickets(static_cast<std::int64_t>(sparse_rows.size()), 3, [&] {
    return [&](std::int64_t i) {
      auto& row = sparse_rows[static_cast<std::size_t>(i)];
      row.resize(row_size);
      sparse.roundtrip_row(static_cast<NodeId>(i) * stride, row);
    };
  });
  std::vector<Dist> dense_row(row_size);
  for (NodeId v = 0; v < n; v += stride) {
    dense.roundtrip_row(v, dense_row);
    EXPECT_EQ(sparse_rows[static_cast<std::size_t>(v / stride)], dense_row)
        << "v=" << v;
    for (const NodeId size : {NodeId{1}, NodeId{7}, n / 4, n}) {
      EXPECT_EQ(sparse.neighborhood(v, size, inst->names.names()),
                dense.neighborhood(v, size, inst->names.names()))
          << "v=" << v << " size=" << size;
    }
    const Dist rv = *std::max_element(dense_row.begin(), dense_row.end());
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

// d(u,v) and r(u,v) are exact point-to-point searches: every pair matches
// the dense metric on every family, the same before and after other queries
// (balls, neighborhoods), since the metric keeps nothing between queries.
class SparsePairSearchTest : public ::testing::TestWithParam<Family> {};

TEST_P(SparsePairSearchTest, MissesMatchDenseAndCacheNothing) {
  const auto inst = shared_instance(GetParam(), 64, 8, 13);
  const RoundtripMetric& dense = *inst->metric;
  const SparseRoundtripMetric sparse(
      std::make_shared<const Digraph>(inst->graph));
  const NodeId n = inst->n();
  const auto expect_all_pairs = [&](const char* phase) {
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        ASSERT_EQ(sparse.d(u, v), dense.d(u, v)) << phase << " " << u << "->" << v;
        ASSERT_EQ(sparse.r(u, v), dense.r(u, v)) << phase << " " << u << "<->" << v;
      }
    }
  };
  expect_all_pairs("cold");
  for (NodeId v = 0; v < n; v += 5) {
    (void)sparse.ball(v, dense.r(v, (v + n / 2) % n));
    (void)sparse.neighborhood(v, n / 2, inst->names.names());
  }
  expect_all_pairs("after balls and neighborhoods");
}

// The row stream serves exactly the dense rows, in node order, and
// roundtrip_row fills every row with r(v, .) on both backends, also from
// several threads at once (the dictionaries' fan-out).
TEST_P(SparsePairSearchTest, RowStreamCachesNothingAndAllPairsFillEveryRow) {
  const auto inst = shared_instance(GetParam(), 64, 8, 13);
  const RoundtripMetric& dense = *inst->metric;
  const SparseRoundtripMetric sparse(
      std::make_shared<const Digraph>(inst->graph));
  const NodeId n = inst->n();
  NodeId next = 0;
  sparse.for_each_roundtrip_row([&](NodeId v, std::span<const Dist> row) {
    ASSERT_EQ(v, next++);
    ASSERT_EQ(row.size(), static_cast<std::size_t>(n));
    for (NodeId u = 0; u < n; ++u) {
      ASSERT_EQ(row[static_cast<std::size_t>(u)], dense.r(v, u))
          << v << "<->" << u;
    }
  });
  EXPECT_EQ(next, n);

  for (const RoundtripMetric* metric : {&dense, static_cast<const RoundtripMetric*>(&sparse)}) {
    std::vector<std::int64_t> wrong(static_cast<std::size_t>(n), -1);
    parallel_tickets(n, 3, [&] {
      return [&, row = std::vector<Dist>(static_cast<std::size_t>(n))](
                 std::int64_t v) mutable {
        metric->roundtrip_row(static_cast<NodeId>(v), row);
        std::int64_t bad = 0;
        for (NodeId u = 0; u < n; ++u) {
          bad += row[static_cast<std::size_t>(u)] !=
                 dense.r(static_cast<NodeId>(v), u);
        }
        wrong[static_cast<std::size_t>(v)] = bad;
      };
    });
    EXPECT_EQ(std::count(wrong.begin(), wrong.end(), 0), n)
        << (metric == &dense ? "dense" : "sparse")
        << " roundtrip_row differs from r(v, .)";
  }
}

INSTANTIATE_TEST_SUITE_P(Families, SparsePairSearchTest,
                         ::testing::Values(Family::kRandom, Family::kGrid,
                                           Family::kRing, Family::kScaleFree,
                                           Family::kBidirected),
                         [](const auto& info) {
                           std::string name = family_name(info.param);
                           for (auto& c : name) {
                             if (c == '+' || c == '-') c = '_';
                           }
                           return name;
                         });

// whole_levels() hands whole-level consumers the APSP matrix only on an
// auto-mode metric within the cap, builds it once, and from then on the
// sparse metric's own d/r read it.  Strict sparse, dense, and auto beyond
// the cap return the metric itself.
TEST(AutoMetric, WholeLevelsMaterialisesTheMatrixOnlyUnderAutoWithinTheCap) {
  const auto inst = shared_instance(Family::kRandom, 96, 8, 19);
  const auto graph = std::make_shared<const Digraph>(inst->graph);
  const auto sparse = make_roundtrip_metric(graph, MetricMode::kSparse);
  EXPECT_EQ(&sparse->whole_levels(), sparse.get());
  const auto dense = make_roundtrip_metric(graph, MetricMode::kDense);
  EXPECT_EQ(&dense->whole_levels(), dense.get());

  const auto autom = make_roundtrip_metric(graph, MetricMode::kAuto);
  ASSERT_NE(dynamic_cast<const SparseRoundtripMetric*>(autom.get()), nullptr);
  const RoundtripMetric& whole = autom->whole_levels();
  EXPECT_NE(dynamic_cast<const DenseRoundtripMetric*>(&whole), nullptr);
  EXPECT_EQ(&autom->whole_levels(), &whole);
  EXPECT_EQ(whole.rt_diameter(), inst->metric->rt_diameter());
  for (NodeId u = 0; u < inst->n(); u += 7) {
    for (NodeId v = 0; v < inst->n(); v += 5) {
      EXPECT_EQ(autom->r(u, v), inst->metric->r(u, v));
      EXPECT_EQ(autom->d(u, v), inst->metric->d(u, v));
    }
  }

  // Past the cap the matrix is never built (a ring keeps this cheap).
  Rng rng(3);
  const auto big = std::make_shared<const Digraph>(
      make_family(Family::kRing, kDenseMetricAutoThreshold + 1, 4, rng)
          .freeze());
  const auto beyond = make_roundtrip_metric(big, MetricMode::kAuto);
  EXPECT_EQ(&beyond->whole_levels(), beyond.get());
}

// Concurrent first calls build one matrix, and d/r racing the build answer
// exactly, from rows and point-to-point searches or from the matrix (TSAN
// watches this test in CI).
TEST(AutoMetric, ConcurrentWholeLevelsCallsShareOneMatrix) {
  const auto inst = shared_instance(Family::kScaleFree, 96, 8, 23);
  const auto autom = make_roundtrip_metric(
      std::make_shared<const Digraph>(inst->graph), MetricMode::kAuto, 1);
  constexpr int kThreads = 4;
  std::vector<const RoundtripMetric*> seen(kThreads, nullptr);
  std::vector<std::int64_t> wrong(kThreads, 0);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (NodeId u = static_cast<NodeId>(t); u < inst->n(); u += kThreads) {
        for (NodeId v = 0; v < inst->n(); v += 3) {
          wrong[static_cast<std::size_t>(t)] +=
              autom->r(u, v) != inst->metric->r(u, v) ||
              autom->d(u, v) != inst->metric->d(u, v);
        }
        if (u == t + 2 * kThreads) {
          seen[static_cast<std::size_t>(t)] = &autom->whole_levels();
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(wrong[static_cast<std::size_t>(t)], 0) << "thread " << t;
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], &autom->whole_levels());
  }
}

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
  for (const Family family : {Family::kRandom, Family::kGrid, Family::kRing,
                              Family::kScaleFree}) {
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

// kAuto changes no bytes: a build on the auto-mode metric (sparse rows,
// with the matrix materialised only for the cover schemes) equals the build
// on the dense metric, for every registered scheme on all five families.
class AutoSchemeDifferentialTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(AutoSchemeDifferentialTest, SnapshotBytesMatchDenseBuild) {
  const std::string scheme_name = GetParam();
  for (const Family family : {Family::kRandom, Family::kGrid, Family::kRing,
                              Family::kScaleFree, Family::kBidirected}) {
    const auto inst = shared_instance(family, 96, 6, 37);
    const auto graph = std::make_shared<const Digraph>(inst->graph);
    const BuildContext dense_ctx =
        BuildContext::wrap(graph, inst->metric, inst->names, 29);
    const BuildContext auto_ctx = BuildContext::wrap(
        graph, make_roundtrip_metric(graph, MetricMode::kAuto), inst->names,
        29);
    EXPECT_EQ(scheme_snapshot_bytes(scheme_name, dense_ctx),
              scheme_snapshot_bytes(scheme_name, auto_ctx))
        << scheme_name << " on " << family_name(family)
        << ": auto-metric build diverged from the dense build";
  }
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, AutoSchemeDifferentialTest,
                         ::testing::ValuesIn(SchemeRegistry::global().names()),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (auto& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(SparseMetricHint, PreparedNeighborhoodsMatchUnpreparedAnswers) {
  // Regression for the neighborhood budget ladder: prepare_neighborhoods
  // publishes a pilot radius that redirects the count search's probe budgets
  // (one near-critical probe instead of a doubling ladder whose overshoot
  // budgets explore near-whole-graph one-directional balls).  The hint is a
  // pure performance channel: every neighborhood prefix, distance, and ball
  // must be identical to a metric that never saw the hint, including after
  // earlier far-reaching queries (the bench's shared-metric shape).
  const NodeId n = 512;
  const auto inst = shared_instance(Family::kRandom, n, 8, 21);
  const auto graph = std::make_shared<const Digraph>(inst->graph);
  const SparseRoundtripMetric hinted(graph);
  const SparseRoundtripMetric plain(graph);
  const NodeId q = static_cast<NodeId>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  // Reach a few balls out to a far node, the way earlier ball queries do
  // before the hood pass.
  for (NodeId v = 0; v < n; v += 97) {
    (void)hinted.ball(v, hinted.r(v, (v + n / 2) % n));
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
  // The sparse metric adds concurrent searches and roundtrip_row sweeps
  // under the builder threads, each on its own thread-local scratch (TSAN
  // watches this instantiation in CI).
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
