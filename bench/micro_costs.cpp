// E12 -- construction/forwarding micro-costs (google-benchmark).
//
// The paper's Section 6 notes preprocessing is polynomial (APSP-dominated)
// and leaves efficient distributed setup open; these microbenchmarks pin
// down the centralized costs: APSP, cover construction, scheme builds, and
// the per-hop forwarding decision.
#include <benchmark/benchmark.h>

#include <memory>

#include "core/exstretch.h"
#include "core/names.h"
#include "core/polystretch.h"
#include "core/stretch6.h"
#include "cover/hierarchy.h"
#include "graph/apsp.h"
#include "graph/generators.h"
#include "net/simulator.h"
#include "rt/metric.h"
#include "rtz/rtz3_scheme.h"

namespace rtr {
namespace {

Digraph bench_graph(NodeId n, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder g = random_strongly_connected(n, 4.0, 8, rng);
  g.assign_adversarial_ports(rng);
  return g.freeze();
}

void BM_Apsp(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Digraph g = bench_graph(n, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(all_pairs_shortest_paths(g));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_Apsp)->Arg(64)->Arg(128)->Arg(256)->Complexity();

void BM_SparseCoverBuild(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Digraph g = bench_graph(n, 2);
  DenseRoundtripMetric metric(g);
  const Dist d = metric.rt_diameter() / 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_sparse_cover(roundtrip_balls(metric, d), 3));
  }
}
BENCHMARK(BM_SparseCoverBuild)->Arg(64)->Arg(128)->Arg(256);

void BM_Rtz3Build(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Digraph g = bench_graph(n, 3);
  DenseRoundtripMetric metric(g);
  auto names = NameAssignment::identity(n);
  for (auto _ : state) {
    Rng rng(4);
    Rtz3Scheme scheme(g, metric, names, rng);
    benchmark::DoNotOptimize(scheme.table_stats());
  }
}
BENCHMARK(BM_Rtz3Build)->Arg(64)->Arg(128);

void BM_Stretch6Build(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Digraph g = bench_graph(n, 5);
  DenseRoundtripMetric metric(g);
  auto names = NameAssignment::identity(n);
  for (auto _ : state) {
    Rng rng(6);
    Stretch6Scheme scheme(g, metric, names, rng);
    benchmark::DoNotOptimize(scheme.table_stats());
  }
}
BENCHMARK(BM_Stretch6Build)->Arg(64)->Arg(128);

void BM_Stretch6Roundtrip(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Digraph g = bench_graph(n, 7);
  DenseRoundtripMetric metric(g);
  auto names = NameAssignment::identity(n);
  Rng rng(8);
  Stretch6Scheme scheme(g, metric, names, rng);
  NodeId s = 0;
  for (auto _ : state) {
    NodeId t = static_cast<NodeId>((s + 17) % n);
    benchmark::DoNotOptimize(
        simulate_roundtrip(g, scheme, s, t, names.name_of(t)));
    s = static_cast<NodeId>((s + 1) % n);
  }
}
BENCHMARK(BM_Stretch6Roundtrip)->Arg(128)->Arg(256);

void BM_PolyStretchRoundtrip(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Digraph g = bench_graph(n, 9);
  DenseRoundtripMetric metric(g);
  auto names = NameAssignment::identity(n);
  PolyStretchScheme scheme(g, metric, names);
  NodeId s = 0;
  for (auto _ : state) {
    NodeId t = static_cast<NodeId>((s + 13) % n);
    benchmark::DoNotOptimize(
        simulate_roundtrip(g, scheme, s, t, names.name_of(t)));
    s = static_cast<NodeId>((s + 1) % n);
  }
}
BENCHMARK(BM_PolyStretchRoundtrip)->Arg(128);

}  // namespace
}  // namespace rtr

BENCHMARK_MAIN();
