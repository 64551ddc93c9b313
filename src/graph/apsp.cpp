#include "graph/apsp.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "graph/dijkstra.h"

namespace rtr {

DistMatrix::DistMatrix(NodeId n, Dist fill)
    : n_(n),
      data_(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), fill) {}

namespace {

std::atomic<int> g_default_apsp_threads{0};  // 0: hardware concurrency

}  // namespace

void set_default_apsp_threads(int threads) {
  g_default_apsp_threads.store(threads <= 0 ? 0 : threads,
                               std::memory_order_relaxed);
}

int default_apsp_threads() {
  return g_default_apsp_threads.load(std::memory_order_relaxed);
}

int resolve_apsp_threads(int requested) {
  if (requested >= 1) return requested;
  const int configured = default_apsp_threads();
  if (configured >= 1) return configured;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

DistMatrix all_pairs_shortest_paths(const Digraph& g, int threads) {
  const NodeId n = g.node_count();
  const int workers =
      std::min<int>(resolve_apsp_threads(threads), std::max<NodeId>(1, n));
  DistMatrix m(n, kInfDist);
  // Arena layout for the n-Dijkstra loop: the frozen graph's own flat arc
  // arrays are the CSR, each worker owns one workspace (heap + Dial buckets)
  // shared by all its runs, each run distance-only (no parent arrays),
  // results written directly into the matrix row.  After a worker's first
  // run its loop performs no heap allocation at all.
  //
  // Dynamic source claiming: rows cost wildly different amounts only on
  // degenerate graphs, but an atomic ticket is cheap enough (one RMW per
  // source) that static striping has no advantage.  Rows never overlap, so
  // no synchronization beyond the ticket and the join is needed, and every
  // row is computed by the same deterministic routine whichever worker
  // claims it.  The calling thread is one of the workers, so one worker
  // spawns no thread.
  std::atomic<NodeId> next{0};
  const auto work = [&g, &m, &next, n] {
    DijkstraWorkspace ws;
    for (NodeId src = next.fetch_add(1, std::memory_order_relaxed); src < n;
         src = next.fetch_add(1, std::memory_order_relaxed)) {
      dijkstra_distances_into(g, src, ws, m.row(src));
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers - 1));
  for (int t = 1; t < workers; ++t) pool.emplace_back(work);
  work();
  for (std::thread& t : pool) t.join();
  return m;
}

DistMatrix floyd_warshall(const Digraph& g) {
  const NodeId n = g.node_count();
  DistMatrix m(n, kInfDist);
  for (NodeId v = 0; v < n; ++v) m.set(v, v, 0);
  for (NodeId u = 0; u < n; ++u) {
    for (const Edge& e : g.out_edges(u)) {
      m.set(u, e.to, std::min(m.at(u, e.to), e.weight));
    }
  }
  for (NodeId k = 0; k < n; ++k) {
    for (NodeId i = 0; i < n; ++i) {
      const Dist dik = m.at(i, k);
      if (dik >= kInfDist) continue;
      for (NodeId j = 0; j < n; ++j) {
        const Dist dkj = m.at(k, j);
        if (dkj >= kInfDist) continue;
        if (dik + dkj < m.at(i, j)) m.set(i, j, dik + dkj);
      }
    }
  }
  return m;
}

}  // namespace rtr
