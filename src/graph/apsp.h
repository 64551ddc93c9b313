// All-pairs shortest path distances.
//
// The roundtrip metric r(u,v) = d(u,v) + d(v,u) (Section 1.1) is derived from
// this matrix.  Preprocessing in the paper is centralized (Section 6 leaves
// distributed construction open), so a full APSP pass is the intended
// substrate: n Dijkstra runs, O(n m log n) total.
#ifndef RTR_GRAPH_APSP_H
#define RTR_GRAPH_APSP_H

#include <span>
#include <vector>

#include "graph/digraph.h"

namespace rtr {

/// Dense n x n distance matrix.
class DistMatrix {
 public:
  DistMatrix() = default;
  DistMatrix(NodeId n, Dist fill);

  [[nodiscard]] NodeId size() const { return n_; }

  [[nodiscard]] Dist at(NodeId u, NodeId v) const {
    return data_[static_cast<std::size_t>(u) * static_cast<std::size_t>(n_) +
                 static_cast<std::size_t>(v)];
  }
  void set(NodeId u, NodeId v, Dist d) {
    data_[static_cast<std::size_t>(u) * static_cast<std::size_t>(n_) +
          static_cast<std::size_t>(v)] = d;
  }

  /// Row u as contiguous storage (d(u, *)); lets a Dijkstra run write its
  /// distance array straight into the matrix with no intermediate copy.
  [[nodiscard]] std::span<Dist> row(NodeId u) {
    return {data_.data() +
                static_cast<std::size_t>(u) * static_cast<std::size_t>(n_),
            static_cast<std::size_t>(n_)};
  }
  [[nodiscard]] std::span<const Dist> row(NodeId u) const {
    return {data_.data() +
                static_cast<std::size_t>(u) * static_cast<std::size_t>(n_),
            static_cast<std::size_t>(n_)};
  }

 private:
  NodeId n_ = 0;
  std::vector<Dist> data_;
};

/// APSP via n Dijkstra runs.  Strong connectivity is NOT assumed here;
/// unreachable pairs get kInfDist (callers that need strong connectivity
/// validate separately).
///
/// Source rows are independent, so they are fanned out across a std::thread
/// pool: each worker owns a DijkstraWorkspace and claims sources from a
/// shared atomic counter, writing distances straight into its matrix row.
/// Every row is computed by the identical per-source routine regardless of
/// which thread claims it, so the result is the same for any thread count
/// (pinned by test against dijkstra_distances_reference, including under
/// TSAN).
///
/// `threads` <= 0 resolves via default_apsp_threads(); the calling thread
/// is one of the workers, so 1 runs the loop inline with no thread spawned.
[[nodiscard]] DistMatrix all_pairs_shortest_paths(const Digraph& g,
                                                  int threads = 0);

/// Resolves a requested thread count: values >= 1 pass through; <= 0 means
/// the process-wide default (set_default_apsp_threads), which itself falls
/// back to std::thread::hardware_concurrency().
[[nodiscard]] int resolve_apsp_threads(int requested);

/// Process-wide APSP thread default, consumed when callers pass threads <= 0
/// (RoundtripMetric construction, EpochManager rebuilds).  0 restores the
/// hardware-concurrency default.  Wired to the tools' --threads flag.
void set_default_apsp_threads(int threads);
[[nodiscard]] int default_apsp_threads();

/// APSP via Floyd-Warshall; O(n^3).  Test oracle for the Dijkstra-based path.
[[nodiscard]] DistMatrix floyd_warshall(const Digraph& g);

}  // namespace rtr

#endif  // RTR_GRAPH_APSP_H
