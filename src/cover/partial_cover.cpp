#include "cover/partial_cover.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rtr {

PartialCoverResult partial_cover(std::span<const NodeId> seeds,
                                 const NodeSets& clusters,
                                 const NodeSets& containing,
                                 const std::vector<char>& active, NodeId n,
                                 int k) {
  if (k <= 1) throw std::invalid_argument("partial_cover: k > 1 required");
  const std::int32_t cluster_count = clusters.count();
  if (seeds.size() != static_cast<std::size_t>(cluster_count) ||
      active.size() != static_cast<std::size_t>(cluster_count)) {
    throw std::invalid_argument(
        "partial_cover: one seed and one active flag per cluster");
  }
  // An inverse index lists every membership once, under its node.
  if (containing.count() != n ||
      containing.members.size() != clusters.members.size()) {
    throw std::invalid_argument(
        "partial_cover: containing is not the clusters' inverse index");
  }
  for (NodeId v : clusters.members) {
    if (v < 0 || v >= n) {
      throw std::invalid_argument("partial_cover: member out of [0, n)");
    }
  }
  for (std::int32_t c : containing.members) {
    if (c < 0 || c >= cluster_count) {
      throw std::invalid_argument("partial_cover: cluster id out of range");
    }
  }
  PartialCoverResult result;

  const std::int64_t active_count =
      std::count(active.begin(), active.end(), char{1});
  if (active_count == 0) return result;

  // The growth threshold |R|^{1/k}: |R| is the size of the collection this
  // invocation received (the active set).
  const double r_pow = std::pow(static_cast<double>(active_count), 1.0 / k);

  // A cluster is taken once a batch's Z holds it; clusters inactive at entry
  // start taken, so growth through `containing` skips them too.
  std::vector<char> taken(static_cast<std::size_t>(cluster_count));
  for (std::int32_t c = 0; c < cluster_count; ++c) {
    taken[static_cast<std::size_t>(c)] =
        active[static_cast<std::size_t>(c)] ? 0 : 1;
  }
  std::vector<char> node_in_z(static_cast<std::size_t>(n), 0);

  std::int32_t next_seed_scan = 0;
  while (true) {
    // Select the lowest-index active cluster as S_0 (deterministic stand-in
    // for the paper's "arbitrary").
    while (next_seed_scan < cluster_count &&
           taken[static_cast<std::size_t>(next_seed_scan)]) {
      ++next_seed_scan;
    }
    if (next_seed_scan >= cluster_count) break;
    const std::int32_t s0 = next_seed_scan;

    // Z as cluster-index list + node set, grown incrementally.  `frontier`
    // holds nodes whose cluster lists have not been scanned yet.
    std::vector<std::int32_t> z_clusters{s0};
    taken[static_cast<std::size_t>(s0)] = 1;
    std::vector<NodeId> z_nodes;
    std::vector<NodeId> frontier;
    for (NodeId v : clusters[s0]) {
      if (!node_in_z[static_cast<std::size_t>(v)]) {
        node_in_z[static_cast<std::size_t>(v)] = 1;
        z_nodes.push_back(v);
        frontier.push_back(v);
      }
    }

    std::size_t y_cluster_count = 0;  // |Y| after "Y <- Z"
    std::size_t y_node_count = 0;
    while (true) {
      // Y <- Z (record counts; the vertex set Y is z_nodes[0..y_node_count)).
      y_cluster_count = z_clusters.size();
      y_node_count = z_nodes.size();
      // Z <- clusters intersecting Y; grow node set accordingly.
      std::vector<NodeId> new_frontier;
      for (NodeId v : frontier) {
        for (std::int32_t c : containing[v]) {
          if (taken[static_cast<std::size_t>(c)]) continue;
          taken[static_cast<std::size_t>(c)] = 1;
          z_clusters.push_back(c);
          for (NodeId w : clusters[c]) {
            if (!node_in_z[static_cast<std::size_t>(w)]) {
              node_in_z[static_cast<std::size_t>(w)] = 1;
              z_nodes.push_back(w);
              new_frontier.push_back(w);
            }
          }
        }
      }
      frontier = std::move(new_frontier);
      if (static_cast<double>(z_clusters.size()) <=
          r_pow * static_cast<double>(y_cluster_count)) {
        break;
      }
    }

    // Emit Y = first y_cluster_count clusters of Z merged together.
    MergedCluster merged;
    merged.center = seeds[static_cast<std::size_t>(s0)];
    merged.members.assign(z_nodes.begin(),
                          z_nodes.begin() + static_cast<std::ptrdiff_t>(y_node_count));
    std::sort(merged.members.begin(), merged.members.end());
    merged.absorbed.assign(
        z_clusters.begin(),
        z_clusters.begin() + static_cast<std::ptrdiff_t>(y_cluster_count));
    for (std::int32_t c : merged.absorbed) result.covered.push_back(c);
    for (std::size_t i = y_cluster_count; i < z_clusters.size(); ++i) {
      result.consumed.push_back(z_clusters[i]);
    }
    result.merged.push_back(std::move(merged));

    // U <- U \ Z: every cluster of Z stays taken.  Reset the node markers
    // touched by this batch.
    for (NodeId v : z_nodes) node_in_z[static_cast<std::size_t>(v)] = 0;
  }
  return result;
}

}  // namespace rtr
