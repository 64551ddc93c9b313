#include "baseline/full_table.h"

#include <memory>
#include <stdexcept>
#include <string>

#include "audit/audit.h"
#include "graph/dijkstra.h"
#include "io/arena.h"
#include "rt/repair_oracle.h"
#include "util/bit_cost.h"

namespace rtr {

void FullTableScheme::save_arena(ArenaWriter& w,
                                 const std::string& prefix) const {
  w.add(prefix + "next_port", next_port_);
  SnapshotWriter meta;
  meta.i64(node_space_);
  meta.i64(port_space_);
  w.add_bytes(prefix + "meta", meta.bytes().data(), meta.size());
}

FullTableScheme FullTableScheme::from_arena(const ArenaView& a,
                                            const std::string& prefix,
                                            const NameAssignment& names) {
  FullTableScheme s(names);
  const auto n = static_cast<std::uint64_t>(names.node_count());
  s.next_port_ = a.vec<Port>(prefix + "next_port", n * n);
  SnapshotReader meta = a.reader(prefix + "meta");
  s.node_space_ = meta.i64();
  s.port_space_ = meta.i64();
  meta.expect_exhausted("fulltable arena meta");
  s.arena_ = a.storage();
  return s;
}

FullTableScheme::FullTableScheme(const Digraph& g, const NameAssignment& names)
    : names_(names),
      node_space_(g.node_count()),
      port_space_(g.port_space()) {
  const NodeId n = g.node_count();
  const auto nz = static_cast<std::size_t>(n);
  const Digraph reversed = g.reversed();
  std::vector<Port> next_port(nz * nz, kNoPort);
  // One in-tree per destination: every node's next hop toward it.
  DijkstraWorkspace ws;
  for (NodeId dest = 0; dest < n; ++dest) {
    InTree in = dijkstra_in_tree(g, reversed, dest, ws);
    const NodeName dest_name = names_.name_of(dest);
    for (NodeId v = 0; v < n; ++v) {
      if (v == dest) continue;
      if (in.next_port[static_cast<std::size_t>(v)] == kNoPort) {
        throw std::invalid_argument("FullTableScheme: graph not strongly connected");
      }
      next_port[static_cast<std::size_t>(v) * nz +
                static_cast<std::size_t>(dest_name)] =
          in.next_port[static_cast<std::size_t>(v)];
    }
  }
  next_port_ = std::move(next_port);
}

std::shared_ptr<const FullTableScheme> FullTableScheme::repair(
    const FullTableScheme& old_scheme, const Digraph& old_graph,
    const Digraph& new_graph, const NameAssignment& names,
    const ChurnDelta& delta) {
  const NodeId n = new_graph.node_count();
  const auto nz = static_cast<std::size_t>(n);
  if (old_graph.node_count() != n || names.node_count() != n ||
      old_scheme.names_.node_count() != n ||
      old_scheme.next_port_.size() != nz * nz) {
    return nullptr;
  }
  for (NodeId v = 0; v < n; ++v) {
    if (names.name_of(v) != old_scheme.names_.name_of(v)) return nullptr;
  }

  const std::vector<char> dirty =
      dirty_in_tree_destinations(old_graph, new_graph, delta);

  std::shared_ptr<FullTableScheme> s(new FullTableScheme(names));
  s->node_space_ = n;
  s->port_space_ = new_graph.port_space();
  std::vector<Port> next_port(nz * nz, kNoPort);
  const Digraph reversed = new_graph.reversed();
  DijkstraWorkspace ws;
  for (NodeId dest = 0; dest < n; ++dest) {
    const auto dn = static_cast<std::size_t>(names.name_of(dest));
    if (dirty[static_cast<std::size_t>(dest)] == 0) {
      // Every changed edge is strictly slack toward dest on its own sides:
      // the in-tree -- hence this next-hop column -- is provably unchanged.
      for (std::size_t v = 0; v < nz; ++v) {
        next_port[v * nz + dn] = old_scheme.next_port_[v * nz + dn];
      }
      continue;
    }
    InTree in = dijkstra_in_tree(new_graph, reversed, dest, ws);
    for (NodeId v = 0; v < n; ++v) {
      if (v == dest) continue;
      if (in.next_port[static_cast<std::size_t>(v)] == kNoPort) {
        return nullptr;  // churn broke strong connectivity; rebuild decides
      }
      next_port[static_cast<std::size_t>(v) * nz + dn] =
          in.next_port[static_cast<std::size_t>(v)];
    }
  }
  s->next_port_ = std::move(next_port);
  return s;
}

Decision FullTableScheme::forward(NodeId at, Header& h) const {
  const NodeName at_name = names_.name_of(at);
  switch (h.mode) {
    case Mode::kNew:
      h.src = at_name;
      h.mode = Mode::kOutbound;
      [[fallthrough]];
    case Mode::kOutbound: {
      if (at_name == h.dest) return Decision::deliver_here();
      return Decision::forward_on(next_port(at, h.dest));
    }
    case Mode::kReturn:
      h.mode = Mode::kInbound;
      [[fallthrough]];
    case Mode::kInbound: {
      if (at_name == h.src) return Decision::deliver_here();
      return Decision::forward_on(next_port(at, h.src));
    }
  }
  throw std::logic_error("full-table: bad mode");
}

std::int64_t FullTableScheme::header_bits(const Header& h) const {
  (void)h;
  return 2 + 2 * bits_for(node_space_);
}

void FullTableScheme::audit(AuditReport& report) const {
  auto scope = report.scope("full-table");
  {
    auto names_scope = report.scope("names");
    names_.audit(report);
  }
  const auto n = static_cast<std::size_t>(names_.node_count());
  report.check("tables-sized", next_port_.size() == n * n,
               "one next-hop row per node, one entry per destination name");
  if (next_port_.size() != n * n) return;

  bool rows_ok = true;
  std::string detail;
  for (std::size_t u = 0; rows_ok && u < n; ++u) {
    const Port* row = next_port_.data() + u * n;
    for (std::size_t dest = 0; dest < n; ++dest) {
      const bool self = names_.id_of(static_cast<NodeName>(dest)) ==
                        static_cast<NodeId>(u);
      if (self != (row[dest] == kNoPort)) {
        rows_ok = false;
        detail = "node " + std::to_string(u) + " has " +
                 (self ? "a port toward itself" : "no port toward name " +
                                                      std::to_string(dest));
        break;
      }
    }
  }
  report.check("rows-complete", rows_ok, std::move(detail));
}

TableStats FullTableScheme::table_stats() const {
  const NodeId n = names_.node_count();
  TableStats stats(n);
  const std::int64_t per_entry = bits_for(node_space_) + bits_for(port_space_);
  for (NodeId v = 0; v < n; ++v) {
    stats.add(v, n - 1, (n - 1) * per_entry);
  }
  return stats;
}

}  // namespace rtr
