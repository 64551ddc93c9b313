// The non-compact comparator: classical shortest-path routing with a full
// next-hop table (one entry per destination name) at every node.
//
// Roundtrip stretch is exactly 1 -- the packet follows a shortest path out
// and a shortest path back -- at the cost of Theta(n log n) bits per node.
// This is the baseline row of the Fig. 1 experiment, the oracle the tests
// compare simulated path lengths against, and the Theorem 15 foil (stretch
// below 2 is information-theoretically impossible with o(n) tables, and here
// is what the tables cost when you refuse to compress).
#ifndef RTR_BASELINE_FULL_TABLE_H
#define RTR_BASELINE_FULL_TABLE_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/names.h"
#include "net/simulator.h"
#include "rt/metric.h"
#include "util/flat_vec.h"

namespace rtr {

struct ChurnDelta;  // graph/churn_delta.h
class ArenaStorage;  // io/arena.h
class ArenaView;
class ArenaWriter;

class FullTableScheme {
 public:
  FullTableScheme(const Digraph& g, const NameAssignment& names);

  /// Incremental repair (ROADMAP: incremental epoch repair under churn):
  /// produces the scheme the build constructor would produce on `new_graph`,
  /// but recomputes an in-tree only for destinations some changed edge is
  /// tight toward (rt/repair_oracle.h); every other destination's next-hop
  /// column is copied from `old_scheme` verbatim.  Returns nullptr when the
  /// node count or naming changed, or the new graph is not strongly
  /// connected; callers fall back to a full build.
  [[nodiscard]] static std::shared_ptr<const FullTableScheme> repair(
      const FullTableScheme& old_scheme, const Digraph& old_graph,
      const Digraph& new_graph, const NameAssignment& names,
      const ChurnDelta& delta);

  /// Appends the next-hop rows as one flat section plus a meta section
  /// under `prefix`.
  void save_arena(ArenaWriter& w, const std::string& prefix) const;

  /// Rebuilds a scheme whose rows are a zero-copy view into an arena;
  /// `names` are the snapshot's own name sections.
  [[nodiscard]] static FullTableScheme from_arena(const ArenaView& a,
                                                  const std::string& prefix,
                                                  const NameAssignment& names);

  enum class Mode : std::uint8_t { kNew, kOutbound, kReturn, kInbound };

  struct Header {
    Mode mode = Mode::kNew;
    NodeName dest = kNoNode;
    NodeName src = kNoNode;
  };

  [[nodiscard]] Header make_packet(NodeName dest) const {
    Header h;
    h.dest = dest;
    return h;
  }
  void prepare_return(Header& h) const { h.mode = Mode::kReturn; }
  [[nodiscard]] Decision forward(NodeId at, Header& h) const;
  [[nodiscard]] std::int64_t header_bits(const Header& h) const;

  [[nodiscard]] TableStats table_stats() const;
  [[nodiscard]] std::string name() const { return "full-table(stretch1)"; }

  /// Shortest path out and back: stretch exactly 1.
  [[nodiscard]] double stretch_bound() const { return 1.0; }

  /// Auditable: a full row per node (one next-hop port per destination
  /// name), every non-diagonal entry a real port, plus the name bijection.
  void audit(AuditReport& report) const;

 private:
  friend struct AuditTestPeer;
  /// Repair and arena paths: members are filled in after construction.
  explicit FullTableScheme(const NameAssignment& names) : names_(names) {}

  [[nodiscard]] Port next_port(NodeId u, NodeName dest) const {
    return next_port_[static_cast<std::size_t>(u) *
                          static_cast<std::size_t>(names_.node_count()) +
                      static_cast<std::size_t>(dest)];
  }

  NameAssignment names_;
  // Row-major n x n: entry (u, dest_name) is the port of the first edge on
  // a shortest u->dest path (kNoPort on the diagonal).
  FlatVec<Port> next_port_;
  /// Keepalive when the rows are a view into a mapped arena.
  std::shared_ptr<const ArenaStorage> arena_;
  std::int64_t node_space_ = 0;
  std::int64_t port_space_ = 0;
};

}  // namespace rtr

#endif  // RTR_BASELINE_FULL_TABLE_H
