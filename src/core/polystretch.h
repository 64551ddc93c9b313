// Algorithm PolynomialStretch: the TINN scheme with a polynomial
// stretch/space tradeoff (paper Section 4, pseudocode Figs. 9 and 11).
//
// For every level i = 1..ceil(log2 RTDiam) a Theorem 13 double-tree cover at
// radius 2^i assigns each node a *home* double-tree spanning its whole ball
// N-hat^{2^i}(v).  Within a double tree, every member u stores for each
// (prefix length j, next digit tau) the tree-routing label of the nearest
// member v with sigma^j(v) = sigma^j(u) and digit j of v equal to tau -- a
// per-tree prefix-matching dictionary keyed by u's own name.
//
// Routing from s to t tries s's home tree level by level: inside tree C the
// packet hops between members whose names match ever longer prefixes of t,
// each hop routed through the tree's center (up the in-tree, down the
// out-tree).  If some waypoint lacks an extending entry, the packet returns
// to s (detectable failure: prefixes only grow) and s escalates one level.
// Once 2^i >= r(s,t), t itself lies in s's home tree so every extension
// exists and the chain reaches t in <= k hops; the trip at that level costs
// at most (k+1) roundtrips to the center, each <= RTHeight <= (2k-1) 2^i,
// and summing the geometric levels gives stretch <= 8k^2 + 4k - 4 (§4.3).
#ifndef RTR_CORE_POLYSTRETCH_H
#define RTR_CORE_POLYSTRETCH_H

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/names.h"
#include "dict/alphabet.h"
#include "net/simulator.h"
#include "rtz/handshake.h"
#include "util/flat_vec.h"

namespace rtr {

class PolyStretchScheme {
 public:
  struct Options {
    int k = 3;  // tradeoff parameter (>= 2)
    /// Construction fan-out (cover trees + per-member dictionaries); <= 0
    /// resolves the process default.  Bit-identical for any value.
    int threads = 0;
  };

  PolyStretchScheme(const Digraph& g, const RoundtripMetric& metric,
                    const NameAssignment& names, Options options);
  PolyStretchScheme(const Digraph& g, const RoundtripMetric& metric,
                    const NameAssignment& names)
      : PolyStretchScheme(g, metric, names, Options{}) {}

  /// Appends the cover table, the per-membership labels and dictionaries,
  /// and a meta section as typed arena sections under `prefix`.
  void save_arena(ArenaWriter& w, const std::string& prefix) const;

  /// Rebuilds a scheme whose tables are zero-copy views into an arena;
  /// `names` are the snapshot's own name sections.  Self-contained:
  /// forwarding never consults the graph.
  [[nodiscard]] static PolyStretchScheme from_arena(
      const ArenaView& a, const std::string& prefix,
      const NameAssignment& names);

  enum class Mode : std::uint8_t { kNew, kEnroute, kReturn };

  struct Header {
    Mode mode = Mode::kNew;
    NodeName dest = kNoNode;
    NodeName src = kNoNode;
    bool found = false;          // set at the destination (Fig. 11)
    std::int32_t level = 0;      // current level index (0-based)
    TreeRef tree;                // s's home double-tree at this level
    TreeLabel src_label;         // s's label in that tree (SourceLabel)
    NodeName waypoint = kNoNode; // head of the in-flight within-tree trip
    DtLeg leg;
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
  [[nodiscard]] std::string name() const {
    return "polystretch(k=" + std::to_string(alphabet_.k()) + ")";
  }

  /// 8k^2 + 4k - 4 (Section 4.3).
  [[nodiscard]] double stretch_bound() const {
    const double k = alphabet_.k();
    return 8 * k * k + 4 * k - 4;
  }

  [[nodiscard]] const Alphabet& alphabet() const { return alphabet_; }
  /// The per-node cover-tree state forwarding reads; the per-tree storage
  /// below is indexed by its memberships.
  [[nodiscard]] const CoverTable& cover() const { return cover_; }

  /// Auditable: delegates to the naming, alphabet, and cover table (and,
  /// for a built scheme, the cover hierarchy it came from), then checks the
  /// per-membership storage is framed by the cover table, with in-range
  /// waypoint names in every dictionary entry and strictly ascending keys
  /// in every dictionary row.
  void audit(AuditReport& report) const;

 private:
  friend struct AuditTestPeer;

  /// Arena-load path: from_arena fills the tables.
  PolyStretchScheme(const NameAssignment& names, Alphabet alphabet)
      : names_(names), alphabet_(std::move(alphabet)) {}

  /// NextNode at the current node within h.tree (Fig. 9 / Section 4.2):
  /// extend the matched prefix or fall back to the source.
  [[nodiscard]] Decision next_hop(NodeId at, Header& h) const;

  /// Start the next attempt at the source: pick home tree for h.level.
  [[nodiscard]] Decision start_level(NodeId at, Header& h) const;

  NameAssignment names_;
  Alphabet alphabet_;
  /// Build-time only; kept on a built scheme so its audit can check the
  /// cover table against it.  Null when mapped.
  std::shared_ptr<const CoverHierarchy> hierarchy_;
  CoverTable cover_;
  // Per membership m of the cover table (node u in tree C_i):
  PackedLabels<std::int32_t> own_label_;  // TreeR(C_i, u)
  // Dictionary rows dict_off_[m] .. dict_off_[m+1], sorted by key j * q + tau
  // (keys use u's own prefixes, so j is implicit in the match; see build):
  // the nearest member extending u's j-digit prefix with digit tau, and its
  // label TreeR(C_i, node).
  FlatVec<std::int64_t> dict_off_;  // cover_.size() + 1
  FlatVec<std::uint16_t> dict_key_;
  FlatVec<NodeName> dict_node_;
  PackedLabels<std::int32_t> dict_label_;
  /// Keepalive when the arrays are views into a mapped arena.
  std::shared_ptr<const ArenaStorage> arena_;
  std::int64_t node_space_ = 0;
  std::int64_t port_space_ = 0;
};

}  // namespace rtr

#endif  // RTR_CORE_POLYSTRETCH_H
