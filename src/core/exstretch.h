// Algorithm ExStretch: the generalized TINN scheme with an exponential
// stretch/space tradeoff (paper Section 3, pseudocode Figs. 4 and 6).
//
// Names are written in base q = ceil(n^{1/k}); blocks group names by their
// (k-1)-digit prefix; Lemma 4 distributes O(log n) blocks per node so that
// every neighborhood N_i(v) holds every realizable i-digit prefix.  Each node
// u stores, per held block and per (level i, next digit tau), the *nearest*
// node (by roundtrip distance) holding a block whose prefix extends the
// match, together with the handshake label R2(u, that node); plus R2(u, v)
// for its immediate neighborhood N_1(u).
//
// A packet for t visits waypoints s = v_0, v_1, ..., v_k = t whose held
// blocks match ever longer prefixes of t, pushing each leg's R2 label onto a
// header stack; the acknowledgment pops the stack to retrace waypoints
// (Fig. 4's second loop).  Lemma 8: r(v_i, v_{i+1}) <= 2^i r(s, t); with our
// R2 legs costing at most beta(k) = 4(2k-1) times their pair's roundtrip
// distance (our substitution for the paper's 2k+eps spanner), the
// total roundtrip is <= beta(k) (2^k - 1) r(s,t).
#ifndef RTR_CORE_EXSTRETCH_H
#define RTR_CORE_EXSTRETCH_H

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/names.h"
#include "dict/alphabet.h"
#include "dict/block_assignment.h"
#include "net/simulator.h"
#include "rtz/handshake.h"
#include "util/flat_vec.h"
#include "util/inline_vec.h"

namespace rtr {

class ExStretchScheme {
 public:
  struct Options {
    int k = 3;  // tradeoff parameter (>= 2)
    BlockAssignmentOptions blocks;
    /// Construction fan-out (cover trees, neighborhoods, per-node tables);
    /// <= 0 resolves the process default.  Bit-identical for any value.
    int threads = 0;
  };

  ExStretchScheme(const Digraph& g, const RoundtripMetric& metric,
                  const NameAssignment& names, Rng& rng, Options options);
  ExStretchScheme(const Digraph& g, const RoundtripMetric& metric,
                  const NameAssignment& names, Rng& rng)
      : ExStretchScheme(g, metric, names, rng, Options{}) {}

  /// Appends the cover table, both dictionaries, and a meta section as
  /// typed arena sections under `prefix`.
  void save_arena(ArenaWriter& w, const std::string& prefix) const;

  /// Rebuilds a scheme whose tables are zero-copy views into an arena;
  /// `names` are the snapshot's own name sections.  Self-contained:
  /// forwarding never consults the graph.
  [[nodiscard]] static ExStretchScheme from_arena(const ArenaView& a,
                                                  const std::string& prefix,
                                                  const NameAssignment& names);

  enum class Mode : std::uint8_t { kNew, kOutbound, kReturn, kInbound };

  /// One pushed leg: enough to retrace it backwards (Fig. 4's pop loop).
  struct StackEntry {
    TreeRef tree;
    TreeLabel back_label;  // label of the leg's tail in that tree
  };

  struct Header {
    Mode mode = Mode::kNew;
    NodeName dest = kNoNode;
    NodeName src = kNoNode;
    std::int32_t hop = 0;          // index i of the current waypoint v_i
    NodeName waypoint = kNoNode;   // head of the in-flight leg
    // WaypointStack of Fig. 6: one entry per launched leg, at most k.
    InlineVec<StackEntry, Alphabet::kMaxK> stack;
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
    return "exstretch(k=" + std::to_string(alphabet_.k()) + ")";
  }

  /// The end-to-end stretch bound with our substituted R2 provider:
  /// beta(k) * (2^k - 1).
  [[nodiscard]] double stretch_bound() const;

  [[nodiscard]] const Alphabet& alphabet() const { return alphabet_; }
  /// The per-node cover-tree state forwarding reads.
  [[nodiscard]] const CoverTable& cover() const { return cover_; }
  [[nodiscard]] const BlockAssignment& block_assignment() const {
    return assignment_;
  }

  /// Auditable: delegates to the naming, alphabet, cover table (and, for a
  /// built scheme, the cover hierarchy it came from), and block assignment,
  /// then checks every per-node dictionary key decodes to a valid (level,
  /// prefix) pair with an in-range waypoint name, and that every row of
  /// both tables has strictly ascending keys.
  void audit(AuditReport& report) const;

 private:
  friend struct AuditTestPeer;

  /// Arena-load path: from_arena fills the tables.
  ExStretchScheme(const NameAssignment& names, Alphabet alphabet)
      : names_(names), alphabet_(std::move(alphabet)) {}

  [[nodiscard]] std::int64_t pack(int i, PrefixValue p) const {
    return static_cast<std::int64_t>(i) * alphabet_.power(alphabet_.k()) + p;
  }

  /// Local waypoint advancement at the current waypoint node; either sets up
  /// the next leg (returns its first port) or concludes delivery.
  [[nodiscard]] Decision advance(NodeId at, Header& h) const;

  /// Entry index of `key` in node v's sorted CSR row, or -1.
  template <typename K>
  [[nodiscard]] static std::int64_t find_in_row(const FlatVec<std::int64_t>& off,
                                                const FlatVec<K>& keys,
                                                NodeId v, K key) {
    const K* base = keys.data();
    const K* first = base + off[static_cast<std::size_t>(v)];
    const K* last = base + off[static_cast<std::size_t>(v) + 1];
    const K* it = std::lower_bound(first, last, key);
    return it != last && *it == key ? it - base : -1;
  }

  NameAssignment names_;
  Alphabet alphabet_;
  /// Build-time only (R2 labels are minted from it); kept on a built scheme
  /// so its audit can check the cover table against it.  Null when mapped.
  std::shared_ptr<const CoverHierarchy> hierarchy_;
  BlockAssignment assignment_;
  CoverTable cover_;
  // (2): R2(u, v) for v in N_1(u), CSR over nodes keyed by v's name.
  FlatVec<std::int64_t> nbr_off_;  // n + 1
  FlatVec<NodeName> nbr_key_;
  PackedR2Labels nbr_r2_;
  // (3a)+(3b): CSR over nodes keyed by pack(level i, value of the
  // (i+1)-digit target prefix); entry = nearest holder of a matching block
  // and R2 to it (a default label when the holder is the node itself).
  FlatVec<std::int64_t> dict_off_;  // n + 1
  FlatVec<std::int32_t> dict_key_;
  FlatVec<NodeName> dict_node_;
  PackedR2Labels dict_r2_;
  /// Keepalive when the arrays are views into a mapped arena.
  std::shared_ptr<const ArenaStorage> arena_;
  std::int64_t node_space_ = 0;
  std::int64_t port_space_ = 0;
};

}  // namespace rtr

#endif  // RTR_CORE_EXSTRETCH_H
