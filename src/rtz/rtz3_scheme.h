// The name-dependent stretch-3 roundtrip routing substrate (paper Lemma 2,
// after Roditty-Thorup-Zwick [35]; implementation notes below).
//
// Construction
//   * Center set A (random sample of ~ sqrt(n ln n) nodes, resampled while
//     ball/cluster sizes exceed their O~(sqrt n) budget; deterministic greedy
//     hitting-set fallback).
//   * Global double tree per center a: InTree(a) gives every node a next-hop
//     port toward a; OutTree(a) carries Lemma 14 tree routing from a.
//   * Per-node ball double tree: Ball(v) = { w : r(v,w) < r(v,A) }; by the
//     closure property (rtz/balls.h) shortest paths between v and ball
//     members stay inside the ball, so in/out trees within the induced ball
//     realize exact distances.  Every ball member stores O(1) words per ball
//     containing it.  Each ball tree is a member-local DoubleTree
//     (cover/double_tree.h): O(|Ball(v)|) words, built in a per-worker
//     workspace without allocating or clearing anything of size n.
//
// Build cost on perfbench's net-serve instance (random n = 4096, weights
// <= 8; 2 workers on a 2.1 GHz Xeon; RTR_RTZ_PHASE_DEBUG, 15 builds): ball
// system (|A| nearest-center sweeps plus one pruned roundtrip ball search
// per node) 161-199 ms, center trees 84-111 ms, ball trees 36-47 ms.
//
// Address (the paper's R3(v)): v's name, its nearest center a_v, and v's
// Lemma 14 label in OutTree(a_v) -- O(log^2 n) bits.
//
// Routing a leg u -> v, given R3(v):
//   case 1: v in Ball(u)   -> descend u's own ball out-tree.    exact d(u,v)
//   case 2: u in Ball(v)   -> climb InTree(Ball(v)) toward v.   exact d(u,v)
//   case 3: otherwise      -> climb to a_v, descend to v:
//             d(u,a_v) + d(a_v,v) <= d(u,v) + r(v,a_v) <= d(u,v) + r(u,v),
//           the last step because u outside Ball(v) means r(v,u) >= r(v,A).
//
// Hence every leg satisfies Lemma 2's inequality p(u,v) <= d(u,v) + r(u,v),
// and a full roundtrip has stretch <= 3.
//
// Storage: every per-node table lives in flat, relocatable CSR arrays behind
// FlatVec (keys packed per node inside one global sorted-key array, POD
// payloads parallel to it, labels split into per-entry DFS numbers plus hop
// ranges over one LightHop array).  A scheme therefore either owns its
// arrays or views them inside a mapped snapshot arena (io/arena.h) with zero
// copying; hot probes binary-search 4-byte key rows -- ~16 keys per cache
// line -- exactly like the former SoA dictionary layout.
#ifndef RTR_RTZ_RTZ3_SCHEME_H
#define RTR_RTZ_RTZ3_SCHEME_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/names.h"
#include "net/simulator.h"
#include "net/table_stats.h"
#include "rt/metric.h"
#include "rtz/balls.h"
#include "treeroute/tree_router.h"
#include "util/flat_vec.h"

namespace rtr {

class ArenaStorage;  // io/arena.h
class ArenaView;
class ArenaWriter;
struct ChurnDelta;   // graph/churn_delta.h

/// The topology-dependent address R3(v).
struct RtzAddress {
  NodeName name = kNoNode;
  std::int32_t center_index = -1;  // index into the scheme's center list
  TreeLabel center_label;          // v's label in OutTree(center)
};

/// Phase of one routing leg.
enum class LegPhase : std::uint8_t {
  kBallDown,    // descending the source's own ball out-tree
  kBallUp,      // climbing the destination's ball in-tree
  kCenterUp,    // climbing toward the destination's home center
  kCenterDown,  // descending the center's global out-tree
};

/// Writable leg state carried in packet headers.
struct LegHeader {
  LegPhase phase = LegPhase::kCenterUp;
  RtzAddress target;
  NodeName ball_root = kNoNode;  // kBallDown: whose ball tree we are in
  TreeLabel ball_label;          // kBallDown: target's label in that tree
};

/// One local forwarding step of a leg.
struct LegStep {
  bool arrived = false;
  Port port = kNoPort;
};

class Rtz3Scheme {
 public:
  struct Options {
    int max_resample = 5;
    /// Accept a center sample when max ball/cluster <= slack * sqrt(n ln n).
    double size_slack = 6.0;
    /// Use the deterministic greedy hitting set instead of sampling.
    bool greedy_centers = false;
    /// Construction fan-out (balls, center trees, ball trees, finalize);
    /// <= 0 resolves the process default.  Bit-identical for any value.
    int threads = 0;
  };

  Rtz3Scheme(const Digraph& g, const RoundtripMetric& metric,
             const NameAssignment& names, Rng& rng, Options options);
  Rtz3Scheme(const Digraph& g, const RoundtripMetric& metric,
             const NameAssignment& names, Rng& rng)
      : Rtz3Scheme(g, metric, names, rng, Options{}) {}

  /// Appends every table as typed arena sections under `prefix` (e.g.
  /// "scheme/" standalone, "scheme/s/" as the stretch6 substrate).
  void save_arena(ArenaWriter& w, const std::string& prefix) const;

  /// Rebuilds a scheme whose tables are zero-copy views into an arena.  `g`
  /// and `names` are the snapshot's own graph/name sections; the caller
  /// keeps `g` alive (exactly as the build constructor requires).  Only the
  /// O(n) address list is materialized.
  [[nodiscard]] static Rtz3Scheme from_arena(const ArenaView& a,
                                             const std::string& prefix,
                                             const Digraph& g,
                                             const NameAssignment& names);

  /// Incremental repair (ROADMAP: incremental epoch repair under churn):
  /// produces the scheme a from-scratch build against `new_graph` -- with
  /// the same names, options, and a fresh build rng -- would produce, but
  /// recomputes only the balls whose radius the churn can reach (certified
  /// by the rt/repair_oracle.h dirtiness oracle) and splices every other
  /// ball row, label, table, and up-port verbatim from `old_scheme`.  The
  /// global center phase is always recomputed: 2|A| whole-graph trees, each
  /// a distance run plus one O(m) parent pass (84-111 ms at random n = 4096
  /// on 2 workers, against 161-199 ms for a full build's ball system).  The
  /// caller must keep `new_graph` alive for the scheme's lifetime, exactly
  /// as with the build constructor.
  ///
  /// Returns nullptr whenever bitwise equivalence with the from-scratch
  /// build cannot be certified cheaply: greedy centers, a resampled old
  /// center set, a center draw that no longer matches the old one, changed
  /// node count or names, or spliced ball/cluster sizes exceeding the
  /// Lemma 2 budget (a rebuild would resample).  Callers fall back to a
  /// full build; nullptr is a policy outcome, not an error.
  [[nodiscard]] static std::shared_ptr<const Rtz3Scheme> repair(
      const Rtz3Scheme& old_scheme, const Digraph& old_graph,
      const Digraph& new_graph, const RoundtripMetric& new_metric,
      const NameAssignment& names, Rng& rng, const ChurnDelta& delta,
      Options options);

  // -- substrate interface consumed by the TINN schemes ---------------------

  /// R3(v) for any name (preprocessing-time lookup used to build tables).
  [[nodiscard]] const RtzAddress& address_of_name(NodeName v) const {
    return addresses_[static_cast<std::size_t>(names_.id_of(v))];
  }
  [[nodiscard]] const RtzAddress& own_address(NodeId v) const {
    return addresses_[static_cast<std::size_t>(v)];
  }
  /// The naming the tables were built over (a TINN scheme may hand the
  /// substrate an internal naming of its own).
  [[nodiscard]] const NameAssignment& names() const { return names_; }

  /// Starts a leg at node `at` toward `target`; arrived=true iff at is the
  /// target already.  Uses only at's local tables.
  [[nodiscard]] LegStep start_leg(NodeId at, const RtzAddress& target,
                                  LegHeader& leg) const;

  /// One forwarding step; uses only at's local tables.
  [[nodiscard]] LegStep step_leg(NodeId at, LegHeader& leg) const;

  [[nodiscard]] std::int64_t leg_header_bits(const LegHeader& leg) const;
  [[nodiscard]] std::int64_t address_bits(const RtzAddress& a) const;

  // -- per-node dictionary probes (the per-hop hot lookups) -----------------
  // Exposed so the bench harness can drive the exact forwarding-time lookup
  // against the flat tables; start_leg/step_leg route through these.

  /// target's label in at's own ball out-tree, or nullopt (case 1 probe).
  /// The label is assembled from the flat CSR hop range; with <= 8 light
  /// hops (the dominant case, Lemma 14) no allocation happens.
  [[nodiscard]] std::optional<TreeLabel> find_ball_label(
      NodeId at, NodeName target) const {
    const auto vz = static_cast<std::size_t>(at);
    const NodeName* base = ball_key_.data();
    const NodeName* first = base + ball_off_[vz];
    const NodeName* last = base + ball_off_[vz + 1];
    const NodeName* it = std::lower_bound(first, last, target);
    if (it == last || *it != target) return std::nullopt;
    return ball_label_.at(static_cast<std::size_t>(it - base));
  }
  /// at's up-port in root's ball in-tree, or nullptr (case 2 probe).
  [[nodiscard]] const Port* find_member_up_port(NodeId at,
                                                NodeName root) const {
    const std::size_t e = member_entry(at, root);
    return e == kNoEntry ? nullptr : &member_up_[e];
  }
  /// at's table in root's ball out-tree, or nullptr (ball descent).
  [[nodiscard]] const TreeNodeTable* find_member_table(NodeId at,
                                                       NodeName root) const {
    const std::size_t e = member_entry(at, root);
    return e == kNoEntry ? nullptr : &member_tab_[e];
  }

  // -- standalone name-dependent roundtrip scheme ---------------------------

  enum class Mode : std::uint8_t { kNew, kOutbound, kReturn, kInbound };

  struct Header {
    Mode mode = Mode::kNew;
    NodeName dest = kNoNode;
    RtzAddress dest_addr;  // known up-front: this is the name-DEPENDENT model
    NodeName src = kNoNode;
    RtzAddress src_addr;
    LegHeader leg;
  };

  [[nodiscard]] Header make_packet(NodeName dest) const;
  void prepare_return(Header& h) const { h.mode = Mode::kReturn; }
  [[nodiscard]] Decision forward(NodeId at, Header& h) const;
  [[nodiscard]] std::int64_t header_bits(const Header& h) const;

  [[nodiscard]] TableStats table_stats() const;
  [[nodiscard]] const BallSystem& balls() const { return balls_; }
  [[nodiscard]] int resamples_used() const { return resamples_used_; }
  [[nodiscard]] std::string name() const { return "rtz3(name-dep)"; }

  /// Lemma 2: every leg satisfies p(u,v) <= d(u,v) + r(u,v), so a roundtrip
  /// costs at most 3 r(s,t).
  [[nodiscard]] double stretch_bound() const { return 3.0; }

  /// Auditable: delegates to the ball system, then checks the address table
  /// (name/center consistency with the balls) and the flat per-node tables
  /// (CSR offsets framing the key arrays, sorted unique keys per row, center
  /// arrays sized to the center set, row populations matching ball/cluster
  /// sizes).
  void audit(AuditReport& report) const;

 private:
  friend struct AuditTestPeer;

  /// Arena-load path: binds the references, everything else follows.
  Rtz3Scheme(const Digraph& g, const NameAssignment& names)
      : graph_(g), names_(names) {}

  /// The center phase: every center's global double tree on graph_ and
  /// every node's address R3(v), from balls_.
  void build_center_trees(const Digraph& reversed, int workers);

  /// The ball phase: every node's ball double tree on graph_, flattened into
  /// the dictionary arrays.  Given `old`, a root v with dirty[v] == 0 is read
  /// back from `old` instead of rebuilt; returns false when such a root's
  /// entries are missing there.
  bool build_ball_trees(const Digraph& reversed, int workers,
                        const Rtz3Scheme* old = nullptr,
                        std::span<const char> dirty = {});

  static constexpr std::size_t kNoEntry = static_cast<std::size_t>(-1);
  [[nodiscard]] std::size_t member_entry(NodeId at, NodeName root) const {
    const auto vz = static_cast<std::size_t>(at);
    const NodeName* base = member_key_.data();
    const NodeName* first = base + member_off_[vz];
    const NodeName* last = base + member_off_[vz + 1];
    const NodeName* it = std::lower_bound(first, last, root);
    if (it == last || *it != root) return kNoEntry;
    return static_cast<std::size_t>(it - base);
  }

  [[nodiscard]] NodeId id_of(NodeName v) const { return names_.id_of(v); }

  const Digraph& graph_;
  NameAssignment names_;
  BallSystem balls_;
  std::vector<RtzAddress> addresses_;
  std::int64_t center_count_ = 0;
  // Global center structures, row-major n x center_count.
  FlatVec<Port> center_up_port_;            // next hop toward each center
  FlatVec<TreeNodeTable> center_tree_tab_;  // this node in each OutTree(a)
  // Own-ball label dictionary, CSR over nodes: row v's sorted member names
  // are ball_key_[ball_off_[v] .. ball_off_[v+1]); entry e's label is
  // ball_label_.at(e).
  FlatVec<std::int64_t> ball_off_;   // n + 1
  FlatVec<NodeName> ball_key_;
  PackedLabels<std::int64_t> ball_label_;  // parallel to ball_key_
  // Membership dictionaries, CSR over nodes: row v's sorted ball-root names
  // are member_key_[member_off_[v] .. member_off_[v+1]); POD payloads are
  // parallel (entry e: out-tree table member_tab_[e], up-port member_up_[e]).
  FlatVec<std::int64_t> member_off_;  // n + 1
  FlatVec<NodeName> member_key_;
  FlatVec<TreeNodeTable> member_tab_;
  FlatVec<Port> member_up_;
  /// Keepalive when the arrays are views into a mapped arena.
  std::shared_ptr<const ArenaStorage> arena_;
  int resamples_used_ = 0;
  std::int64_t node_space_ = 0;
  std::int64_t port_space_ = 0;
};

}  // namespace rtr

#endif  // RTR_RTZ_RTZ3_SCHEME_H
