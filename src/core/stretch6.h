// The stretch-6 TINN compact roundtrip routing scheme (paper Section 2,
// pseudocode Fig. 3).
//
// Ingredients, exactly as the paper assembles them:
//   * N(u): the first ceil(sqrt n) nodes of Init_u (roundtrip order).
//   * Address space split into ceil(sqrt n)-sized *name* blocks B_i.
//   * Lemma 1 block distribution: every node stores O(log n) blocks; every
//     neighborhood contains a holder of every block.
//   * Lemma 2 substrate (Rtz3Scheme) providing addresses R3(x) and legs with
//     p(u,v) <= r(u,v) + d(u,v).
//
// Per-node storage (Section 2.1): (1) (v, R3(v)) for v in N(u); (2) a holder
// t in N(u) for every block; (3) the full dictionary of every held block;
// (4) the substrate's Tab3(u).  All O~(sqrt n).
//
// Routing from s to t: deliver locally if s = t; use R3(t) directly when
// stored (t in N(s) or t's block held at s); otherwise hop to the
// neighborhood's holder w of t's block, learn R3(t) there, continue to t.
// The acknowledgment returns via R3(s), written into the header at s.
// Lemma 3: total roundtrip <= 6 r(s,t).
#ifndef RTR_CORE_STRETCH6_H
#define RTR_CORE_STRETCH6_H

#include <memory>
#include <string>
#include <vector>

#include "core/names.h"
#include "dict/alphabet.h"
#include "dict/block_assignment.h"
#include "net/simulator.h"
#include "rtz/rtz3_scheme.h"
#include "util/flat_vec.h"

namespace rtr {

class Stretch6Scheme {
 public:
  struct Options {
    Rtz3Scheme::Options substrate;
    BlockAssignmentOptions blocks;
    /// Section 2.2's remarked variant: return to the source after the
    /// dictionary lookup before heading to the destination ("slightly
    /// simpler to analyze ... same worst-case stretch. However it can
    /// result in longer paths").  Off by default, measured by the
    /// ablation bench.
    bool detour_via_source = false;
    /// Construction fan-out (neighborhoods + per-node tables); <= 0 resolves
    /// the process default.  Bit-identical output for any value.
    int threads = 0;
  };

  /// Builds tables for the given graph/naming.  The substrate is built
  /// internally; `metric` must be the graph's roundtrip metric.
  Stretch6Scheme(const Digraph& g, const RoundtripMetric& metric,
                 const NameAssignment& names, Rng& rng, Options options);
  Stretch6Scheme(const Digraph& g, const RoundtripMetric& metric,
                 const NameAssignment& names, Rng& rng)
      : Stretch6Scheme(g, metric, names, rng, Options{}) {}

  /// Appends every table (and the substrate's, under `prefix` + "s/") as
  /// typed arena sections under `prefix`.
  void save_arena(ArenaWriter& w, const std::string& prefix) const;

  /// Rebuilds a scheme whose tables are zero-copy views into an arena.  `g`
  /// and `names` are the snapshot's own graph/name sections; the caller
  /// keeps `g` alive (exactly as the build constructor does).
  [[nodiscard]] static Stretch6Scheme from_arena(const ArenaView& a,
                                                 const std::string& prefix,
                                                 const Digraph& g,
                                                 const NameAssignment& names);

  enum class Mode : std::uint8_t { kNew, kOutbound, kReturn, kInbound };

  /// Outbound sub-phase (only kViaSource is specific to the detour variant).
  enum class Phase : std::uint8_t { kToDest, kToDict, kBackToSource };

  struct Header {
    Mode mode = Mode::kNew;
    NodeName dest = kNoNode;  // the ONLY field present at injection (TINN)
    NodeName src = kNoNode;
    RtzAddress src_addr;       // written at the source, used by the ack
    NodeName dict_node = kNoNode;  // w, when a remote dictionary lookup runs
    Phase phase = Phase::kToDest;
    RtzAddress learned_dest;   // detour variant: R3(t) learned at w
    LegHeader leg;             // current substrate leg
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
  [[nodiscard]] std::string name() const { return "stretch6(TINN)"; }

  /// Lemma 3: total roundtrip <= 6 r(s,t) (the detour variant keeps the same
  /// worst case, Section 2.2).
  [[nodiscard]] double stretch_bound() const { return 6.0; }

  [[nodiscard]] const Rtz3Scheme& substrate() const { return *substrate_; }
  [[nodiscard]] const BlockAssignment& block_assignment() const {
    return assignment_;
  }
  /// Neighborhood size ceil(sqrt n) actually used.
  [[nodiscard]] NodeId neighborhood_size() const { return hood_size_; }

  /// Auditable: delegates to the substrate, alphabet, and block assignment,
  /// then checks the per-node dictionaries (sorted unique r3 names, one
  /// holder per relevant block, and every recorded holder actually holding
  /// the block it is advertised for).
  void audit(AuditReport& report) const;

 private:
  friend struct AuditTestPeer;

  /// Arena-load path: the static from_arena opens the meta stream, then this
  /// constructor decodes it interleaved with the flat sections.
  Stretch6Scheme(SnapshotReader& meta, const ArenaView& a,
                 const std::string& prefix, const Digraph& g,
                 const NameAssignment& names);

  /// Flattens per-node sorted r3 rows into the CSR arrays.
  void adopt_r3_rows(const std::vector<std::vector<NodeName>>& rows);

  /// Local lookup of R3(t) in (1)/(3); nullptr if absent.
  [[nodiscard]] const RtzAddress* lookup_r3(NodeId at, NodeName t) const {
    const auto vz = static_cast<std::size_t>(at);
    const NodeName* base = r3_names_.data();
    const NodeName* first = base + r3_off_[vz];
    const NodeName* last = base + r3_off_[vz + 1];
    if (!std::binary_search(first, last, t)) return nullptr;
    return &substrate_->address_of_name(t);
  }

  NameAssignment names_;
  Alphabet alphabet_;
  NodeId hood_size_;
  std::shared_ptr<const Rtz3Scheme> substrate_;
  bool detour_via_source_ = false;
  BlockAssignment assignment_;
  // (1) + (3): sorted names whose (name, R3) pair node v stores --
  // neighborhood members and held-block entries -- in CSR form: row v is
  // r3_names_[r3_off_[v] .. r3_off_[v+1]).  The address payloads live once
  // in the substrate's per-node table (lookup_r3 resolves through it), so
  // the dictionary costs one name per entry in memory and in snapshots;
  // table_stats still accounts full per-entry address bits.
  FlatVec<std::int64_t> r3_off_;  // n + 1
  FlatVec<NodeName> r3_names_;
  // (2): block id -> holder name within N(u), row-major n x block_count_.
  FlatVec<NodeName> holder_of_;
  std::int64_t block_count_ = 0;
  /// Keepalive when the arrays are views into a mapped arena.
  std::shared_ptr<const ArenaStorage> arena_;
  std::int64_t node_space_ = 0;
};

}  // namespace rtr

#endif  // RTR_CORE_STRETCH6_H
