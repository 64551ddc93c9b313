// The Section 1.1.2 reduction: topology-independent names chosen by the
// nodes themselves from a large space.
//
// "A reduction in [4] shows that, if nodes choose their own names from a
// range space sufficiently large, they will be unique with high probability,
// and that these names can be hashed to the values {0,...,n-1} with small
// numbers of collisions.  It is straightforward to adapt our protocols to
// this setting with only a constant blowup in the size of the routing
// tables."
//
// We realize that adaptation for the stretch-6 scheme: each node announces a
// 64-bit chosen name; a universal hash h(x) = ((a x + b) mod p) mod n maps
// chosen names to buckets in {0..n-1}; the dictionary blocks partition the
// *bucket* space, and each dictionary entry stores the full chosen name next
// to its R3 address (collision lists live inside the blocks, whose sizes
// concentrate around q by universality -- the "constant blowup").  Packets
// arrive carrying only the 64-bit chosen destination name; the forwarding
// state machine is Fig. 3's, with h applied wherever Section 2 read a block
// index off a name.
#ifndef RTR_CORE_HASHED_STRETCH6_H
#define RTR_CORE_HASHED_STRETCH6_H

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/names.h"
#include "dict/alphabet.h"
#include "dict/block_assignment.h"
#include "net/simulator.h"
#include "rtz/rtz3_scheme.h"
#include "util/flat_vec.h"

namespace rtr {

using ChosenName = std::uint64_t;

/// The per-node self-chosen 64-bit names (unique; in the model they are
/// unique w.h.p., and the protocol may reject duplicates at join time).
class ChosenNames {
 public:
  static ChosenNames random(NodeId n, Rng& rng);

  /// Meta-section codec: load rebuilds the reverse index from the names.
  static ChosenNames load(SnapshotReader& r);
  void save(SnapshotWriter& w) const;

  [[nodiscard]] NodeId node_count() const {
    return static_cast<NodeId>(of_id_.size());
  }
  [[nodiscard]] ChosenName of_id(NodeId v) const {
    return of_id_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] NodeId id_of(ChosenName x) const;

  /// Auditable: chosen names non-zero and unique, with the reverse index the
  /// exact inverse of the forward table.
  void audit(AuditReport& report) const;

 private:
  friend struct AuditTestPeer;
  std::vector<ChosenName> of_id_;
  std::unordered_map<ChosenName, NodeId> id_of_;
};

/// Universal hash from chosen names onto buckets {0..n-1}.
class BucketHash {
 public:
  BucketHash(NodeId n, Rng& rng);

  /// Meta-section codec: the hash is fully determined by (n, a, b).
  explicit BucketHash(SnapshotReader& r);
  void save(SnapshotWriter& w) const;

  [[nodiscard]] NodeId bucket(ChosenName x) const;

 private:
  NodeId n_;
  std::uint64_t a_, b_;
};

class HashedStretch6Scheme {
 public:
  struct Options {
    Rtz3Scheme::Options substrate;
    BlockAssignmentOptions blocks;
    /// Construction fan-out (neighborhoods + per-node tables); <= 0 resolves
    /// the process default.  Bit-identical output for any value.
    int threads = 0;
  };

  HashedStretch6Scheme(const Digraph& g, const RoundtripMetric& metric,
                       const ChosenNames& chosen, Rng& rng, Options options);
  HashedStretch6Scheme(const Digraph& g, const RoundtripMetric& metric,
                       const ChosenNames& chosen, Rng& rng)
      : HashedStretch6Scheme(g, metric, chosen, rng, Options{}) {}

  /// Appends the tables in stretch6's section layout under `prefix` (the
  /// substrate under prefix + "s/", with its internal naming), plus a meta
  /// section holding the chosen names and the bucket hash parameters.
  void save_arena(ArenaWriter& w, const std::string& prefix) const;

  /// Rebuilds a scheme whose tables are zero-copy views into an arena; `g`
  /// is the snapshot's own graph and must outlive the scheme.
  [[nodiscard]] static HashedStretch6Scheme from_arena(const ArenaView& a,
                                                       const std::string& prefix,
                                                       const Digraph& g);

  enum class Mode : std::uint8_t { kNew, kOutbound, kReturn, kInbound };

  struct Header {
    Mode mode = Mode::kNew;
    ChosenName dest = 0;  // the only field present at injection
    ChosenName src = 0;
    RtzAddress src_addr;
    ChosenName dict_node = 0;
    bool dict_pending = false;
    LegHeader leg;
  };

  [[nodiscard]] Header make_packet(ChosenName dest) const {
    Header h;
    h.dest = dest;
    return h;
  }
  void prepare_return(Header& h) const { h.mode = Mode::kReturn; }
  [[nodiscard]] Decision forward(NodeId at, Header& h) const;
  [[nodiscard]] std::int64_t header_bits(const Header& h) const;

  [[nodiscard]] TableStats table_stats() const;
  [[nodiscard]] std::string name() const { return "stretch6(64-bit names)"; }

  /// Fig. 3's state machine over hashed buckets keeps Lemma 3's bound.
  [[nodiscard]] double stretch_bound() const { return 6.0; }

  /// The chosen-name table the scheme was built over (adapters translate
  /// TINN destinations through it).
  [[nodiscard]] const ChosenNames& chosen() const { return chosen_; }

  /// Auditable: delegates to the substrate, chosen-name table, and bucket
  /// alphabet, then checks the per-node dictionaries (sorted unique 64-bit
  /// keys resolving to real chosen names, one holder per relevant block).
  void audit(AuditReport& report) const;

 private:
  friend struct AuditTestPeer;

  /// Arena-load path: from_arena opens the meta stream, then this
  /// constructor decodes it interleaved with the flat sections.
  HashedStretch6Scheme(SnapshotReader& meta, const ArenaView& a,
                       const std::string& prefix, const Digraph& g);

  [[nodiscard]] const RtzAddress* lookup_r3(NodeId at, ChosenName t) const;

  ChosenNames chosen_;
  BucketHash hash_;
  Alphabet alphabet_;  // over the bucket space
  NodeId hood_size_;
  std::shared_ptr<const Rtz3Scheme> substrate_;
  // Items (1) + (3): sorted chosen names whose (name, R3) pair node v
  // stores, CSR over nodes (row v is r3_names_[r3_off_[v] .. r3_off_[v+1]));
  // lookup_r3 resolves the address payload through the substrate (one copy
  // per node, not per dictionary entry).
  FlatVec<std::int64_t> r3_off_;  // n + 1
  FlatVec<ChosenName> r3_names_;
  // Item (2): bucket-block id -> holder within N(u), row-major n x blocks.
  FlatVec<ChosenName> holder_of_;
  std::int64_t block_count_ = 0;
  /// Keepalive when the arrays are views into a mapped arena.
  std::shared_ptr<const ArenaStorage> arena_;
  std::int64_t node_space_ = 0;
};

}  // namespace rtr

#endif  // RTR_CORE_HASHED_STRETCH6_H
