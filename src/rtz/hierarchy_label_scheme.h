// The Section 4.4 remark, realized: "we remark that by using the sparse
// cover presented here, the name-dependent scheme in [35] can be improved".
//
// A name-dependent roundtrip scheme over the Theorem 13 double-tree
// hierarchy.  The globally valid label of v lists, per level, v's *home*
// double-tree id and v's Lemma 14 address inside it.  A source u (who knows
// its own tree memberships and its own addresses within them) scans levels
// bottom-up for the first home tree of v that contains u and routes the
// whole roundtrip through that tree's center.
//
// Guarantee: at level ceil(log2 r(u,v)) the home tree of v spans
// N-hat(v) which contains u, and every tree at level l has RTHeight
// <= (2k-1) 2^l, so the roundtrip costs at most 4 (2k-1) 2^l <= 8(2k-1)
// r(u,v).  (With the paper's unsubstituted RTZ covers this remark yields
// their improved 4k-2+eps; our beta follows the same construction with the
// Theorem 10 radius constant.)
#ifndef RTR_RTZ_HIERARCHY_LABEL_SCHEME_H
#define RTR_RTZ_HIERARCHY_LABEL_SCHEME_H

#include <memory>
#include <string>
#include <vector>

#include "core/names.h"
#include "net/simulator.h"
#include "rtz/handshake.h"

namespace rtr {

/// The globally valid, topology-dependent label of a node: one (home tree,
/// address) pair per level.  o(log^2 n log RTDiam) bits.
struct HierarchyLabel {
  NodeName name = kNoNode;
  std::vector<std::int32_t> home_tree;   // per level
  std::vector<TreeLabel> home_address;   // per level
};

class HierarchyLabelScheme {
 public:
  struct Options {
    int k = 3;
  };

  HierarchyLabelScheme(const Digraph& g, const RoundtripMetric& metric,
                       const NameAssignment& names, Options options);
  HierarchyLabelScheme(const Digraph& g, const RoundtripMetric& metric,
                       const NameAssignment& names)
      : HierarchyLabelScheme(g, metric, names, Options{}) {}

  enum class Mode : std::uint8_t { kNew, kOutbound, kReturn, kInbound };

  struct Header {
    Mode mode = Mode::kNew;
    NodeName dest = kNoNode;
    NodeName src = kNoNode;
    // Chosen at the source from the destination's label + the source's own
    // memberships: the common tree and both endpoints' addresses in it.
    TreeRef tree;
    TreeLabel dest_label;
    TreeLabel src_label;
    DtLeg leg;
  };

  /// Name-dependent model: the packet arrives with the destination's label.
  [[nodiscard]] Header make_packet(NodeName dest) const;
  void prepare_return(Header& h) const { h.mode = Mode::kReturn; }
  [[nodiscard]] Decision forward(NodeId at, Header& h) const;
  [[nodiscard]] std::int64_t header_bits(const Header& h) const;

  [[nodiscard]] TableStats table_stats() const;
  [[nodiscard]] std::string name() const {
    return "hier-label(name-dep,k=" + std::to_string(k_) + ")";
  }

  /// Worst-case roundtrip stretch of the scheme: 8 (2k - 1).
  [[nodiscard]] double stretch_bound() const { return 8.0 * (2 * k_ - 1); }

  [[nodiscard]] const HierarchyLabel& label_of(NodeId v) const {
    return labels_[static_cast<std::size_t>(v)];
  }
  [[nodiscard]] const CoverHierarchy& hierarchy() const { return *hierarchy_; }

  /// Auditable: delegates to the naming and cover hierarchy, then checks
  /// every node's label lists one (home tree, address) pair per level, each
  /// home tree containing the node and agreeing with the hierarchy's own
  /// home assignment.
  void audit(AuditReport& report) const;

 private:
  friend struct AuditTestPeer;
  int k_;
  NameAssignment names_;
  std::shared_ptr<const CoverHierarchy> hierarchy_;
  CoverTable cover_;  // what dt_step reads at every hop
  std::vector<HierarchyLabel> labels_;
  std::int64_t node_space_ = 0;
  std::int64_t port_space_ = 0;
};

}  // namespace rtr

#endif  // RTR_RTZ_HIERARCHY_LABEL_SCHEME_H
