#include "core/stretch6.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "audit/audit.h"
#include "graph/apsp.h"
#include "io/arena.h"
#include "io/snapshot_format.h"
#include "util/bit_cost.h"
#include "util/parallel.h"

namespace rtr {

void Stretch6Scheme::adopt_r3_rows(
    const std::vector<std::vector<NodeName>>& rows) {
  std::vector<std::int64_t> off(rows.size() + 1, 0);
  std::size_t total = 0;
  for (std::size_t v = 0; v < rows.size(); ++v) {
    total += rows[v].size();
    off[v + 1] = static_cast<std::int64_t>(total);
  }
  std::vector<NodeName> flat;
  flat.reserve(total);
  for (const auto& row : rows) flat.insert(flat.end(), row.begin(), row.end());
  r3_off_ = std::move(off);
  r3_names_ = std::move(flat);
  arena_.reset();
}

void Stretch6Scheme::save_arena(ArenaWriter& w,
                                const std::string& prefix) const {
  substrate_->save_arena(w, prefix + "s/");
  w.add(prefix + "r3_off", r3_off_);
  w.add(prefix + "r3_names", r3_names_);
  w.add(prefix + "holders", holder_of_);
  // The name assignment is NOT embedded: the arena's top-level names
  // sections are the same assignment, and the loader receives them.
  SnapshotWriter meta;
  alphabet_.save(meta);
  meta.i32(hood_size_);
  meta.u8(detour_via_source_ ? 1 : 0);
  save_block_assignment(meta, assignment_);
  meta.i64(node_space_);
  const auto& meta_bytes = meta.bytes();
  w.add_bytes(prefix + "meta", meta_bytes.data(), meta_bytes.size());
}

Stretch6Scheme::Stretch6Scheme(SnapshotReader& meta, const ArenaView& a,
                               const std::string& prefix, const Digraph& g,
                               const NameAssignment& names)
    : names_(names),
      alphabet_(Alphabet::load(meta)),
      hood_size_(meta.i32()),
      substrate_(std::make_shared<const Rtz3Scheme>(
          Rtz3Scheme::from_arena(a, prefix + "s/", g, names))) {
  detour_via_source_ = meta.u8() != 0;
  assignment_ = load_block_assignment(meta);
  node_space_ = meta.i64();
  meta.expect_exhausted("stretch6 arena meta");

  const auto n = static_cast<std::size_t>(g.node_count());
  if (static_cast<std::size_t>(names_.node_count()) != n) {
    throw SnapshotArenaError(
        "stretch6 arena: name table does not match the graph");
  }
  block_count_ = alphabet_.relevant_block_count();
  r3_off_ = a.vec<std::int64_t>(prefix + "r3_off", n + 1);
  r3_names_ = a.vec<NodeName>(prefix + "r3_names");
  holder_of_ = a.vec<NodeName>(
      prefix + "holders", n * static_cast<std::size_t>(block_count_));
  check_csr_offsets(r3_off_, r3_names_.size(), prefix + "r3_off");
  arena_ = a.storage();
}

Stretch6Scheme Stretch6Scheme::from_arena(const ArenaView& a,
                                          const std::string& prefix,
                                          const Digraph& g,
                                          const NameAssignment& names) {
  SnapshotReader meta = a.reader(prefix + "meta");
  return Stretch6Scheme(meta, a, prefix, g, names);
}

Stretch6Scheme::Stretch6Scheme(const Digraph& g, const RoundtripMetric& metric,
                               const NameAssignment& names, Rng& rng,
                               Options options)
    : names_(names),
      alphabet_(g.node_count(), 2),
      hood_size_(static_cast<NodeId>(alphabet_.q())),
      substrate_(std::make_shared<Rtz3Scheme>(g, metric, names, rng,
                                              options.substrate)),
      detour_via_source_(options.detour_via_source),
      node_space_(g.node_count()) {
  const NodeId n = g.node_count();
  const int threads = resolve_apsp_threads(options.threads);
  // k = 2: the block lemmas and item (2) only read the first q = hood_size_
  // positions of Init_u, so truncated rows suffice.
  Neighborhoods hoods =
      compute_neighborhoods(metric, names_, hood_size_, threads);
  assignment_ =
      assign_blocks(alphabet_, metric, names_, hoods, rng, options.blocks);

  const std::int64_t blocks = alphabet_.relevant_block_count();
  block_count_ = blocks;
  // Per-ticket writes are disjoint: node u owns its r3 row and its fixed
  //-width holder row at u * blocks, so the fan-out is race-free.
  std::vector<std::vector<NodeName>> r3_rows(static_cast<std::size_t>(n));
  std::vector<NodeName> holders(static_cast<std::size_t>(n) *
                                    static_cast<std::size_t>(blocks),
                                kNoNode);
  parallel_tickets(n, threads, [&] {
    return [&](std::int64_t ticket) {
    const auto u = static_cast<NodeId>(ticket);
    auto& row = r3_rows[static_cast<std::size_t>(u)];
    NodeName* holder_row = holders.data() + static_cast<std::size_t>(u) *
                                                static_cast<std::size_t>(blocks);
    const auto hood = hoods.prefix(u, hood_size_);

    // (1) R3 for every neighborhood member (includes u itself: hood[0] == u).
    for (NodeId v : hood) {
      row.push_back(names_.name_of(v));
    }

    // (2) nearest holder in N(u) per block (Lemma 1 guarantees existence).
    for (BlockId b = 0; b < blocks; ++b) {
      for (NodeId v : hood) {
        if (assignment_.holds(v, b)) {
          holder_row[static_cast<std::size_t>(b)] = names_.name_of(v);
          break;
        }
      }
      if (holder_row[static_cast<std::size_t>(b)] == kNoNode) {
        throw std::logic_error(
            "Stretch6Scheme: Lemma 1 coverage violated (no holder in N(u))");
      }
    }

    // (3) dictionary entries of every held block.
    for (BlockId b : assignment_.blocks_of[static_cast<std::size_t>(u)]) {
      for (NodeName member : alphabet_.block_members(b)) {
        row.push_back(member);
      }
    }
    std::sort(row.begin(), row.end());
    row.erase(std::unique(row.begin(), row.end()), row.end());
    };
  });
  adopt_r3_rows(r3_rows);
  holder_of_ = std::move(holders);
}

Decision Stretch6Scheme::forward(NodeId at, Header& h) const {
  const NodeName at_name = names_.name_of(at);
  switch (h.mode) {
    case Mode::kNew: {
      // Fig. 3, NewPacket branch.  Source fields must be written even for a
      // self-addressed packet: the acknowledgment path reads them.
      h.src = at_name;
      h.src_addr = substrate_->own_address(at);
      h.mode = Mode::kOutbound;
      if (at_name == h.dest) return Decision::deliver_here();
      const RtzAddress* direct = lookup_r3(at, h.dest);
      LegStep step;
      if (direct != nullptr) {
        h.phase = Phase::kToDest;
        step = substrate_->start_leg(at, *direct, h.leg);
      } else {
        // Remote dictionary lookup: route to the neighborhood's holder of
        // t's block (its own R3 is in table item (1)).
        const BlockId block = alphabet_.block_of(h.dest);
        const NodeName w =
            holder_of_[static_cast<std::size_t>(at) *
                           static_cast<std::size_t>(block_count_) +
                       static_cast<std::size_t>(block)];
        h.dict_node = w;
        h.phase = Phase::kToDict;
        const RtzAddress* w_addr = lookup_r3(at, w);
        if (w_addr == nullptr) {
          throw std::logic_error("stretch6: holder missing from table (1)");
        }
        step = substrate_->start_leg(at, *w_addr, h.leg);
      }
      if (step.arrived) return forward(at, h);  // leg degenerate: re-dispatch
      return Decision::forward_on(step.port);
    }
    case Mode::kOutbound: {
      if (at_name == h.dest) return Decision::deliver_here();
      if (h.phase == Phase::kToDict && at_name == h.dict_node) {
        // Fig. 3: at the dictionary node, learn R3(t).  Either head straight
        // to t, or (Section 2.2's remarked variant) carry R3(t) back to the
        // source first.
        h.dict_node = kNoNode;
        const RtzAddress* t_addr = lookup_r3(at, h.dest);
        if (t_addr == nullptr) {
          throw std::logic_error("stretch6: dictionary node lacks R3(dest)");
        }
        LegStep step;
        if (detour_via_source_) {
          h.learned_dest = *t_addr;
          h.phase = Phase::kBackToSource;
          step = substrate_->start_leg(at, h.src_addr, h.leg);
        } else {
          h.phase = Phase::kToDest;
          step = substrate_->start_leg(at, *t_addr, h.leg);
        }
        if (step.arrived) return forward(at, h);  // w == t or w == s
        return Decision::forward_on(step.port);
      }
      // Mid-leg step: the substrate only ever flips the leg phase here, so
      // the header's encoded size is unchanged (see Rtz3Scheme::forward).
      LegStep step = substrate_->step_leg(at, h.leg);
      if (!step.arrived) return Decision::forward_same_size(step.port);
      if (h.phase == Phase::kBackToSource) {
        // Detour landed back at the source carrying R3(t): final leg.
        h.phase = Phase::kToDest;
        LegStep next = substrate_->start_leg(at, h.learned_dest, h.leg);
        if (next.arrived) return Decision::deliver_here();
        return Decision::forward_on(next.port);
      }
      return forward(at, h);  // arrived at w: re-dispatch
    }
    case Mode::kReturn: {
      // Fig. 3, ReturnPacket branch: ack routes to SrcLabel.
      h.mode = Mode::kInbound;
      if (at_name == h.src) return Decision::deliver_here();
      LegStep step = substrate_->start_leg(at, h.src_addr, h.leg);
      if (step.arrived) return Decision::deliver_here();
      return Decision::forward_on(step.port);
    }
    case Mode::kInbound: {
      // The packet may pass *through* the source mid-leg (e.g. while
      // climbing toward a center); only a leg arrival is delivery.
      LegStep step = substrate_->step_leg(at, h.leg);
      if (step.arrived) {
        if (at_name != h.src) {
          throw std::logic_error("stretch6: inbound leg arrived off-source");
        }
        return Decision::deliver_here();
      }
      return Decision::forward_same_size(step.port);
    }
  }
  throw std::logic_error("stretch6: bad mode");
}

std::int64_t Stretch6Scheme::header_bits(const Header& h) const {
  std::int64_t bits = 2 /* mode */ + 2 /* phase */ +
                      3 * bits_for(node_space_) /* dest, src, dict_node */ +
                      substrate_->address_bits(h.src_addr) +
                      substrate_->leg_header_bits(h.leg);
  if (detour_via_source_) bits += substrate_->address_bits(h.learned_dest);
  return bits;
}

void Stretch6Scheme::audit(AuditReport& report) const {
  auto scope = report.scope("stretch6");
  substrate_->audit(report);
  alphabet_.audit(report);
  assignment_.audit(report, alphabet_);
  {
    auto names_scope = report.scope("names");
    names_.audit(report);
  }

  const auto n = static_cast<std::size_t>(names_.node_count());
  const std::int64_t block_count = alphabet_.relevant_block_count();
  report.check("tables-sized",
               r3_off_.size() == n + 1 &&
                   block_count_ == block_count &&
                   holder_of_.size() ==
                       n * static_cast<std::size_t>(block_count),
               "CSR offsets per node and one holder row per node");
  report.check("neighborhood-size",
               hood_size_ >= 1 &&
                   static_cast<std::size_t>(hood_size_) <= std::max<std::size_t>(n, 1),
               "N(u) must have between 1 and n members");
  if (r3_off_.size() != n + 1 ||
      holder_of_.size() != n * static_cast<std::size_t>(block_count)) {
    return;
  }
  report.check("r3-offsets-wellformed",
               r3_off_.front() == 0 &&
                   r3_off_.back() ==
                       static_cast<std::int64_t>(r3_names_.size()) &&
                   std::is_sorted(r3_off_.begin(), r3_off_.end()),
               "r3 CSR offsets monotone and framing the key array");
  if (r3_off_.front() != 0 ||
      r3_off_.back() != static_cast<std::int64_t>(r3_names_.size()) ||
      !std::is_sorted(r3_off_.begin(), r3_off_.end())) {
    return;
  }

  bool r3_ok = true;
  bool holders_ok = true;
  std::string r3_detail, holder_detail;
  for (std::size_t v = 0; v < n; ++v) {
    const auto lo = static_cast<std::size_t>(r3_off_[v]);
    const auto hi = static_cast<std::size_t>(r3_off_[v + 1]);
    for (std::size_t i = lo; r3_ok && i < hi; ++i) {
      const NodeName name = r3_names_[i];
      if (name < 0 || static_cast<std::size_t>(name) >= n ||
          (i > lo && r3_names_[i - 1] >= name)) {
        r3_ok = false;
        r3_detail = "r3 dictionary of node " + std::to_string(v) +
                    " not sorted/unique/in-range";
      }
    }
    const NodeName* holder_row =
        holder_of_.data() + v * static_cast<std::size_t>(block_count);
    for (std::size_t b = 0;
         holders_ok && b < static_cast<std::size_t>(block_count); ++b) {
      const NodeName holder = holder_row[b];
      if (holder < 0 || static_cast<std::size_t>(holder) >= n ||
          !assignment_.holds(names_.id_of(holder),
                             static_cast<BlockId>(b))) {
        holders_ok = false;
        holder_detail = "recorded holder of block " + std::to_string(b) +
                        " at node " + std::to_string(v) +
                        " does not hold the block";
      }
    }
  }
  report.check("r3-dicts-sorted", r3_ok, std::move(r3_detail));
  report.check("block-holders-valid", holders_ok, std::move(holder_detail));
}

TableStats Stretch6Scheme::table_stats() const {
  const auto n = names_.node_count();
  TableStats stats = substrate_->table_stats();  // item (4): Tab3(u)
  const std::int64_t id_bits = bits_for(node_space_);
  for (NodeId v = 0; v < n; ++v) {
    const auto vz = static_cast<std::size_t>(v);
    const auto lo = static_cast<std::size_t>(r3_off_[vz]);
    const auto hi = static_cast<std::size_t>(r3_off_[vz + 1]);
    std::int64_t entries = 0, bits = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      ++entries;
      bits += id_bits + substrate_->address_bits(
                            substrate_->address_of_name(r3_names_[i]));
    }
    entries += block_count_;
    bits += block_count_ * (id_bits + id_bits);
    stats.add(v, entries, bits);
  }
  return stats;
}

}  // namespace rtr
