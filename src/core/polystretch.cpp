#include "core/polystretch.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <unordered_map>

#include "audit/audit.h"
#include "graph/apsp.h"
#include "io/arena.h"
#include "util/bit_cost.h"
#include "util/parallel.h"

namespace rtr {

namespace {

/// One dictionary entry while building: the entry's label is the own label
/// of membership `owner` (the nearest member's, in the same tree).
struct DictEntry {
  std::uint16_t key = 0;
  NodeName node = kNoNode;
  std::int64_t owner = -1;
};

/// One tree's members grouped by name prefix: entry j maps a (j+1)-digit
/// prefix value to the members carrying it, for nearest-extension queries.
using PrefixIndex =
    std::vector<std::unordered_map<std::int64_t, std::vector<NodeId>>>;

}  // namespace

void PolyStretchScheme::save_arena(ArenaWriter& w,
                                   const std::string& prefix) const {
  cover_.save_arena(w, prefix + "cover/");
  own_label_.save_arena(w, prefix + "own_");
  w.add(prefix + "dict_off", dict_off_);
  w.add(prefix + "dict_key", dict_key_);
  w.add(prefix + "dict_node", dict_node_);
  dict_label_.save_arena(w, prefix + "dict_");
  // The name assignment is NOT embedded: the arena's top-level names
  // sections are the same assignment, and the loader receives them.
  SnapshotWriter meta;
  alphabet_.save(meta);
  meta.i64(node_space_);
  meta.i64(port_space_);
  w.add_bytes(prefix + "meta", meta.bytes().data(), meta.size());
}

PolyStretchScheme PolyStretchScheme::from_arena(const ArenaView& a,
                                                const std::string& prefix,
                                                const NameAssignment& names) {
  SnapshotReader meta = a.reader(prefix + "meta");
  PolyStretchScheme s(names, Alphabet::load(meta));
  s.node_space_ = meta.i64();
  s.port_space_ = meta.i64();
  meta.expect_exhausted("polystretch arena meta");

  s.cover_ = CoverTable::from_arena(a, prefix + "cover/", names.node_count());
  const auto memberships = static_cast<std::uint64_t>(s.cover_.size());
  s.own_label_ =
      PackedLabels<std::int32_t>::from_arena(a, prefix + "own_", memberships);
  s.dict_off_ = a.vec<std::int64_t>(prefix + "dict_off", memberships + 1);
  s.dict_key_ = a.vec<std::uint16_t>(prefix + "dict_key");
  s.dict_node_ = a.vec<NodeName>(prefix + "dict_node", s.dict_key_.size());
  s.dict_label_ = PackedLabels<std::int32_t>::from_arena(a, prefix + "dict_",
                                                         s.dict_key_.size());
  check_csr_offsets(s.dict_off_, s.dict_key_.size(), prefix + "dict_off");
  s.arena_ = a.storage();
  return s;
}

PolyStretchScheme::PolyStretchScheme(const Digraph& g,
                                     const RoundtripMetric& metric,
                                     const NameAssignment& names,
                                     Options options)
    : names_(names),
      alphabet_(g.node_count(), options.k),
      node_space_(g.node_count()),
      port_space_(g.port_space()) {
  const int k = alphabet_.k();
  const std::int64_t q = alphabet_.q();
  const int threads = resolve_apsp_threads(options.threads);
  const Digraph reversed = g.reversed();
  hierarchy_ =
      std::make_shared<const CoverHierarchy>(g, reversed, metric, k, threads);
  cover_ = CoverTable(*hierarchy_);
  if (static_cast<std::int64_t>(k) * q > UINT16_MAX) {
    throw std::length_error("polystretch: dictionary keys exceed 16 bits");
  }

  // Staging per cover-table membership; every (tree, member) pair owns one.
  const auto memberships = static_cast<std::size_t>(cover_.size());
  std::vector<TreeLabel> own(memberships);
  std::vector<std::vector<DictEntry>> dicts(memberships);
  struct Membership {
    std::int32_t tree;
    NodeId member;
    std::int64_t slot;  // cover-table index
  };
  for (std::int32_t level = 0; level < hierarchy_->level_count(); ++level) {
    const HierarchyLevel& lvl = hierarchy_->level(level);
    // Every membership's own label is minted once, and every tree's prefix
    // index built, before the level's dictionaries read them.
    std::vector<PrefixIndex> by_prefix(lvl.trees.size(),
                                       PrefixIndex(static_cast<std::size_t>(k)));
    std::vector<Membership> items;
    for (std::int32_t t = 0; t < static_cast<std::int32_t>(lvl.trees.size()); ++t) {
      const DoubleTree& tree = lvl.trees[static_cast<std::size_t>(t)];
      PrefixIndex& index = by_prefix[static_cast<std::size_t>(t)];
      for (NodeId v : tree.members()) {
        const std::int64_t slot = cover_.find(v, TreeRef{level, t});
        own[static_cast<std::size_t>(slot)] = tree.out_router().label(v);
        items.push_back(Membership{t, v, slot});
        const NodeName vn = names_.name_of(v);
        for (int j = 0; j < k; ++j) {
          index[static_cast<std::size_t>(j)][alphabet_.prefix_value(vn, j + 1)]
              .push_back(v);
        }
      }
    }
    // One ticket per membership of the level: each writes only its own
    // dictionary; labels, prefix indexes, cover table and metric are read.
    parallel_tickets(static_cast<std::int64_t>(items.size()), threads, [&] {
      return [&](std::int64_t ticket) {
        const Membership& item = items[static_cast<std::size_t>(ticket)];
        const NodeId u = item.member;
        const TreeRef ref{level, item.tree};
        const PrefixIndex& index = by_prefix[static_cast<std::size_t>(item.tree)];
        auto& dict = dicts[static_cast<std::size_t>(item.slot)];
        const NodeName un = names_.name_of(u);
        // (2c): for every j and tau, the nearest member extending u's own
        // j-digit prefix with digit tau, if one exists.
        for (int j = 0; j < k; ++j) {
          for (int tau = 0; tau < q; ++tau) {
            const PrefixValue p = alphabet_.prefix_value(un, j) * q + tau;
            auto it = index[static_cast<std::size_t>(j)].find(p);
            if (it == index[static_cast<std::size_t>(j)].end()) continue;
            NodeId best = kNoNode;
            Dist best_r = kInfDist;
            for (NodeId v : it->second) {
              if (v == u) {  // a zero-cost extension: always the nearest
                best = u;
                best_r = 0;
                break;
              }
              const Dist rr = metric.r(u, v);
              if (rr < best_r || (rr == best_r && best != kNoNode &&
                                  names_.name_of(v) < names_.name_of(best))) {
                best_r = rr;
                best = v;
              }
            }
            // Keys ascend with (j, tau), so each row comes out sorted.
            dict.push_back(DictEntry{
                static_cast<std::uint16_t>(static_cast<std::int64_t>(j) * q +
                                           tau),
                names_.name_of(best), cover_.find(best, ref)});
          }
        }
      };
    });
  }

  std::vector<std::int64_t> dict_off{0};
  std::vector<std::uint16_t> dict_key;
  std::vector<NodeName> dict_node;
  PackedLabels<std::int32_t>::Builder dict_label;
  for (const auto& dict : dicts) {
    for (const DictEntry& e : dict) {
      dict_key.push_back(e.key);
      dict_node.push_back(e.node);
      dict_label.add(own[static_cast<std::size_t>(e.owner)]);
    }
    dict_off.push_back(static_cast<std::int64_t>(dict_key.size()));
  }
  own_label_ = PackedLabels<std::int32_t>(own);
  dict_off_ = std::move(dict_off);
  dict_key_ = std::move(dict_key);
  dict_node_ = std::move(dict_node);
  dict_label_ = dict_label.build();
}

Decision PolyStretchScheme::start_level(NodeId at, Header& h) const {
  // `at` is the source.  Pick its home tree for the current level and run
  // NextNode locally; escalate locally while the level yields no progress.
  while (true) {
    if (h.level >= cover_.level_count()) {
      throw std::logic_error("polystretch: levels exhausted without delivery");
    }
    h.tree = cover_.home(at, h.level);
    const std::int64_t m = cover_.find(at, h.tree);
    if (m == CoverTable::kNotMember) {
      throw std::logic_error("polystretch: source outside its home tree");
    }
    h.src_label = own_label_.at(static_cast<std::size_t>(m));
    Decision d = next_hop(at, h);
    // next_hop either launched a leg (forward), delivered (s == t), or asked
    // to fall back to the source -- which we are already at: escalate.
    if (!d.deliver || names_.name_of(at) == h.dest) return d;
    ++h.level;
  }
}

Decision PolyStretchScheme::next_hop(NodeId at, Header& h) const {
  const NodeName at_name = names_.name_of(at);
  if (at_name == h.dest) {
    h.found = true;
    return Decision::deliver_here();
  }
  const std::int64_t m = cover_.find(at, h.tree);
  if (m == CoverTable::kNotMember) {
    throw std::logic_error("polystretch: waypoint outside the current tree");
  }

  const int h_match = alphabet_.lcp(at_name, h.dest);  // digits already matched
  const int tau = alphabet_.digit(h.dest, h_match);
  const auto key = static_cast<std::uint16_t>(
      static_cast<std::int64_t>(h_match) * alphabet_.q() + tau);
  const std::uint16_t* base = dict_key_.data();
  const std::uint16_t* first = base + dict_off_[static_cast<std::size_t>(m)];
  const std::uint16_t* last = base + dict_off_[static_cast<std::size_t>(m) + 1];
  const std::uint16_t* it = std::lower_bound(first, last, key);
  const bool found = it != last && *it == key;
  const auto e = static_cast<std::size_t>(it - base);
  if (found && dict_node_[e] != at_name) {
    // Extend the match: trip to the entry through the tree's center.
    h.waypoint = dict_node_[e];
    h.leg = DtLeg{h.tree, dict_label_.at(e), true};
    DtStep step = dt_step(cover_, at, h.leg);
    if (step.arrived) {
      throw std::logic_error("polystretch: fresh trip arrived instantly");
    }
    return Decision::forward_on(step.port);
  }
  if (found) {
    // The nearest extension is this node itself, yet it is not t: the next
    // digit cannot be extended further here; treat as failure.  (Cannot
    // happen when t is in the tree: t extends every prefix of itself and
    // at != t, and at already matches h_match digits, so the stored nearest
    // extension matching h_match+1 > lcp(at, t) digits cannot be at.)
    throw std::logic_error("polystretch: self-extension at a non-destination");
  }
  // No extension in this tree: fall back to the source (failure detected).
  if (at_name == h.src) return Decision::deliver_here();  // caller escalates
  h.waypoint = h.src;
  h.leg = DtLeg{h.tree, h.src_label, true};
  DtStep step = dt_step(cover_, at, h.leg);
  if (step.arrived) {
    throw std::logic_error("polystretch: fallback trip arrived instantly");
  }
  return Decision::forward_on(step.port);
}

Decision PolyStretchScheme::forward(NodeId at, Header& h) const {
  const NodeName at_name = names_.name_of(at);
  switch (h.mode) {
    case Mode::kNew: {
      h.src = at_name;
      h.level = 0;
      h.mode = Mode::kEnroute;
      if (at_name == h.dest) {
        h.found = true;
        return Decision::deliver_here();
      }
      return start_level(at, h);
    }
    case Mode::kEnroute: {
      // Mid-leg step: dt_step only flips leg.going_up, which no header_bits
      // term reads, so the header's encoded size is unchanged.
      DtStep step = dt_step(cover_, at, h.leg);
      if (!step.arrived) return Decision::forward_same_size(step.port);
      if (at_name != h.waypoint) {
        throw std::logic_error("polystretch: trip ended at a non-waypoint");
      }
      if (h.found) {
        // Acknowledgment arriving back at the source.
        if (at_name != h.src) {
          throw std::logic_error("polystretch: ack ended away from source");
        }
        return Decision::deliver_here();
      }
      if (at_name == h.src) {
        // Failure return: escalate one level and retry (Fig. 11).
        ++h.level;
        return start_level(at, h);
      }
      return next_hop(at, h);
    }
    case Mode::kReturn: {
      // Host at t re-injects the packet; route to SourceLabel in the same
      // tree (Fig. 11's ReturnPacket branch).
      h.mode = Mode::kEnroute;
      if (at_name == h.src) return Decision::deliver_here();
      h.waypoint = h.src;
      h.leg = DtLeg{h.tree, h.src_label, true};
      DtStep step = dt_step(cover_, at, h.leg);
      if (step.arrived) {
        throw std::logic_error("polystretch: return trip arrived instantly");
      }
      return Decision::forward_on(step.port);
    }
  }
  throw std::logic_error("polystretch: bad mode");
}

std::int64_t PolyStretchScheme::header_bits(const Header& h) const {
  return 2 /* mode */ + 3 * bits_for(node_space_) /* dest, src, waypoint */ +
         1 /* found */ + bits_for(cover_.level_count() + 1) +
         bits_for(node_space_) + 8 /* tree ref */ +
         tree_label_bits(h.src_label, node_space_, port_space_) +
         tree_label_bits(h.leg.target, node_space_, port_space_) + 1;
}

void PolyStretchScheme::audit(AuditReport& report) const {
  auto scope = report.scope("polystretch");
  {
    auto names_scope = report.scope("names");
    names_.audit(report);
  }
  alphabet_.audit(report);
  if (hierarchy_ != nullptr) hierarchy_->audit(report);
  cover_.audit(report, hierarchy_.get());

  const auto n = static_cast<std::size_t>(names_.node_count());
  const auto memberships = static_cast<std::size_t>(cover_.size());
  const bool sized = cover_.node_count() == static_cast<NodeId>(n) &&
                     own_label_.size() == memberships &&
                     dict_off_.size() == memberships + 1;
  report.check("tables-sized", sized,
               "one label and dictionary row per cover-table membership");
  if (!sized) return;

  // Per-tree storage: every row is framed by the cover table (so it belongs
  // to a tree containing the node), and dictionary waypoints are real names.
  bool refs_ok = true;
  std::string refs_detail;
  for (std::size_t e = 0; e < dict_node_.size(); ++e) {
    if (dict_node_[e] < 0 || static_cast<std::size_t>(dict_node_[e]) >= n) {
      refs_ok = false;
      refs_detail = "dictionary entry " + std::to_string(e) +
                    " stores an out-of-range waypoint";
      break;
    }
  }
  report.check("per-tree-refs-valid", refs_ok, std::move(refs_detail));
}

TableStats PolyStretchScheme::table_stats() const {
  TableStats stats = hierarchy_node_stats(cover_, node_space_, port_space_);
  const NodeId n = cover_.node_count();
  const std::int64_t id_bits = bits_for(node_space_);
  for (NodeId v = 0; v < n; ++v) {
    std::int64_t entries = 0, bits = 0;
    for (std::int64_t m = cover_.begin(v); m < cover_.end(v); ++m) {
      const auto mz = static_cast<std::size_t>(m);
      ++entries;  // own label
      bits += tree_label_bits(own_label_.at(mz), node_space_, port_space_);
      for (auto e = static_cast<std::size_t>(dict_off_[mz]);
           e < static_cast<std::size_t>(dict_off_[mz + 1]); ++e) {
        ++entries;
        bits += id_bits /* key */ + id_bits +
                tree_label_bits(dict_label_.at(e), node_space_, port_space_);
      }
    }
    stats.add(v, entries, bits);
  }
  return stats;
}

}  // namespace rtr
