#include "rtz/rtz3_scheme.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <stdexcept>
#include <string>

#include "audit/audit.h"
#include "cover/double_tree.h"
#include "graph/apsp.h"
#include "io/arena.h"
#include "io/snapshot_format.h"
#include "rtz/centers.h"
#include "util/bit_cost.h"
#include "util/parallel.h"

namespace rtr {

Rtz3Scheme::Rtz3Scheme(const Digraph& g, const RoundtripMetric& metric,
                       const NameAssignment& names, Rng& rng, Options options)
    : graph_(g),
      names_(names),
      node_space_(g.node_count()),
      port_space_(g.port_space()) {
  const NodeId n = g.node_count();
  const int workers = resolve_apsp_threads(options.threads);
  const Digraph reversed = g.reversed();

  const bool phase_debug = std::getenv("RTR_RTZ_PHASE_DEBUG") != nullptr;
  auto t0 = std::chrono::steady_clock::now();
  auto lap = [&](const char* what) {
    if (!phase_debug) return;
    auto t1 = std::chrono::steady_clock::now();
    std::fprintf(stderr, "[rtz3 build] %-18s %8.1f ms\n", what,
                 std::chrono::duration<double, std::milli>(t1 - t0).count());
    t0 = t1;
  };

  // --- center selection with size verification -----------------------------
  const double nn = static_cast<double>(std::max<NodeId>(n, 2));
  const double budget = options.size_slack * std::sqrt(nn * (1.0 + std::log(nn)));
  if (options.greedy_centers) {
    // Greedy hitting set over the first-ceil(sqrt n) neighborhoods: caps
    // every ball at sqrt(n) deterministically.
    const auto hood = static_cast<NodeId>(
        std::ceil(std::sqrt(static_cast<double>(n))));
    std::vector<std::vector<NodeId>> hoods(static_cast<std::size_t>(n));
    parallel_tickets(n, workers, [&] {
      return [&](std::int64_t v) {
        hoods[static_cast<std::size_t>(v)] =
            metric.neighborhood(static_cast<NodeId>(v), hood, names_.names());
      };
    });
    balls_ = build_ball_system(metric, greedy_hitting_set(n, hoods), workers);
  } else {
    const NodeId centers = default_center_count(n);
    for (int attempt = 0; ; ++attempt) {
      balls_ =
          build_ball_system(metric, sample_centers(n, centers, rng), workers);
      resamples_used_ = attempt;
      if (static_cast<double>(balls_.max_ball_size()) <= budget &&
          static_cast<double>(balls_.max_cluster_size()) <= budget) {
        break;
      }
      if (attempt >= options.max_resample) break;  // accept; stats will show it
    }
  }
  lap("ball system");
  center_count_ = static_cast<std::int64_t>(balls_.centers.size());
  build_center_trees(reversed, workers);
  lap("center trees");
  build_ball_trees(reversed, workers);
  lap("ball trees");
}

void Rtz3Scheme::build_center_trees(const Digraph& reversed, int workers) {
  const NodeId n = graph_.node_count();
  const auto cc = static_cast<std::size_t>(center_count_);
  std::vector<Port> ctr_up(static_cast<std::size_t>(n) * cc, kNoPort);
  std::vector<TreeNodeTable> ctr_tab(static_cast<std::size_t>(n) * cc);
  addresses_.resize(static_cast<std::size_t>(n));

  // Center ci writes only column ci of the row-major n x center_count
  // arrays, so the fan-out is race-free without locks; each worker owns its
  // Dijkstra workspace.  Addresses ride along: node v's address label comes
  // from exactly its nearest center's tree, so ticket ci owns addresses_[v]
  // for its own cluster and the router can die with the ticket instead of
  // all center_count full-graph routers staying resident until a serial
  // address pass (at n = 16384 that retention alone was hundreds of MB).
  parallel_tickets(center_count_, workers, [&] {
    return [&, ws = DijkstraWorkspace{}](std::int64_t ci) mutable {
      const NodeId a = balls_.centers[static_cast<std::size_t>(ci)];
      OutTree out = dijkstra_out_tree(graph_, a, ws);
      InTree in = dijkstra_in_tree(graph_, reversed, a, ws);
      TreeRouter router(out);
      for (NodeId v = 0; v < n; ++v) {
        const std::size_t slot =
            static_cast<std::size_t>(v) * cc + static_cast<std::size_t>(ci);
        ctr_up[slot] = in.next_port[static_cast<std::size_t>(v)];
        ctr_tab[slot] = router.table(v);
        if (balls_.nearest_center[static_cast<std::size_t>(v)] ==
            static_cast<std::int32_t>(ci)) {
          addresses_[static_cast<std::size_t>(v)] =
              RtzAddress{names_.name_of(v), static_cast<std::int32_t>(ci),
                         router.label(v)};
        }
      }
    };
  });
  center_up_port_ = std::move(ctr_up);
  center_tree_tab_ = std::move(ctr_tab);
}

bool Rtz3Scheme::build_ball_trees(const Digraph& reversed, int workers,
                                  const Rtz3Scheme* old,
                                  std::span<const char> dirty) {
  const NodeId n = graph_.node_count();
  const auto nz = static_cast<std::size_t>(n);

  // The dictionaries' shapes follow from the ball system alone: row v of
  // the label dictionary holds the names of Ball(v)'s members, row w of the
  // membership dictionaries the names of the roots whose balls hold w (its
  // cluster), each row sorted by name.
  std::vector<std::int64_t> ball_off(nz + 1, 0), mem_off(nz + 1, 0);
  for (std::size_t v = 0; v < nz; ++v) {
    const auto id = static_cast<NodeId>(v);
    ball_off[v + 1] =
        ball_off[v] + static_cast<std::int64_t>(balls_.ball(id).size());
    mem_off[v + 1] =
        mem_off[v] + static_cast<std::int64_t>(balls_.cluster(id).size());
  }
  std::vector<NodeName> ball_key(static_cast<std::size_t>(ball_off[nz]));
  std::vector<NodeName> mem_key(static_cast<std::size_t>(mem_off[nz]));
  const auto sorted_names = [&](std::span<const NodeId> row, NodeName* out) {
    for (std::size_t i = 0; i < row.size(); ++i) {
      out[i] = names_.name_of(row[i]);
    }
    std::sort(out, out + row.size());
  };
  parallel_tickets(n, workers, [&] {
    return [&](std::int64_t v) {
      const auto id = static_cast<NodeId>(v);
      const auto vz = static_cast<std::size_t>(v);
      sorted_names(balls_.ball(id), ball_key.data() + ball_off[vz]);
      sorted_names(balls_.cluster(id), mem_key.data() + mem_off[vz]);
    };
  });
  ball_off_ = std::move(ball_off);
  ball_key_ = std::move(ball_key);
  member_off_ = std::move(mem_off);
  member_key_ = std::move(mem_key);

  // A ball tree rooted at v fills one label slot in v's row and one table
  // and up-port slot in every member's row; the slots of distinct (root,
  // member) pairs are distinct, so roots fan out without locks.  Labels
  // vary in length, so they are staged per root and packed serially in
  // root order; chunking bounds the staging to O(chunk * max_ball).
  std::vector<TreeNodeTable> mem_tab(member_key_.size());
  std::vector<Port> mem_up(member_key_.size(), kNoPort);
  PackedLabels<std::int64_t>::Builder labels;
  std::atomic<bool> missing{false};
  const NodeId chunk_size = std::max<NodeId>(64, 16 * workers);
  std::vector<std::vector<TreeLabel>> staged(
      static_cast<std::size_t>(std::min<NodeId>(n, chunk_size)));
  for (NodeId lo = 0; lo < n; lo += chunk_size) {
    const NodeId hi = std::min<NodeId>(n, lo + chunk_size);
    parallel_tickets(hi - lo, workers, [&] {
      return [&, ws = DoubleTreeWorkspace{}](std::int64_t ticket) mutable {
        const NodeId v = lo + static_cast<NodeId>(ticket);
        const auto vz = static_cast<std::size_t>(v);
        const NodeName root_name = names_.name_of(v);
        const auto members = balls_.ball(v);
        const NodeName* keys = ball_key_.data() + ball_off_[vz];
        auto& row = staged[static_cast<std::size_t>(ticket)];
        row.resize(members.size());
        const auto put = [&](NodeId w, TreeLabel label,
                             const TreeNodeTable& tab, Port up) {
          const NodeName name = names_.name_of(w);
          row[static_cast<std::size_t>(
              std::lower_bound(keys, keys + members.size(), name) - keys)] =
              std::move(label);
          const std::size_t e = member_entry(w, root_name);
          mem_tab[e] = tab;
          mem_up[e] = up;
        };
        if (old != nullptr && dirty[vz] == 0) {
          for (const NodeId w : members) {
            auto label = old->find_ball_label(v, names_.name_of(w));
            const TreeNodeTable* tab = old->find_member_table(w, root_name);
            const Port* up = old->find_member_up_port(w, root_name);
            if (!label.has_value() || tab == nullptr || up == nullptr) {
              missing.store(true, std::memory_order_relaxed);
              return;
            }
            put(w, std::move(*label), *tab, *up);
          }
          return;
        }
        const DoubleTree tree(graph_, reversed, v,
                              std::vector<NodeId>(members.begin(),
                                                  members.end()),
                              ws);
        for (const NodeId w : members) {
          put(w, tree.out_router().label(w), tree.out_router().table(w),
              tree.up_port(w));
        }
      };
    });
    if (missing.load()) return false;
    for (NodeId v = lo; v < hi; ++v) {
      for (const TreeLabel& label : staged[static_cast<std::size_t>(v - lo)]) {
        labels.add(label);
      }
    }
  }
  ball_label_ = labels.build();
  member_tab_ = std::move(mem_tab);
  member_up_ = std::move(mem_up);
  return true;
}

LegStep Rtz3Scheme::start_leg(NodeId at, const RtzAddress& target,
                              LegHeader& leg) const {
  leg = LegHeader{};
  leg.target = target;
  if (names_.name_of(at) == target.name) return LegStep{true, kNoPort};
  if (auto label = find_ball_label(at, target.name)) {
    leg.phase = LegPhase::kBallDown;
    leg.ball_root = names_.name_of(at);
    leg.ball_label = std::move(*label);
  } else if (find_member_up_port(at, target.name) != nullptr) {
    leg.phase = LegPhase::kBallUp;
  } else {
    leg.phase = LegPhase::kCenterUp;
  }
  return step_leg(at, leg);
}

LegStep Rtz3Scheme::step_leg(NodeId at, LegHeader& leg) const {
  const auto vz = static_cast<std::size_t>(at);
  const auto cc = static_cast<std::size_t>(center_count_);
  const NodeName at_name = names_.name_of(at);
  switch (leg.phase) {
    case LegPhase::kBallDown: {
      const TreeNodeTable* tab = find_member_table(at, leg.ball_root);
      if (tab == nullptr) {
        throw std::logic_error("rtz3: ball-down step left the ball");
      }
      Port p = tree_next_port(*tab, leg.ball_label);
      if (p == kNoPort) return LegStep{true, kNoPort};
      return LegStep{false, p};
    }
    case LegPhase::kBallUp: {
      if (at_name == leg.target.name) return LegStep{true, kNoPort};
      const Port* up = find_member_up_port(at, leg.target.name);
      if (up == nullptr) {
        throw std::logic_error("rtz3: ball-up step left the ball");
      }
      return LegStep{false, *up};
    }
    case LegPhase::kCenterUp: {
      const auto ci = static_cast<std::size_t>(leg.target.center_index);
      if (balls_.centers[ci] == at) {
        leg.phase = LegPhase::kCenterDown;
        return step_leg(at, leg);
      }
      return LegStep{false, center_up_port_[vz * cc + ci]};
    }
    case LegPhase::kCenterDown: {
      const auto ci = static_cast<std::size_t>(leg.target.center_index);
      Port p = tree_next_port(center_tree_tab_[vz * cc + ci],
                              leg.target.center_label);
      if (p == kNoPort) return LegStep{true, kNoPort};
      return LegStep{false, p};
    }
  }
  throw std::logic_error("rtz3: bad leg phase");
}

std::int64_t Rtz3Scheme::address_bits(const RtzAddress& a) const {
  return bits_for(node_space_) +
         bits_for(static_cast<std::int64_t>(balls_.centers.size())) +
         tree_label_bits(a.center_label, node_space_, port_space_);
}

std::int64_t Rtz3Scheme::leg_header_bits(const LegHeader& leg) const {
  return 2 /* phase */ + address_bits(leg.target) + bits_for(node_space_) +
         tree_label_bits(leg.ball_label, node_space_, port_space_);
}

Rtz3Scheme::Header Rtz3Scheme::make_packet(NodeName dest) const {
  Header h;
  h.mode = Mode::kNew;
  h.dest = dest;
  // Name-dependent model: the sender is handed the destination's address
  // along with the packet (Section 1: "the packet destined for i arrives
  // also with a short address in its header").
  h.dest_addr = address_of_name(dest);
  return h;
}

Decision Rtz3Scheme::forward(NodeId at, Header& h) const {
  switch (h.mode) {
    case Mode::kNew: {
      h.src = names_.name_of(at);
      h.src_addr = own_address(at);
      h.mode = Mode::kOutbound;
      LegStep s = start_leg(at, h.dest_addr, h.leg);
      if (s.arrived) return Decision::deliver_here();
      return Decision::forward_on(s.port);
    }
    case Mode::kOutbound: {
      // step_leg only flips the leg phase (kCenterUp -> kCenterDown); the
      // target address and ball label -- everything leg_header_bits sums --
      // are untouched, so the encoded size cannot change mid-leg.
      LegStep s = step_leg(at, h.leg);
      if (s.arrived) return Decision::deliver_here();
      return Decision::forward_same_size(s.port);
    }
    case Mode::kReturn: {
      h.mode = Mode::kInbound;
      LegStep s = start_leg(at, h.src_addr, h.leg);
      if (s.arrived) return Decision::deliver_here();
      return Decision::forward_on(s.port);
    }
    case Mode::kInbound: {
      LegStep s = step_leg(at, h.leg);
      if (s.arrived) return Decision::deliver_here();
      return Decision::forward_same_size(s.port);
    }
  }
  throw std::logic_error("rtz3: bad mode");
}

std::int64_t Rtz3Scheme::header_bits(const Header& h) const {
  return 2 /* mode */ + 2 * bits_for(node_space_) + address_bits(h.dest_addr) +
         address_bits(h.src_addr) + leg_header_bits(h.leg);
}

TableStats Rtz3Scheme::table_stats() const {
  const auto n = static_cast<NodeId>(addresses_.size());
  TableStats stats(n);
  const std::int64_t id_bits = bits_for(node_space_);
  const std::int64_t port_bits = bits_for(port_space_);
  for (NodeId v = 0; v < n; ++v) {
    const auto vz = static_cast<std::size_t>(v);
    std::int64_t entries = 0, bits = 0;
    entries += center_count_;
    bits += center_count_ * port_bits;
    entries += center_count_;
    bits += center_count_ * (id_bits + port_bits);
    for (auto e = static_cast<std::size_t>(ball_off_[vz]);
         e < static_cast<std::size_t>(ball_off_[vz + 1]); ++e) {
      ++entries;
      bits += id_bits +
              tree_label_bits(ball_label_.at(e), node_space_, port_space_);
    }
    const std::int64_t members = member_off_[vz + 1] - member_off_[vz];
    entries += members;  // member_out_tab
    bits += members * (id_bits + id_bits + port_bits);
    entries += members;  // member_up_port
    bits += members * (id_bits + port_bits);
    // Own address.
    ++entries;
    bits += address_bits(addresses_[vz]);
    stats.add(v, entries, bits);
  }
  return stats;
}

void Rtz3Scheme::audit(AuditReport& report) const {
  auto scope = report.scope("rtz3");
  balls_.audit(report);

  const auto n = static_cast<std::size_t>(graph_.node_count());
  report.check("tables-sized",
               addresses_.size() == n && ball_off_.size() == n + 1 &&
                   member_off_.size() == n + 1 &&
                   ball_label_.size() == ball_key_.size() &&
                   member_tab_.size() == member_key_.size() &&
                   member_up_.size() == member_key_.size() &&
                   names_.node_count() == graph_.node_count(),
               "one address and one table row per node, parallel payload "
               "arrays sized to their key arrays");
  if (addresses_.size() != n || ball_off_.size() != n + 1 ||
      member_off_.size() != n + 1 ||
      ball_label_.size() != ball_key_.size() ||
      member_tab_.size() != member_key_.size() ||
      member_up_.size() != member_key_.size() ||
      static_cast<std::size_t>(balls_.node_count()) != n ||
      balls_.nearest_center.size() != n) {
    return;  // per-node walks below depend on the sizing above
  }

  // CSR shape of the dictionary offsets: the row walks below assume it.
  const auto csr_ok = [](const FlatVec<std::int64_t>& off,
                         std::size_t entries) {
    if (off.front() != 0 || off.back() != static_cast<std::int64_t>(entries)) {
      return false;
    }
    for (std::size_t i = 0; i + 1 < off.size(); ++i) {
      if (off[i] > off[i + 1]) return false;
    }
    return true;
  };
  const bool offsets_ok = csr_ok(ball_off_, ball_key_.size()) &&
                          csr_ok(member_off_, member_key_.size()) &&
                          ball_label_.well_formed();
  report.check("dict-offsets-wellformed", offsets_ok,
               "dictionary CSR offsets must rise monotonically from 0 to "
               "their entry array sizes");
  if (!offsets_ok) return;

  // Addresses: R3(v) must carry v's own name and its nearest center.
  bool addr_ok = true;
  std::string addr_detail;
  for (std::size_t v = 0; addr_ok && v < n; ++v) {
    const RtzAddress& a = addresses_[v];
    if (a.name != names_.name_of(static_cast<NodeId>(v))) {
      addr_ok = false;
      addr_detail = "address of node " + std::to_string(v) +
                    " carries the wrong name";
    } else if (a.center_index < 0 ||
               static_cast<std::size_t>(a.center_index) >=
                   balls_.centers.size() ||
               a.center_index != balls_.nearest_center[v]) {
      addr_ok = false;
      addr_detail = "address of node " + std::to_string(v) +
                    " does not point at its nearest center";
    }
  }
  report.check("addresses-consistent", addr_ok, std::move(addr_detail));

  // Center arrays: one row-major n x center_count block each.
  const auto expected =
      n * static_cast<std::size_t>(balls_.centers.size());
  report.check("center-arrays-sized",
               static_cast<std::size_t>(center_count_) ==
                       balls_.centers.size() &&
                   center_up_port_.size() == expected &&
                   center_tree_tab_.size() == expected,
               "center arrays must be row-major n x center_count");

  // Dictionary rows: sorted unique keys; populations matching the ball and
  // cluster rows they were built from.  One aggregated entry per invariant
  // (n nodes x 2 key arrays would drown the report).
  bool dicts_sorted = true;
  bool dicts_populated = true;
  std::string sorted_detail, populated_detail;
  const auto row_sorted = [](const FlatVec<NodeName>& keys, std::int64_t lo,
                             std::int64_t hi) {
    for (std::int64_t i = lo + 1; i < hi; ++i) {
      if (keys[static_cast<std::size_t>(i - 1)] >=
          keys[static_cast<std::size_t>(i)]) {
        return false;
      }
    }
    return true;
  };
  for (std::size_t v = 0; v < n; ++v) {
    const auto vid = static_cast<NodeId>(v);
    if (dicts_sorted &&
        !(row_sorted(ball_key_, ball_off_[v], ball_off_[v + 1]) &&
          row_sorted(member_key_, member_off_[v], member_off_[v + 1]))) {
      dicts_sorted = false;
      sorted_detail = "a dictionary row of node " + std::to_string(v) +
                      " has unsorted or duplicate keys";
    }
    if (dicts_populated &&
        (ball_off_[v + 1] - ball_off_[v] !=
             static_cast<std::int64_t>(balls_.ball(vid).size()) ||
         member_off_[v + 1] - member_off_[v] !=
             static_cast<std::int64_t>(balls_.cluster(vid).size()))) {
      dicts_populated = false;
      populated_detail = "dictionary population of node " + std::to_string(v) +
                         " does not match its ball/cluster sizes";
    }
  }
  report.check("dicts-sorted-unique", dicts_sorted, std::move(sorted_detail));
  report.check("dicts-match-balls", dicts_populated,
               std::move(populated_detail));
}

// ------------------------------------------------------------------- arena --

void Rtz3Scheme::save_arena(ArenaWriter& w, const std::string& prefix) const {
  balls_.save_arena(w, prefix + "balls/");
  w.add(prefix + "ctr_up", center_up_port_);
  w.add(prefix + "ctr_tab", center_tree_tab_);
  w.add(prefix + "ball_off", ball_off_);
  w.add(prefix + "ball_key", ball_key_);
  ball_label_.save_arena(w, prefix + "ball_");
  w.add(prefix + "mem_off", member_off_);
  w.add(prefix + "mem_key", member_key_);
  w.add(prefix + "mem_tab", member_tab_);
  w.add(prefix + "mem_up", member_up_);

  // Addresses, packed like the ball labels (the name field is implied:
  // entry v carries names.name_of(v)).
  std::vector<std::int32_t> actr;
  PackedLabels<std::int64_t>::Builder alabel;
  actr.reserve(addresses_.size());
  for (const RtzAddress& a : addresses_) {
    actr.push_back(a.center_index);
    alabel.add(a.center_label);
  }
  w.add(prefix + "addr_center", actr);
  alabel.build().save_arena(w, prefix + "addr_");

  SnapshotWriter meta;
  meta.i32(resamples_used_);
  meta.i64(node_space_);
  meta.i64(port_space_);
  const auto& meta_bytes = meta.bytes();
  w.add_bytes(prefix + "meta", meta_bytes.data(), meta_bytes.size());
}

Rtz3Scheme Rtz3Scheme::from_arena(const ArenaView& a, const std::string& prefix,
                                  const Digraph& g,
                                  const NameAssignment& names) {
  Rtz3Scheme s(g, names);
  s.balls_ = BallSystem::from_arena(a, prefix + "balls/");
  const auto n = static_cast<std::uint64_t>(g.node_count());
  if (static_cast<std::uint64_t>(s.balls_.node_count()) != n) {
    throw SnapshotArenaError(
        "arena: rtz3 ball system does not match the graph");
  }
  s.center_count_ = static_cast<std::int64_t>(s.balls_.centers.size());
  const std::uint64_t cells = n * static_cast<std::uint64_t>(s.center_count_);
  s.center_up_port_ = a.vec<Port>(prefix + "ctr_up", cells);
  s.center_tree_tab_ = a.vec<TreeNodeTable>(prefix + "ctr_tab", cells);
  s.ball_off_ = a.vec<std::int64_t>(prefix + "ball_off", n + 1);
  s.ball_key_ = a.vec<NodeName>(prefix + "ball_key");
  s.ball_label_ = PackedLabels<std::int64_t>::from_arena(a, prefix + "ball_",
                                                         s.ball_key_.size());
  s.member_off_ = a.vec<std::int64_t>(prefix + "mem_off", n + 1);
  s.member_key_ = a.vec<NodeName>(prefix + "mem_key");
  s.member_tab_ =
      a.vec<TreeNodeTable>(prefix + "mem_tab", s.member_key_.size());
  s.member_up_ = a.vec<Port>(prefix + "mem_up", s.member_key_.size());
  check_csr_offsets(s.ball_off_, s.ball_key_.size(), prefix + "ball_off");
  check_csr_offsets(s.member_off_, s.member_key_.size(), prefix + "mem_off");

  // Rebuild the O(n) address list (small: one label per node, hops inline
  // for the dominant <= 8 case).
  const auto actr = a.vec<std::int32_t>(prefix + "addr_center", n);
  const auto alabel =
      PackedLabels<std::int64_t>::from_arena(a, prefix + "addr_", n);
  s.addresses_.resize(static_cast<std::size_t>(n));
  for (std::size_t v = 0; v < static_cast<std::size_t>(n); ++v) {
    s.addresses_[v] = RtzAddress{names.name_of(static_cast<NodeId>(v)),
                                 actr[v], alabel.at(v)};
  }

  SnapshotReader meta = a.reader(prefix + "meta");
  s.resamples_used_ = meta.i32();
  s.node_space_ = meta.i64();
  s.port_space_ = meta.i64();
  meta.expect_exhausted("rtz3 arena meta");

  s.arena_ = a.storage();
  return s;
}

}  // namespace rtr
