// The packet-walk simulator (Section 1.1.1's execution model).
//
// A roundtrip routing scheme must provide:
//   (1) per-node routing tables (built at preprocessing),
//   (2) a forwarding function F(table(x), header(P)) evaluated locally,
//       returning the outgoing port and mutating the writable header.
//
// The simulator injects a packet at the source carrying only the destination
// *name* (TINN model), repeatedly applies the forwarding function, resolves
// ports against the graph "hardware", and measures: weighted path length out
// and back, hop counts, and the maximum header size in bits.  A hop budget
// guards against forwarding loops (a scheme bug, reported as a failure, never
// an infinite loop).
//
// Scheme concept:
//   using Header = ...;                               // writable header
//   Header make_packet(NodeName dest) const;          // name-only header
//   void prepare_return(Header&) const;               // host flips to ReturnPacket
//   Decision forward(NodeId at, Header&) const;       // local function F
//   std::int64_t header_bits(const Header&) const;    // encoded size
//
// simulate_roundtrip below is the only walk in the repo.  The abstract
// rtr::Scheme (net/scheme.h) reaches it through Scheme::simulate, which the
// adapters implement as this template over the concrete scheme, so the
// header stays on the walking thread's stack and the per-hop calls are
// direct.
#ifndef RTR_NET_SIMULATOR_H
#define RTR_NET_SIMULATOR_H

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "graph/digraph.h"
#include "net/table_stats.h"
#include "util/types.h"

namespace rtr {

/// What the forwarding function tells the router to do.
struct Decision {
  bool deliver = false;  // hand the packet to the host at this node
  Port port = kNoPort;   // otherwise: forward on this port
  /// False promises that this step did not change the header's *encoded
  /// size* (content may still have changed), so the walk skips re-measuring
  /// header_bits for the hop, the dominant per-hop cost for label-carrying
  /// schemes.  Schemes give the hint on the hops inside one leg that has not
  /// arrived, where only the leg's up/down phase changes: rtz3 and the
  /// schemes riding its legs (stretch6, stretch6-detour, hashed64), and the
  /// double-tree schemes (exstretch, polystretch, HierarchyLabelScheme).
  /// Launches, fallbacks, escalations and returns keep the default;
  /// fulltable never hints.  Builds without NDEBUG verify every hint: they
  /// re-measure after each same-size hop and throw std::logic_error when the
  /// size moved (QueryEngine counts that as a failed query), so a wrong hint
  /// cannot hide a header that grew.  The default (true) re-measures.
  bool header_resized = true;
  static Decision deliver_here() { return Decision{true, kNoPort, true}; }
  static Decision forward_on(Port p) { return Decision{false, p, true}; }
  /// Forward, promising the header's encoded size is unchanged.
  static Decision forward_same_size(Port p) { return Decision{false, p, false}; }
};

/// Outcome of one roundtrip simulation.
struct RouteResult {
  bool delivered_out = false;   // packet reached the destination host
  bool delivered_back = false;  // acknowledgment reached the source host
  Dist out_length = 0;          // weighted length of the forward route
  Dist back_length = 0;         // weighted length of the return route
  std::int64_t out_hops = 0;
  std::int64_t back_hops = 0;
  std::int64_t max_header_bits = 0;
  std::vector<NodeId> out_path;  // filled when SimOptions::record_paths
  std::vector<NodeId> back_path;

  [[nodiscard]] bool ok() const { return delivered_out && delivered_back; }
  [[nodiscard]] Dist roundtrip_length() const { return out_length + back_length; }
};

struct SimOptions {
  bool record_paths = false;
};

/// Satisfied by the duck-typed scheme concept (a concrete Header type).  The
/// abstract rtr::Scheme has none: it is walked through Scheme::simulate.
template <typename S>
concept TemplatedScheme = requires { typename S::Header; };

/// True where simulate_roundtrip checks every same-size hint it is given.
#ifdef NDEBUG
inline constexpr bool kVerifyHeaderSizeHints = false;
#else
inline constexpr bool kVerifyHeaderSizeHints = true;
#endif

/// Runs source -> destination -> source.  `src` / `dst` are internal ids (the
/// injection points); the header the scheme sees carries names only.
/// `dst_name` is whatever the scheme's make_packet takes: a TINN NodeName,
/// or hashed64's self-chosen 64-bit name.
template <TemplatedScheme Scheme, typename Name = NodeName>
RouteResult simulate_roundtrip(const Digraph& g, const Scheme& scheme,
                               NodeId src, NodeId dst, Name dst_name,
                               SimOptions opt = {}) {
  RouteResult res;
  // Hops per leg before the walk calls it a forwarding loop.
  const std::int64_t budget = 16 * static_cast<std::int64_t>(g.node_count()) + 64;
  typename Scheme::Header header = scheme.make_packet(dst_name);
  std::int64_t bits = scheme.header_bits(header);  // last measured size
  res.max_header_bits = bits;

  auto run_leg = [&](NodeId from, NodeId expect, Dist& length,
                     std::int64_t& hops, std::vector<NodeId>& path) {
    NodeId at = from;
    if (opt.record_paths) path.push_back(at);
    for (std::int64_t step = 0; step <= budget; ++step) {
      Decision d = scheme.forward(at, header);
      if (d.header_resized || kVerifyHeaderSizeHints) {
        const std::int64_t now = scheme.header_bits(header);
        if (kVerifyHeaderSizeHints && !d.header_resized && now != bits) {
          throw std::logic_error(
              "simulate_roundtrip: a same-size hop changed the header size");
        }
        bits = now;
        res.max_header_bits = std::max(res.max_header_bits, bits);
      }
      if (d.deliver) return at == expect;
      const Edge* e = g.edge_by_port(at, d.port);
      if (e == nullptr) {
        throw std::logic_error("simulate_roundtrip: scheme emitted unknown port");
      }
      length += e->weight;
      ++hops;
      at = e->to;
      if (opt.record_paths) path.push_back(at);
    }
    return false;  // hop budget exhausted: forwarding loop
  };

  res.delivered_out = run_leg(src, dst, res.out_length, res.out_hops, res.out_path);
  if (!res.delivered_out) return res;

  scheme.prepare_return(header);
  bits = scheme.header_bits(header);
  res.max_header_bits = std::max(res.max_header_bits, bits);
  res.delivered_back =
      run_leg(dst, src, res.back_length, res.back_hops, res.back_path);
  return res;
}

}  // namespace rtr

#endif  // RTR_NET_SIMULATOR_H
