// Topology helpers for multi-switch networks.
//
// Two families share one struct:
//
//  * Direct networks (kMesh2D / kTorus2D / kRing): every node is a switch
//    with an attached endpoint; coordinate arithmetic plus dimension-order
//    (XY) routing.
//
//  * Multistage interconnection networks (kBanyan / kOmega / kClos): nodes
//    are *switching elements* arranged in stages() columns of
//    elements_per_stage() elements each; endpoints attach only at the first
//    stage's inputs and the last stage's outputs. Per-stage routing is a
//    single destination-address digit test (route_stage), per the classic
//    banyan construction: stage s of a log2(N)-stage network corrects bit
//    n-1-s of the line number, so a head flit needs no routing table at all.
//
//    - kBanyan: the butterfly wiring. Element e at stage s switches the two
//      lines that differ in bit k_s = n-1-s; line numbers are preserved
//      between stages.
//    - kOmega: a perfect shuffle (rotate-left of the n-bit line number)
//      precedes every stage; elements pair consecutive shuffled lines.
//    - kClos: the 3-stage symmetric Clos C(k, k, k): k ingress, k middle and
//      k egress elements of k ports each, N = k^2 endpoints. Ingress j's
//      output p reaches middle p's input j; middle m's output q reaches
//      egress q's input m. The middle element is picked deterministically
//      per message ((in_port + dest) % k) so load spreads without a global
//      scheduler.

#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "common/util.hpp"

namespace pmsb::net {

enum class TopologyKind { kMesh2D, kTorus2D, kRing, kBanyan, kOmega, kClos };

/// Router port roles for a 2D network (plus the terminal port).
enum Port : unsigned { kEast = 0, kWest = 1, kNorth = 2, kSouth = 3, kLocal = 4, kNumPorts = 5 };

/// The port on the receiving router that faces a transmission through
/// `port` (east <-> west, north <-> south). Direct networks only.
Port opposite(Port port);

struct Topology {
  TopologyKind kind = TopologyKind::kMesh2D;
  unsigned width = 4;   ///< Columns; ring length; multistage: endpoints N.
  unsigned height = 4;  ///< Rows (1 for ring and every multistage kind).
  unsigned radix = 2;   ///< kClos element size k (N must equal k*k); fixed 2
                        ///< for kBanyan / kOmega, ignored by direct kinds.

  bool multistage() const {
    return kind == TopologyKind::kBanyan || kind == TopologyKind::kOmega ||
           kind == TopologyKind::kClos;
  }

  /// Terminals that inject/eject traffic: every node for direct networks,
  /// `width` first-stage inputs / last-stage outputs for multistage kinds.
  unsigned endpoints() const { return multistage() ? width : nodes(); }

  /// Multistage column count: log2(N) for banyan/omega, 3 for Clos.
  /// 0 for direct networks.
  unsigned stages() const;

  /// Elements per multistage column: N/2 for banyan/omega, k for Clos.
  unsigned elements_per_stage() const;

  /// Switching nodes: width*height for direct networks,
  /// stages() * elements_per_stage() for multistage kinds (node id =
  /// stage * elements_per_stage() + element).
  unsigned nodes() const {
    return multistage() ? stages() * elements_per_stage() : width * height;
  }
  /// Multistage only (direct kinds have no stages to divide by).
  unsigned stage_of(unsigned node) const {
    PMSB_CHECK(multistage(), "stage_of is for multistage kinds");
    return node / elements_per_stage();
  }
  unsigned element_of(unsigned node) const {
    PMSB_CHECK(multistage(), "element_of is for multistage kinds");
    return node % elements_per_stage();
  }
  unsigned node_id(unsigned stage, unsigned element) const {
    return stage * elements_per_stage() + element;
  }

  unsigned x_of(unsigned node) const { return node % width; }
  unsigned y_of(unsigned node) const { return node / width; }
  unsigned node_at(unsigned x, unsigned y) const { return y * width + x; }

  /// Direct networks: neighbour of `node` through `port`, or -1 at a mesh
  /// edge. Multistage kinds: the next-stage element reached through output
  /// `port` (use the unsigned overload for Clos radix > 4), or -1 from the
  /// last stage (those outputs face egress endpoints, not elements).
  int neighbor(unsigned node, Port port) const;
  int neighbor(unsigned node, unsigned out_port) const;

  /// Multistage: the input port on neighbor(node, out_port) that this link
  /// drives (the analogue of opposite() for stage wiring).
  unsigned peer_in_port(unsigned node, unsigned out_port) const;

  /// Multistage ingress: the (first-stage node, input port) endpoint `e`
  /// injects into.
  std::pair<unsigned, unsigned> ingress_of(unsigned endpoint) const;

  /// Multistage egress: the endpoint behind output `out_port` of last-stage
  /// `node`.
  unsigned egress_endpoint(unsigned node, unsigned out_port) const;

  /// Multistage per-stage routing: the output port a head flit at `node`
  /// (arrived on `in_port`) must take toward endpoint `dest`. For banyan
  /// and omega this is the single destination-bit test (bit n-1-s at stage
  /// s); for Clos it is the middle spread rule at the ingress stage and a
  /// destination-digit test after.
  unsigned route_stage(unsigned node, unsigned in_port, unsigned dest) const;

  /// Dimension-order (X then Y) routing: the output port a head flit at
  /// `node` destined to `dest` must take. kLocal when node == dest.
  /// For tori, routes take the shorter direction (ties go positive).
  /// Direct networks only.
  Port route_xy(unsigned node, unsigned dest) const;

  /// Router ports a node of this topology needs: 2 for a ring (east/west)
  /// and for banyan/omega elements, `radix` for Clos elements, 4 for the
  /// 2D fabrics.
  unsigned required_ports() const {
    if (kind == TopologyKind::kRing) return 2;
    if (kind == TopologyKind::kBanyan || kind == TopologyKind::kOmega) return 2;
    if (kind == TopologyKind::kClos) return radix;
    return 4;
  }

  /// Direct networks: length of the route_xy path from `a` to `b` in links
  /// (0 when a == b). Multistage kinds: inter-element links on the unique
  /// (banyan/omega) or chosen (Clos) path between endpoints `a` and `b` --
  /// stages() - 1 for every pair, including a == b (a message to self still
  /// traverses the whole network; there is no local bypass).
  unsigned hops(unsigned a, unsigned b) const;

  /// Maximum hops() over all node pairs. (The fabric engine sizes its
  /// sampling-frame ring from its task graph instead, built from its own
  /// link edge list, which also carries the wormhole fabrics' reverse
  /// credit links.)
  unsigned diameter() const;

  /// Human-readable form for banners and tables, e.g. "torus2d 8x8",
  /// "banyan 16", "clos 16 (radix 4)".
  std::string describe() const;
};

}  // namespace pmsb::net
