// The cell transport of the torus and ring fabrics: per-link parts that
// move cells between the channel rings (src/fabric/channel.hpp) and a node's
// switch, the per-node traffic endpoints, and CellNode, which bundles them
// into one fabric node (src/fabric/node.hpp).
//
// Each directed inter-node link has two parts:
//
//   TxTap      (producer node)   copies the upstream switch's out-wire into
//                                the channel ring, one flit per cycle.
//   PortBridge (consumer node)   reassembles arriving cells from the
//                                channel, ejects the ones addressed to this
//                                node, rewrites the head word of transit
//                                cells for their next hop (dimension-order
//                                routing), and time-multiplexes transit
//                                traffic with locally injected cells onto
//                                the node's in-wire. Transit has priority;
//                                injection only fills idle cell slots.
//
// Each node's traffic source is a traffic::Arrivals (src/traffic/arrivals.hpp),
// the arrival process the wormhole routers own too. The node's first bridge
// steps it and alone injects. Its destinations never include the node
// itself (SelfRule::kExcluded): a cell-fabric node has no local port.
//
// Bridges and taps are parts of one engine component, not components of
// their own: CellNode registers itself as the node's single Component and
// steps its switch, then its bridges, then its taps (commit: the switch,
// then the bridges), calling the final classes directly. Quiescence, wake
// and skip are the AND / min / forward over the same parts.
//
// Fabric cell wire format (CellCodec), riding inside the node switches'
// ordinary L-word cells:
//
//   word 0  [ hop out-port : dest_bits | destination node : tag bits ]
//   word 1  source node
//   word 2  per-source sequence number (low 16 bits)
//   word 3  injection cycle (low 16 bits; latencies valid below 2^16)
//   word 4+ payload derived from the cell uid with an avalanche mixer
//
// Only word 0 changes en route (the hop field is rewritten per hop), so the
// ejector can verify the payload end to end and reconstruct the uid
// (source << 16 | sequence) for the order-sensitive delivery digest.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "check/invariants.hpp"
#include "common/cell.hpp"
#include "common/rng.hpp"
#include "common/util.hpp"
#include "core/fast_switch.hpp"
#include "core/switch.hpp"
#include "fabric/channel.hpp"
#include "fabric/node.hpp"
#include "net/topology.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/engine.hpp"
#include "sim/wire.hpp"
#include "stats/hdr_histogram.hpp"
#include "traffic/arrivals.hpp"

namespace pmsb::fabric {

/// Encode/decode of the fabric wire format described above.
struct CellCodec {
  CellFormat fmt;
  unsigned node_bits = 0;  ///< bits_for(#nodes); must fit fmt.tag_bits().

  Word word_mask() const { return low_mask(fmt.word_bits); }

  /// Head word for a cell leaving the current node through `out_port`.
  Word head(unsigned out_port, unsigned dest_node) const {
    return (static_cast<Word>(out_port) |
            (static_cast<Word>(dest_node) << fmt.dest_bits)) & word_mask();
  }
  unsigned dest_node_of(Word head_word) const {
    return static_cast<unsigned>(decode_tag(head_word, fmt));
  }

  static std::uint64_t uid(std::uint64_t src_node, std::uint64_t seq) {
    return (src_node << 16) | (seq & 0xFFFF);
  }
  Word payload(std::uint64_t cell_uid, unsigned k) const {
    return mix64(cell_uid + 0x9e3779b97f4a7c15ULL * k) & word_mask();
  }

  /// All L words of a freshly injected cell.
  std::vector<Word> build(unsigned out_port, unsigned dest_node, unsigned src_node,
                          std::uint64_t seq, Cycle created) const;
  /// build() into caller-owned storage of L words.
  void fill(Word* w, unsigned out_port, unsigned dest_node, unsigned src_node,
            std::uint64_t seq, Cycle created) const;
};

/// Per-node traffic sink: end-to-end delivery accounting. Written only by
/// this node's bridges (all in one task), read at round boundaries and after
/// the run.
struct Ejector {
  std::uint64_t delivered = 0;
  std::uint64_t payload_errors = 0;  ///< Cells whose payload words mismatched.
  std::uint64_t digest = 0;          ///< Order-sensitive mix of delivered uids.
  std::uint64_t lat_sum = 0;
  Cycle lat_min = 0;
  Cycle lat_max = 0;
  /// End-to-end latency distribution; merged across nodes (node order) into
  /// FabricStats::latency for fabric-wide percentiles.
  HdrHistogram lat_hist;

  struct HopBucket {
    std::uint64_t cells = 0;
    std::uint64_t lat_sum = 0;
  };
  std::vector<HopBucket> by_hops;  ///< Indexed by route length in links.

  void deliver(std::uint64_t uid, Cycle latency, unsigned hops, bool payload_ok);
};

/// Copies the upstream switch's out-wire into the channel, making the word
/// visible to the consumer task `delay` cycles later.
class TxTap final : public Component {
 public:
  TxTap(WireLink* from, Channel* ch) : from_(from), ch_(ch) {}

  void eval(Cycle t) override { ch_->write(t, from_->now()); }
  void commit(Cycle) override {}
  bool has_commit() const override { return false; }
  /// Skipping suppresses the per-cycle write of an invalid flit; the fabric
  /// compensates by clearing the skipped window (Channel::clear_range).
  bool is_quiescent(Cycle) const override { return !from_->now().valid; }
  std::string name() const override { return "fabric_tx_tap"; }

 private:
  WireLink* from_;
  Channel* ch_;
};

/// Consumer-side link endpoint (see file comment).
///
/// Cells live in a fixed pool of kPoolCells L-word buffers owned by the
/// bridge, so relaying or injecting a cell allocates nothing: a buffer is
/// taken when a head arrives or an injection starts, and is handed from
/// reassembly to the staged slot, the transit queue and the transmitter by
/// index, returning to the pool once its cell is ejected or fully sent.
/// Under PMSB_CHECK=1 every eval recounts the pool (free + in use = pool).
class PortBridge final : public Component {
 public:
  PortBridge(const net::Topology* topo, const CellCodec* codec, unsigned node,
             net::Port port, const Channel* rx, WireLink* in_link,
             traffic::Arrivals* arrivals, Ejector* ejector);

  void eval(Cycle t) override;
  void commit(Cycle t) override;
  /// Quiescent when no cell is being reassembled, staged, queued, or
  /// transmitted and no injection is pending. The rx channel is NOT checked
  /// here -- the owning fabric task verifies Channel::idle_at() on every
  /// ring its nodes read before skipping (engine-local skipping stays
  /// disabled in fabric nodes, so these hooks are only consulted there).
  bool is_quiescent(Cycle) const override {
    return !rx_active_ && !tx_active_ && !staged_valid_ && fifo_size_ == 0 &&
           (arrivals_ == nullptr || arrivals_->backlog.empty());
  }
  Cycle next_wake(Cycle) const override {
    return arrivals_ != nullptr ? arrivals_->next_arrival : kNeverWake;
  }
  std::string name() const override;

  /// Transit cells accepted but not yet re-transmitted (store-and-forward
  /// queue; bounded by the output stagger of the upstream switch).
  std::size_t transit_depth() const { return fifo_size_ + (staged_valid_ ? 1 : 0); }

  /// Transit cells this bridge relayed toward their next hop (total).
  std::uint64_t relayed() const { return relayed_; }

 private:
  friend struct PortBridgePeer;  ///< Test access (corrupts the pool in death tests).

  /// Transit queue bound: upstream output stagger delivers at most one cell
  /// per L cycles and the mux drains one per L when backlogged.
  static constexpr unsigned kFifoCells = 4;
  /// The transit queue plus one buffer each for reassembly, the staged
  /// cell and the transmitter.
  static constexpr unsigned kPoolCells = kFifoCells + 3;

  void finish_cell(Cycle t);
  Word* cell(unsigned buf) { return &pool_[buf * length_]; }
  std::uint8_t take_buffer() {
    PMSB_CHECK(n_free_ != 0, "fabric bridge cell pool exhausted");
    return free_[--n_free_];
  }
  void give_buffer(std::uint8_t buf) { free_[n_free_++] = buf; }
  /// Checked mode: every pool buffer is free or held by exactly one owner.
  void audit() const;

  const net::Topology* topo_;
  const CellCodec* codec_;
  unsigned node_;
  net::Port port_;
  const Channel* rx_;
  WireLink* in_link_;
  traffic::Arrivals* arrivals_;  ///< Non-null only on the node's injecting bridge.
  Ejector* ejector_;
  unsigned length_;  ///< L, cached.
  bool audit_;       ///< check::env_enabled() at construction.

  std::vector<Word> pool_;                ///< kPoolCells cells of L words.
  std::uint8_t free_[kPoolCells] = {};    ///< Free buffer stack, n_free_ entries.
  unsigned n_free_ = kPoolCells;

  // Arrival reassembly.
  bool rx_active_ = false;
  unsigned rx_phase_ = 0;
  std::uint8_t rx_buf_ = 0;

  // Transit store-and-forward: a cell completed during eval is staged and
  // becomes eligible for retransmission only after the clock edge.
  bool staged_valid_ = false;
  std::uint8_t staged_buf_ = 0;
  std::uint8_t fifo_[kFifoCells] = {};  ///< Ring of queued buffers, oldest at fifo_head_.
  unsigned fifo_head_ = 0;
  unsigned fifo_size_ = 0;

  // Transmission onto the node's in-wire.
  bool tx_active_ = false;
  unsigned tx_phase_ = 0;
  std::uint8_t tx_buf_ = 0;

  std::uint64_t relayed_ = 0;  ///< Transit cells accepted for relay.
};

/// One node of a cell fabric: a cycle-accurate PipelinedSwitch or a
/// behavioural FastSwitch, its Arrivals/Ejector endpoints and drop counters,
/// one PortBridge per incoming link and one TxTap per outgoing link, plus an
/// optional flight recorder and (under PMSB_CHECK, cycle-accurate switches
/// only) a structural invariant checker. The node is its engine's single
/// component (see file comment).
class CellNode final : public FabricNode, private Component {
 public:
  /// Builds the switch (`fast` picks the FastSwitch model) and subscribes
  /// the node's own drop counting to its event hub, which leaves room for
  /// checkers, scoreboards and user taps on the same switch.
  CellNode(const SwitchConfig& cfg, bool fast);

  EventHub& events() { return sw ? sw->events() : fast->events(); }
  WireLink& in_link(unsigned port) { return sw ? sw->in_link(port) : fast->in_link(port); }
  WireLink& out_link(unsigned port) { return sw ? sw->out_link(port) : fast->out_link(port); }

  /// The node as one component; then the checker as a cycle observer.
  void attach(Engine& eng) override;
  NodeCounts counts() const override;
  void fold(FabricStats& st) const override;

  std::unique_ptr<PipelinedSwitch> sw;  ///< Exactly one of sw / fast is set.
  std::unique_ptr<FastSwitch> fast;
  traffic::Arrivals arrivals;
  Ejector ejector;
  std::uint64_t drop_no_addr = 0;
  std::uint64_t drop_no_slot = 0;
  std::uint64_t drop_out_limit = 0;
  std::unique_ptr<check::InvariantChecker> checker;
  /// Per-stage latency breakdown (FabricConfig::flight_recorder).
  std::unique_ptr<obs::FlightRecorder> flight;
  std::vector<PortBridge> bridges;  ///< The first one injects.
  std::vector<TxTap> taps;

 private:
  // Component: switch, then bridges, then taps.
  void eval(Cycle t) override;
  void commit(Cycle t) override;
  bool is_quiescent(Cycle t) const override;
  Cycle next_wake(Cycle t) const override;
  void skip(Cycle t, Cycle n) override;
  std::string name() const override { return "cell_node"; }

  Subscription drop_sub_;
};

}  // namespace pmsb::fabric
