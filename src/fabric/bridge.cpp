#include "fabric/bridge.hpp"

#include <algorithm>

namespace pmsb::fabric {

std::vector<Word> CellCodec::build(unsigned out_port, unsigned dest_node,
                                   unsigned src_node, std::uint64_t seq,
                                   Cycle created) const {
  std::vector<Word> w(fmt.length_words);
  fill(w.data(), out_port, dest_node, src_node, seq, created);
  return w;
}

void CellCodec::fill(Word* w, unsigned out_port, unsigned dest_node, unsigned src_node,
                     std::uint64_t seq, Cycle created) const {
  w[0] = head(out_port, dest_node);
  w[1] = static_cast<Word>(src_node) & word_mask();
  w[2] = static_cast<Word>(seq) & 0xFFFF;
  w[3] = static_cast<Word>(created) & 0xFFFF;
  const std::uint64_t id = uid(src_node, seq);
  for (unsigned k = 4; k < fmt.length_words; ++k) w[k] = payload(id, k);
}

void Ejector::deliver(std::uint64_t uid, Cycle latency, unsigned hops, bool payload_ok) {
  if (delivered == 0 || latency < lat_min) lat_min = latency;
  if (latency > lat_max) lat_max = latency;
  ++delivered;
  lat_sum += static_cast<std::uint64_t>(latency);
  lat_hist.add(static_cast<std::uint64_t>(latency));
  digest = mix64(digest ^ (uid * 0x2545f4914f6cdd1dULL));
  if (!payload_ok) ++payload_errors;
  if (by_hops.size() <= hops) by_hops.resize(hops + 1);
  ++by_hops[hops].cells;
  by_hops[hops].lat_sum += static_cast<std::uint64_t>(latency);
}

PortBridge::PortBridge(const net::Topology* topo, const CellCodec* codec, unsigned node,
                       net::Port port, const Channel* rx, WireLink* in_link,
                       traffic::Arrivals* arrivals, Ejector* ejector)
    : topo_(topo),
      codec_(codec),
      node_(node),
      port_(port),
      rx_(rx),
      in_link_(in_link),
      arrivals_(arrivals),
      ejector_(ejector),
      length_(codec->fmt.length_words),
      audit_(check::env_enabled()),
      pool_(static_cast<std::size_t>(kPoolCells) * length_) {
  for (unsigned b = 0; b < kPoolCells; ++b) free_[b] = static_cast<std::uint8_t>(b);
}

std::string PortBridge::name() const {
  return "fabric_bridge[" + std::to_string(node_) + "." + std::to_string(port_) + "]";
}

void PortBridge::eval(Cycle t) {
  if (audit_) audit();
  // Traffic generation first, so a cell created this cycle can board an idle
  // slot immediately (cycle-exact regardless of sharding: per-node rng, one
  // trial per cycle, stepped by the node's single injecting bridge).
  if (arrivals_) arrivals_->step(t);

  // ---- Arrival side: the virtual wire from the upstream TxTap.
  const Flit& f = rx_->read(t);
  if (f.valid) {
    if (!rx_active_) {
      PMSB_CHECK(f.sop, "fabric link: body word arrived while expecting a head");
      rx_active_ = true;
      rx_phase_ = 0;
      rx_buf_ = take_buffer();
    } else {
      PMSB_CHECK(!f.sop, "fabric link: head word arrived inside a cell");
    }
    cell(rx_buf_)[rx_phase_] = f.data;
    if (++rx_phase_ == length_) {
      rx_active_ = false;
      finish_cell(t);
    }
  } else {
    PMSB_CHECK(!rx_active_, "fabric link: gap inside a cell");
  }

  // ---- Output side: transit first, then local injection.
  if (!tx_active_) {
    if (fifo_size_ != 0) {
      tx_buf_ = fifo_[fifo_head_];
      fifo_head_ = (fifo_head_ + 1) % kFifoCells;
      --fifo_size_;
    } else if (arrivals_ && !arrivals_->backlog.empty()) {
      const traffic::Arrivals::Pending p = arrivals_->backlog.front();
      arrivals_->backlog.pop_front();
      const net::Port out = topo_->route_xy(node_, p.dest);
      PMSB_CHECK(out != net::kLocal, "injected cell addressed to its own node");
      tx_buf_ = take_buffer();
      codec_->fill(cell(tx_buf_), out, p.dest, node_, p.seq, p.created);
    } else {
      return;  // Nothing to send.
    }
    tx_active_ = true;
    tx_phase_ = 0;
  }
  in_link_->drive_next(Flit{true, tx_phase_ == 0, cell(tx_buf_)[tx_phase_]});
  if (++tx_phase_ == length_) {
    tx_active_ = false;
    give_buffer(tx_buf_);
  }
}

void PortBridge::finish_cell(Cycle t) {
  Word* w = cell(rx_buf_);
  const unsigned dest_node = codec_->dest_node_of(w[0]);
  PMSB_CHECK(dest_node < topo_->nodes(), "fabric cell with bad destination node");
  if (dest_node == node_) {
    const auto src = static_cast<unsigned>(w[1]);
    const std::uint64_t id = CellCodec::uid(src, w[2]);
    const Cycle latency =
        static_cast<Cycle>((static_cast<std::uint64_t>(t) - w[3]) & 0xFFFF);
    bool ok = true;
    for (unsigned k = 4; k < length_; ++k) ok &= w[k] == codec_->payload(id, k);
    ejector_->deliver(id, latency, topo_->hops(src, node_), ok);
    give_buffer(rx_buf_);
    return;
  }
  // Transit: rewrite the hop field for this node's switch, keep the rest.
  const net::Port out = topo_->route_xy(node_, dest_node);
  PMSB_CHECK(out != net::kLocal, "transit cell routed to kLocal");
  w[0] = codec_->head(out, dest_node);
  PMSB_CHECK(!staged_valid_, "two cells completed in one cycle on one bridge");
  staged_buf_ = rx_buf_;
  staged_valid_ = true;
  ++relayed_;
}

void PortBridge::commit(Cycle) {
  if (staged_valid_) {
    PMSB_CHECK(fifo_size_ < kFifoCells, "fabric transit queue grew beyond its bound");
    fifo_[(fifo_head_ + fifo_size_++) % kFifoCells] = staged_buf_;
    staged_valid_ = false;
  }
}

void PortBridge::audit() const {
  unsigned owners[kPoolCells] = {};
  for (unsigned k = 0; k < n_free_; ++k) ++owners[free_[k]];
  unsigned in_use = 0;
  auto held = [&](unsigned buf) {
    PMSB_CHECK(buf < kPoolCells, "fabric bridge holds a buffer outside its pool");
    ++owners[buf];
    ++in_use;
  };
  if (rx_active_) held(rx_buf_);
  if (staged_valid_) held(staged_buf_);
  for (unsigned k = 0; k < fifo_size_; ++k) held(fifo_[(fifo_head_ + k) % kFifoCells]);
  if (tx_active_) held(tx_buf_);
  PMSB_CHECK(n_free_ + in_use == kPoolCells,
             "fabric bridge cell pool accounting diverged (free + in use != pool)");
  for (unsigned b = 0; b < kPoolCells; ++b)
    PMSB_CHECK(owners[b] == 1, "fabric bridge cell buffer lost or shared");
}

CellNode::CellNode(const SwitchConfig& cfg, bool use_fast) {
  if (use_fast)
    fast = std::make_unique<FastSwitch>(cfg);
  else
    sw = std::make_unique<PipelinedSwitch>(cfg);
  SwitchEvents ev;
  ev.on_drop = [this](unsigned, Cycle, DropReason why) {
    switch (why) {
      case DropReason::kNoAddress: ++drop_no_addr; break;
      case DropReason::kNoSlot: ++drop_no_slot; break;
      case DropReason::kOutputLimit: ++drop_out_limit; break;
    }
  };
  drop_sub_ = events().subscribe(std::move(ev));
}

void CellNode::attach(Engine& eng) {
  eng.add(this);
  // Structural invariant checking only exists for the cycle-accurate
  // switch; fast nodes are covered by the differential harness instead.
  if (check::env_enabled() && sw) {
    checker = std::make_unique<check::InvariantChecker>();
    checker->attach(*sw, eng);
  }
}

void CellNode::eval(Cycle t) {
  if (sw)
    sw->eval(t);
  else
    fast->eval(t);
  for (PortBridge& b : bridges) b.eval(t);
  for (TxTap& tap : taps) tap.eval(t);
}

void CellNode::commit(Cycle t) {
  if (sw)
    sw->commit(t);
  else
    fast->commit(t);
  for (PortBridge& b : bridges) b.commit(t);
}

bool CellNode::is_quiescent(Cycle t) const {
  if (sw ? !sw->is_quiescent(t) : !fast->is_quiescent(t)) return false;
  for (const PortBridge& b : bridges)
    if (!b.is_quiescent(t)) return false;
  for (const TxTap& tap : taps)
    if (!tap.is_quiescent(t)) return false;
  return true;
}

Cycle CellNode::next_wake(Cycle t) const {
  Cycle w = sw ? sw->next_wake(t) : fast->next_wake(t);
  for (const PortBridge& b : bridges) w = std::min(w, b.next_wake(t));
  for (const TxTap& tap : taps) w = std::min(w, tap.next_wake(t));
  return w;
}

void CellNode::skip(Cycle t, Cycle n) {
  if (sw)
    sw->skip(t, n);
  else
    fast->skip(t, n);
  for (PortBridge& b : bridges) b.skip(t, n);
  for (TxTap& tap : taps) tap.skip(t, n);
}

NodeCounts CellNode::counts() const {
  NodeCounts c;
  c.generated = arrivals.generated;
  c.backlog = arrivals.backlog.size();
  c.delivered = ejector.delivered;
  c.dropped = drop_no_addr + drop_no_slot + drop_out_limit;
  c.lat_sum = ejector.lat_sum;
  for (const PortBridge& b : bridges) c.relayed += b.relayed();
  return c;
}

void CellNode::fold(FabricStats& st) const {
  st.payload_errors += ejector.payload_errors;
  st.dropped_no_addr += drop_no_addr;
  st.dropped_no_slot += drop_no_slot;
  st.dropped_out_limit += drop_out_limit;
  st.uid_digest = mix64(st.uid_digest ^ ejector.digest);
  st.latency.merge(ejector.lat_hist);
  if (ejector.delivered) {
    // st.delivered still excludes this node: zero means no earlier extremes.
    if (st.delivered == 0 || ejector.lat_min < st.min_latency) st.min_latency = ejector.lat_min;
    if (st.delivered == 0 || ejector.lat_max > st.max_latency) st.max_latency = ejector.lat_max;
  }
  st.delivered += ejector.delivered;
  for (std::size_t h = st.by_hops.size(); h < ejector.by_hops.size(); ++h)
    st.by_hops.push_back(FabricStats::HopRow{static_cast<unsigned>(h), 0, 0});
  for (std::size_t h = 0; h < ejector.by_hops.size(); ++h) {
    st.by_hops[h].cells += ejector.by_hops[h].cells;
    st.by_hops[h].mean_latency += static_cast<double>(ejector.by_hops[h].lat_sum);
  }
}

}  // namespace pmsb::fabric
