#include "fabric/worm.hpp"

#include <algorithm>
#include <bit>

#include "check/invariants.hpp"

namespace pmsb::fabric {

namespace {

/// First set bit of `mask` in rotating order from bit `start` (the lowest
/// set bit at or above `start`, else the lowest overall): the winner of a
/// round-robin scan that starts at `start`. `mask` must be non-zero.
unsigned first_from(std::uint32_t mask, unsigned start) {
  const std::uint32_t upper = mask & (~0u << start);
  return static_cast<unsigned>(std::countr_zero(upper != 0 ? upper : mask));
}

/// Visits the set bits of `mask` in rotating order from bit `start` until
/// `visit` returns true.
template <class Visit>
void scan_from(std::uint32_t mask, unsigned start, Visit&& visit) {
  const std::uint32_t upper = ~0u << start;
  for (std::uint32_t m = mask & upper; m != 0; m &= m - 1)
    if (visit(static_cast<unsigned>(std::countr_zero(m)))) return;
  for (std::uint32_t m = mask & ~upper; m != 0; m &= m - 1)
    if (visit(static_cast<unsigned>(std::countr_zero(m)))) return;
}

/// i + 1 modulo n, for i < n.
unsigned next_mod(unsigned i, unsigned n) { return i + 1 == n ? 0 : i + 1; }

}  // namespace

WormRouter::WormRouter(const net::Topology* topo, unsigned node, const WormParams& params,
                       DestPattern* dests)
    : topo_(topo), node_(node), params_(params), dests_(dests) {
  mesh_ = topo->kind == net::TopologyKind::kMesh2D;
  PMSB_CHECK(topo->multistage() || mesh_, "WormRouter requires a multistage or mesh topology");
  PMSB_CHECK(params.lanes >= 1 && params.lanes <= 32, "worm lanes must be in [1, 32]");
  PMSB_CHECK(params.lane_depth >= 1, "worm lane_depth must be >= 1");
  PMSB_CHECK(params.message_flits >= 1, "worm message_flits must be >= 1");
  // A mesh router adds the kLocal port (its source and sink) to its four links.
  ports_ = mesh_ ? net::kNumPorts : topo->required_ports();
  lane_bits_ = params_.lanes == 32 ? ~0u : (1u << params_.lanes) - 1;
  const unsigned ring = std::bit_ceil(params_.lane_depth);
  ring_shift_ = static_cast<unsigned>(std::countr_zero(ring));
  ring_mask_ = ring - 1;
  const std::size_t pl = static_cast<std::size_t>(ports_) * params_.lanes;
  rx_.resize(ports_, nullptr);
  credit_tx_.resize(ports_, nullptr);
  tx_.resize(ports_, nullptr);
  credit_rx_.resize(ports_, nullptr);
  slots_.resize(pl << ring_shift_);
  lanes_.resize(pl);
  out_lane_.resize(pl);
  for (OutLane& ol : out_lane_) ol.credits = params_.lane_depth;
  out_.resize(ports_);
  popped_.resize(ports_, 0);
  sources_.resize(ports_);
  sinks_.resize(ports_);
  if (check::env_enabled())
    auditor_ = std::make_unique<check::WormAuditor>(ports_, params_.lanes,
                                                    params_.lane_depth, params_.message_flits);
}

void WormRouter::connect_in(unsigned in_port, const WormChannel* rx, CreditChannel* credit_tx) {
  PMSB_CHECK(in_port < ports_ && rx_[in_port] == nullptr, "worm input already wired");
  rx_[in_port] = rx;
  credit_tx_[in_port] = credit_tx;
}

void WormRouter::connect_out(unsigned out_port, WormChannel* tx, const CreditChannel* credit_rx) {
  PMSB_CHECK(out_port < ports_ && tx_[out_port] == nullptr, "worm output already wired");
  tx_[out_port] = tx;
  credit_rx_[out_port] = credit_rx;
}

void WormRouter::add_source(unsigned in_port, unsigned endpoint, Rng rng) {
  PMSB_CHECK(in_port < ports_ && rx_[in_port] == nullptr && sources_[in_port] == nullptr,
             "worm source conflicts with an existing input");
  auto s = std::make_unique<Source>();
  s->in_port = in_port;
  s->arrivals.per_cycle = params_.messages_per_cycle;
  s->arrivals.src = endpoint;
  s->arrivals.dests = dests_;
  s->arrivals.rng = rng;
  s->worms.resize(params_.lanes);
  sources_[in_port] = std::move(s);
}

void WormRouter::add_sink(unsigned out_port, unsigned endpoint) {
  PMSB_CHECK(mesh_ ? out_port == net::kLocal : topo_->stage_of(node_) + 1 == topo_->stages(),
             "worm sinks attach to last-stage outputs or a mesh router's local port");
  PMSB_CHECK(out_port < ports_ && tx_[out_port] == nullptr && sinks_[out_port] == nullptr,
             "worm sink conflicts with an existing output");
  auto k = std::make_unique<Sink>();
  k->out_port = out_port;
  k->endpoint = endpoint;
  k->lanes.resize(params_.lanes);
  sinks_[out_port] = std::move(k);
}

unsigned WormRouter::route(unsigned in, unsigned dest) const {
  return mesh_ ? topo_->route_xy(node_, dest) : topo_->route_stage(node_, in, dest);
}

void WormRouter::route_front(unsigned in, std::size_t idx) {
  const unsigned out = route(in, front(idx).dest);
  lanes_[idx].want = out;
  ++out_[out].wanting;
}

void WormRouter::push_flit(unsigned in_port, const WormFlit& f) {
  const std::size_t idx = li(in_port, f.lane);
  Lane& lane = lanes_[idx];
  PMSB_CHECK(lane.size < params_.lane_depth, "worm lane overflow (credit protocol broken)");
  slot(idx, lane.size) = f;
  ++lane.size;
  ++flits_in_total_;
  ++flits_held_;
  if (lane.size == 1 && f.head) route_front(in_port, idx);
  if (auditor_ != nullptr)
    auditor_->on_push(in_port, f.lane, f.head, f.tail, f.msg, f.seq, lane.size);
}

void WormRouter::source_step(Source& s, Cycle t) {
  s.arrivals.step(t);
  // Start pending messages on idle lanes, round-robin. Each
  // lane streams one message head..tail at a time, so the per-lane
  // contiguity invariant holds by construction.
  while (!s.arrivals.empty() && s.active != lane_bits_) {
    const unsigned pick = first_from(lane_bits_ & ~s.active, s.start_rr);
    s.start_rr = next_mod(pick, params_.lanes);
    const traffic::Arrivals::Pending& p = s.arrivals.front();
    const std::uint64_t msg = (static_cast<std::uint64_t>(s.arrivals.src) << 32) | p.seq;
    s.worms[pick] = Source::Worm{0, p.dest, msg, p.created};
    s.active |= 1u << pick;
    s.arrivals.pop();
  }
  // Emit at most one flit this cycle (the injection link rate), rotating
  // across lanes whose worm is active and whose FIFO has room.
  scan_from(s.active, s.emit_rr, [&](unsigned l) {
    if (lanes_[li(s.in_port, l)].size >= params_.lane_depth) return false;
    Source::Worm& w = s.worms[l];
    WormFlit f;
    f.valid = true;
    f.head = w.seq == 0;
    f.tail = w.seq + 1 == params_.message_flits;
    f.lane = static_cast<std::uint8_t>(l);
    f.dest = static_cast<std::uint16_t>(w.dest);
    f.seq = w.seq;
    f.msg = w.msg;
    f.created = w.created;
    f.data = worm_payload(w.msg, w.seq);
    push_flit(s.in_port, f);
    if (f.tail)
      s.active &= ~(1u << l);
    else
      ++w.seq;
    s.emit_rr = next_mod(l, params_.lanes);
    return true;
  });
}

void WormRouter::alloc_lane(unsigned out) {
  Out& o = out_[out];
  // No unbound head wants this output, or every output lane is taken.
  if (o.wanting == 0 || o.owned == lane_bits_) return;
  // Bind the first (input, lane) whose unbound front head is routed here,
  // rotating priority across eval cycles, to the first free output lane,
  // also round-robin: at most one binding per output per cycle.
  const unsigned pl = ports_ * params_.lanes;
  unsigned idx = o.rr_alloc;
  for (unsigned i = 0; i < pl; ++i, idx = next_mod(idx, pl)) {
    Lane& lane = lanes_[idx];
    if (lane.want != out) continue;
    const unsigned grant = first_from(lane_bits_ & ~o.owned, o.rr_lane);
    const unsigned in = idx / params_.lanes;
    OutLane& ol = out_lane_[li(out, grant)];
    ol.in = in;
    ol.in_lane = idx - in * params_.lanes;
    o.owned |= 1u << grant;
    --o.wanting;
    lane.want = kNoOut;
    lane.bound = true;
    lane.out = out;
    lane.out_lane = grant;
    o.rr_alloc = next_mod(idx, pl);
    o.rr_lane = next_mod(grant, params_.lanes);
    return;
  }
}

void WormRouter::arbitrate(unsigned out, Cycle t) {
  Out& o = out_[out];
  const bool egress = tx_[out] == nullptr;
  WormFlit sent;  // invalid unless a lane wins
  scan_from(o.owned, o.rr_sw, [&](unsigned l) {
    OutLane& ol = out_lane_[li(out, l)];
    if (!egress && ol.credits == 0) return false;
    const std::uint32_t bit = 1u << ol.in_lane;
    const std::size_t src = li(ol.in, ol.in_lane);
    Lane& lane = lanes_[src];
    if (lane.size == 0 || (popped_[ol.in] & bit) != 0) return false;
    WormFlit f = front(src);
    lane.head = (lane.head + 1) & ring_mask_;
    --lane.size;
    --flits_held_;
    popped_[ol.in] |= bit;
    f.lane = static_cast<std::uint8_t>(l);
    if (!egress) --ol.credits;
    if (f.tail) {
      lane.bound = false;
      o.owned &= ~(1u << l);
      // The next message's head, if buffered, reaches the front now.
      if (lane.size != 0 && front(src).head) route_front(ol.in, src);
    }
    o.rr_sw = next_mod(l, params_.lanes);
    ++flits_out_total_;
    if (egress) {
      deliver(*sinks_[out], f, t);
    } else {
      sent = f;
      ++flits_forwarded_;
    }
    return true;  // one flit per output per cycle
  });
  if (!egress) tx_[out]->write(t, sent);
}

void WormRouter::deliver(Sink& sink, const WormFlit& f, Cycle t) {
  Sink::LaneRx& rx = sink.lanes[f.lane];
  if (f.head) {
    PMSB_CHECK(!rx.mid, "worm sink: head flit interrupted an open message");
    rx.mid = true;
    rx.msg = f.msg;
    rx.next_seq = 0;
    rx.created = f.created;
  } else {
    PMSB_CHECK(rx.mid && f.msg == rx.msg, "worm sink: body flit without its message");
  }
  PMSB_CHECK(f.seq == rx.next_seq, "worm sink: flit sequence gap");
  ++rx.next_seq;
  ++sink.flits;
  if (f.data != worm_payload(f.msg, f.seq)) ++sink.payload_errors;
  if (f.tail) {
    PMSB_CHECK(rx.next_seq == params_.message_flits, "worm sink: short message");
    rx.mid = false;
    ++sink.delivered;
    const Cycle lat = t - f.created;
    sink.lat_sum += static_cast<std::uint64_t>(lat);
    sink.lat_hist.add(static_cast<std::uint64_t>(lat));
    sink.digest = mix64(sink.digest ^ (f.msg * 0x2545f4914f6cdd1dULL));
  }
}

void WormRouter::eval(Cycle t) {
  // 1. Accept at most one flit per link input.
  for (unsigned in = 0; in < ports_; ++in) {
    if (rx_[in] == nullptr) continue;
    const WormFlit& f = rx_[in]->read(t);
    if (f.valid) push_flit(in, f);
  }
  // 2. Consume returned credits.
  for (unsigned out = 0; out < ports_; ++out) {
    if (credit_rx_[out] == nullptr) continue;
    const CreditPulse& p = credit_rx_[out]->read(t);
    if (!p.valid) continue;
    for (std::uint32_t m = p.mask & lane_bits_; m != 0; m &= m - 1) {
      const auto l = static_cast<unsigned>(std::countr_zero(m));
      OutLane& ol = out_lane_[li(out, l)];
      ++ol.credits;
      PMSB_CHECK(ol.credits <= params_.lane_depth, "worm credit overflow");
      if (auditor_ != nullptr) auditor_->on_credit(out, l, ol.credits);
    }
  }
  // 3. Inject (ingress routers only): arrivals plus one streamed flit per source.
  for (unsigned in = 0; in < ports_; ++in)
    if (sources_[in] != nullptr) source_step(*sources_[in], t);
  // 4. Per output: one VC allocation, then one switch grant; the tx ring is
  // written every cycle (invalid when no lane wins), like the cell fabrics'
  // TxTap, so skipped stretches are compensated by ring clears alone.
  for (unsigned out = 0; out < ports_; ++out) {
    alloc_lane(out);
    arbitrate(out, t);
  }
  // 5. Return credits upstream, one aggregated pulse per input per cycle.
  for (unsigned in = 0; in < ports_; ++in) {
    if (credit_tx_[in] != nullptr)
      credit_tx_[in]->write(t, CreditPulse{popped_[in] != 0, popped_[in]});
    popped_[in] = 0;
  }
  if (auditor_ != nullptr) {
    audit_counts();
    auditor_->on_cycle_end(flits_in_total_, flits_out_total_, flits_held_);
  }
}

void WormRouter::audit_counts() const {
  std::vector<unsigned> wanting(ports_, 0);
  std::vector<std::uint32_t> owned(ports_, 0);
  std::uint64_t held = 0;
  for (unsigned in = 0; in < ports_; ++in) {
    for (unsigned l = 0; l < params_.lanes; ++l) {
      const std::size_t idx = li(in, l);
      const Lane& lane = lanes_[idx];
      held += lane.size;
      unsigned want = kNoOut;
      if (lane.size != 0 && front(idx).head && !lane.bound) {
        want = route(in, front(idx).dest);
        ++wanting[want];
      }
      PMSB_CHECK(lane.want == want, "worm lane's cached route disagrees with its front flit");
      if (!lane.bound) continue;
      const OutLane& ol = out_lane_[li(lane.out, lane.out_lane)];
      PMSB_CHECK(ol.in == in && ol.in_lane == l,
                 "worm lane binding is not mirrored by its output lane");
      owned[lane.out] |= 1u << lane.out_lane;
    }
  }
  for (unsigned out = 0; out < ports_; ++out) {
    PMSB_CHECK(out_[out].wanting == wanting[out],
               "worm running count of unbound front heads diverged (output " +
                   std::to_string(out) + ")");
    PMSB_CHECK(out_[out].owned == owned[out],
               "worm running mask of granted output lanes diverged (output " +
                   std::to_string(out) + ")");
  }
  PMSB_CHECK(flits_held_ == held, "worm running count of buffered flits diverged");
}

bool WormRouter::is_quiescent(Cycle) const {
  if (flits_held_ != 0) return false;
  for (const Out& o : out_)
    if (o.owned != 0) return false;
  for (const auto& s : sources_)
    if (s != nullptr && (!s->arrivals.empty() || s->active != 0)) return false;
  return true;
}

Cycle WormRouter::next_wake(Cycle) const {
  Cycle wake = kNeverWake;
  for (const auto& s : sources_)
    if (s != nullptr) wake = std::min(wake, s->arrivals.next_arrival);
  return wake;
}

std::string WormRouter::name() const {
  if (mesh_)
    return "worm_router_x" + std::to_string(topo_->x_of(node_)) + "y" +
           std::to_string(topo_->y_of(node_));
  return "worm_router_s" + std::to_string(topo_->stage_of(node_)) + "e" +
         std::to_string(topo_->element_of(node_));
}

WormRouter::SourceStats WormRouter::source_stats(unsigned in_port) const {
  PMSB_CHECK(sources_[in_port] != nullptr, "no worm source on this input");
  const Source& s = *sources_[in_port];
  return SourceStats{s.arrivals.generated,
                     s.arrivals.pending() + static_cast<std::size_t>(std::popcount(s.active))};
}

WormRouter::SinkStats WormRouter::sink_stats(unsigned out_port) const {
  PMSB_CHECK(sinks_[out_port] != nullptr, "no worm sink on this output");
  const Sink& k = *sinks_[out_port];
  SinkStats st;
  st.delivered = k.delivered;
  st.flits = k.flits;
  st.payload_errors = k.payload_errors;
  st.digest = k.digest;
  st.lat_sum = k.lat_sum;
  st.lat_hist = &k.lat_hist;
  return st;
}

NodeCounts WormRouter::counts() const {
  NodeCounts c;
  for (unsigned p = 0; p < ports_; ++p) {
    if (has_source(p)) {
      const SourceStats ss = source_stats(p);
      c.generated += ss.generated;
      c.backlog += ss.backlog;
    }
    if (sinks_[p] != nullptr) {
      c.delivered += sinks_[p]->delivered;
      c.lat_sum += sinks_[p]->lat_sum;
    }
  }
  c.relayed = flits_forwarded_;  // lossless: dropped stays 0
  return c;
}

void WormRouter::fold(FabricStats& st) const {
  for (unsigned p = 0; p < ports_; ++p) {
    if (sinks_[p] == nullptr) continue;
    const Sink& k = *sinks_[p];
    if (k.delivered) {
      // st.delivered still excludes this sink: zero means no earlier extremes.
      const Cycle lo = static_cast<Cycle>(k.lat_hist.min());
      const Cycle hi = static_cast<Cycle>(k.lat_hist.max());
      if (st.delivered == 0 || lo < st.min_latency) st.min_latency = lo;
      if (st.delivered == 0 || hi > st.max_latency) st.max_latency = hi;
    }
    st.delivered += k.delivered;
    st.flits_delivered += k.flits;
    st.payload_errors += k.payload_errors;
    st.uid_digest = mix64(st.uid_digest ^ k.digest);
    st.latency.merge(k.lat_hist);
  }
}

}  // namespace pmsb::fabric
