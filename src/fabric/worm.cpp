#include "fabric/worm.hpp"

#include <algorithm>

#include "check/invariants.hpp"

namespace pmsb::fabric {

WormRouter::WormRouter(const net::Topology* topo, unsigned node, const WormParams& params,
                       DestPattern* dests)
    : topo_(topo), node_(node), params_(params), dests_(dests) {
  PMSB_CHECK(topo->multistage(), "WormRouter requires a multistage topology");
  PMSB_CHECK(params.lanes >= 1 && params.lanes <= 32, "worm lanes must be in [1, 32]");
  PMSB_CHECK(params.lane_depth >= 1, "worm lane_depth must be >= 1");
  PMSB_CHECK(params.message_flits >= 1, "worm message_flits must be >= 1");
  ports_ = topo->required_ports();
  last_stage_ = topo->stage_of(node) + 1 == topo->stages();
  const std::size_t pl = static_cast<std::size_t>(ports_) * params_.lanes;
  rx_.resize(ports_, nullptr);
  credit_tx_.resize(ports_, nullptr);
  tx_.resize(ports_, nullptr);
  credit_rx_.resize(ports_, nullptr);
  fifo_.resize(pl);
  in_state_.resize(pl);
  out_lane_.resize(pl);
  for (OutLane& ol : out_lane_) ol.credits = params_.lane_depth;
  rr_alloc_.resize(ports_, 0);
  rr_lane_.resize(ports_, 0);
  rr_sw_.resize(ports_, 0);
  src_rr_.resize(ports_, 0);
  popped_.resize(pl, false);
  credit_mask_.resize(ports_, 0);
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
  s->endpoint = endpoint;
  s->rng = rng;
  s->worms.resize(params_.lanes);
  sources_[in_port] = std::move(s);
}

void WormRouter::add_sink(unsigned out_port, unsigned endpoint) {
  PMSB_CHECK(last_stage_, "worm sinks attach to last-stage outputs only");
  PMSB_CHECK(out_port < ports_ && tx_[out_port] == nullptr && sinks_[out_port] == nullptr,
             "worm sink conflicts with an existing output");
  auto k = std::make_unique<Sink>();
  k->out_port = out_port;
  k->endpoint = endpoint;
  k->lanes.resize(params_.lanes);
  sinks_[out_port] = std::move(k);
}

void WormRouter::push_flit(unsigned in_port, const WormFlit& f) {
  auto& q = fifo_[li(in_port, f.lane)];
  q.push_back(f);
  ++flits_in_total_;
  PMSB_CHECK(q.size() <= params_.lane_depth, "worm lane overflow (credit protocol broken)");
  if (auditor_ != nullptr)
    auditor_->on_push(in_port, f.lane, f.head, f.tail, f.msg, f.seq, q.size());
}

void WormRouter::source_prime(Source& s, Cycle from) {
  s.primed = true;
  if (params_.messages_per_cycle <= 0) {
    s.next_arrival = kNeverWake;
    return;
  }
  Cycle a = from;
  while (!s.rng.next_bool(params_.messages_per_cycle)) ++a;
  s.next_arrival = a;
  s.next_dest = dests_->pick(s.endpoint, s.rng);
}

void WormRouter::source_step(Source& s, Cycle t) {
  if (!s.primed) source_prime(s, t);
  if (t == s.next_arrival) {
    const std::uint64_t msg =
        (static_cast<std::uint64_t>(s.endpoint) << 32) | s.next_msg_seq++;
    s.backlog.push_back(Source::Pending{s.next_dest, msg, t});
    ++s.generated;
    source_prime(s, t + 1);
  }
  // Start pending messages on idle lanes, round-robin. Each
  // lane streams one message head..tail at a time, so the per-lane
  // contiguity invariant holds by construction.
  while (!s.backlog.empty()) {
    unsigned pick = params_.lanes;
    for (unsigned i = 0; i < params_.lanes; ++i) {
      const unsigned l = (src_rr_[s.in_port] + i) % params_.lanes;
      if (!s.worms[l].active) {
        pick = l;
        break;
      }
    }
    if (pick == params_.lanes) break;  // every lane mid-message
    src_rr_[s.in_port] = (pick + 1) % params_.lanes;
    const Source::Pending& p = s.backlog.front();
    s.worms[pick] = Source::Worm{true, 0, p.dest, p.msg, p.created};
    s.backlog.pop_front();
  }
  // Emit at most one flit this cycle (the injection link rate), rotating
  // across lanes whose worm is active and whose FIFO has room.
  for (unsigned i = 0; i < params_.lanes; ++i) {
    const unsigned l = (s.emit_rr + i) % params_.lanes;
    Source::Worm& w = s.worms[l];
    if (!w.active || fifo_[li(s.in_port, l)].size() >= params_.lane_depth) continue;
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
      w.active = false;
    else
      ++w.seq;
    s.emit_rr = (l + 1) % params_.lanes;
    break;
  }
}

void WormRouter::alloc_lane(unsigned out, Cycle t) {
  (void)t;
  const unsigned pl = ports_ * params_.lanes;
  // Find the first (input, lane) whose queued head flit wants this output
  // and is not yet bound, rotating priority across eval cycles.
  for (unsigned i = 0; i < pl; ++i) {
    const unsigned idx = (rr_alloc_[out] + i) % pl;
    const auto& q = fifo_[idx];
    if (q.empty() || !q.front().head || in_state_[idx].active) continue;
    const unsigned in = idx / params_.lanes;
    if (topo_->route_stage(node_, in, q.front().dest) != out) continue;
    // Grant a free output lane, also round-robin.
    unsigned grant = params_.lanes;
    for (unsigned j = 0; j < params_.lanes; ++j) {
      const unsigned ol = (rr_lane_[out] + j) % params_.lanes;
      if (!out_lane_[li(out, ol)].owned) {
        grant = ol;
        break;
      }
    }
    if (grant == params_.lanes) return;  // no free output lane this cycle
    OutLane& ol = out_lane_[li(out, grant)];
    ol.owned = true;
    ol.in = in;
    ol.in_lane = idx % params_.lanes;
    in_state_[idx] = InState{true, out, grant};
    rr_alloc_[out] = (idx + 1) % pl;
    rr_lane_[out] = (grant + 1) % params_.lanes;
    return;  // at most one binding per output per cycle
  }
}

void WormRouter::arbitrate(unsigned out, Cycle t) {
  const bool egress = tx_[out] == nullptr;
  WormFlit sent;  // invalid unless a lane wins
  for (unsigned j = 0; j < params_.lanes; ++j) {
    const unsigned ol_idx = (rr_sw_[out] + j) % params_.lanes;
    OutLane& ol = out_lane_[li(out, ol_idx)];
    if (!ol.owned) continue;
    if (!egress && ol.credits == 0) continue;
    const std::size_t src = li(ol.in, ol.in_lane);
    auto& q = fifo_[src];
    if (q.empty() || popped_[src]) continue;
    WormFlit f = q.front();
    q.pop_front();
    popped_[src] = true;
    if (credit_tx_[ol.in] != nullptr) credit_mask_[ol.in] |= 1u << ol.in_lane;
    f.lane = static_cast<std::uint8_t>(ol_idx);
    if (!egress) --ol.credits;
    if (f.tail) {
      in_state_[src] = InState{};
      ol.owned = false;
    }
    rr_sw_[out] = (ol_idx + 1) % params_.lanes;
    ++flits_out_total_;
    if (egress) {
      deliver(*sinks_[out], f, t);
    } else {
      sent = f;
      ++flits_forwarded_;
    }
    break;  // one flit per output per cycle
  }
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
  std::fill(popped_.begin(), popped_.end(), false);
  // 1. Accept at most one flit per inter-stage input.
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
    for (unsigned l = 0; l < params_.lanes; ++l) {
      if ((p.mask & (1u << l)) == 0) continue;
      OutLane& ol = out_lane_[li(out, l)];
      ++ol.credits;
      PMSB_CHECK(ol.credits <= params_.lane_depth, "worm credit overflow");
      if (auditor_ != nullptr) auditor_->on_credit(out, l, ol.credits);
    }
  }
  // 3. Inject (first stage only): arrivals plus one streamed flit per source.
  for (unsigned in = 0; in < ports_; ++in)
    if (sources_[in] != nullptr) source_step(*sources_[in], t);
  // 4. Per output: one VC allocation, then one switch grant; the tx ring is
  // written every cycle (invalid when no lane wins), like the cell fabrics'
  // TxTap, so skipped stretches are compensated by ring clears alone.
  for (unsigned out = 0; out < ports_; ++out) {
    alloc_lane(out, t);
    arbitrate(out, t);
  }
  // 5. Return credits upstream, one aggregated pulse per input per cycle.
  for (unsigned in = 0; in < ports_; ++in) {
    if (credit_tx_[in] == nullptr) continue;
    credit_tx_[in]->write(t, CreditPulse{credit_mask_[in] != 0, credit_mask_[in]});
    credit_mask_[in] = 0;
  }
  if (auditor_ != nullptr)
    auditor_->on_cycle_end(flits_in_total_, flits_out_total_, flits_held());
}

bool WormRouter::is_quiescent(Cycle) const {
  for (const auto& q : fifo_)
    if (!q.empty()) return false;
  for (const OutLane& ol : out_lane_)
    if (ol.owned) return false;
  for (const auto& s : sources_) {
    if (s == nullptr) continue;
    if (!s->backlog.empty()) return false;
    for (const Source::Worm& w : s->worms)
      if (w.active) return false;
  }
  return true;
}

Cycle WormRouter::next_wake(Cycle) const {
  Cycle wake = kNeverWake;
  for (const auto& s : sources_)
    if (s != nullptr) wake = std::min(wake, s->primed ? s->next_arrival : Cycle{0});
  return wake;
}

std::string WormRouter::name() const {
  return "worm_router_s" + std::to_string(topo_->stage_of(node_)) + "e" +
         std::to_string(topo_->element_of(node_));
}

WormRouter::SourceStats WormRouter::source_stats(unsigned in_port) const {
  PMSB_CHECK(sources_[in_port] != nullptr, "no worm source on this input");
  const Source& s = *sources_[in_port];
  std::size_t streaming = 0;
  for (const Source::Worm& w : s.worms) streaming += w.active ? 1 : 0;
  return SourceStats{s.generated, s.backlog.size() + streaming};
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
      if (st.by_hops.empty())
        st.by_hops.push_back(FabricStats::HopRow{topo_->stages() - 1, 0, 0});
      st.by_hops[0].cells += k.delivered;
      st.by_hops[0].mean_latency += static_cast<double>(k.lat_sum);
    }
    st.delivered += k.delivered;
    st.flits_delivered += k.flits;
    st.payload_errors += k.payload_errors;
    st.uid_digest = mix64(st.uid_digest ^ k.digest);
    st.latency.merge(k.lat_hist);
  }
}

std::uint64_t WormRouter::flits_held() const {
  std::uint64_t held = 0;
  for (const auto& q : fifo_) held += q.size();
  return held;
}

}  // namespace pmsb::fabric
