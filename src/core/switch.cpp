#include "core/switch.hpp"

namespace pmsb {

PipelinedSwitch::PipelinedSwitch(const SwitchConfig& cfg, AddrPathMode addr_mode)
    : cfg_((cfg.validate(), cfg)),
      S_(cfg.stages()),
      m_(cfg.segments_per_cell()),
      mem_(S_, cfg.capacity_segments, cfg.word_bits, addr_mode),
      ir_(cfg.n_ports, S_, cfg.word_bits),
      orow_(S_, cfg.n_ports, cfg.word_bits),
      free_(cfg.capacity_segments),
      oq_(cfg.n_ports),
      resv_(static_cast<std::size_t>(m_) * S_ + S_ + 2),
      rr_read_(cfg.n_ports),
      rr_write_(cfg.n_ports),
      in_links_(cfg.n_ports),
      out_links_(cfg.n_ports),
      in_fsm_(cfg.n_ports),
      pending_(cfg.n_ports),
      next_read_ok_(cfg.n_ports, 0) {}

void PipelinedSwitch::register_metrics(obs::MetricsRegistry& m, const std::string& prefix) {
  // Counters: updated from the hot path through the cached pointers.
  m_wave_init_ = m.counter(prefix + ".wave_initiations");
  m_cut_through_ = m.counter(prefix + ".cut_through_cells");
  m_read_stall_ = m.counter(prefix + ".stalled_read_initiations");
  // Gauges: pulled only when the engine's sampling period fires.
  m.add_gauge(prefix + ".free_list.in_use",
              [this] { return static_cast<double>(free_.in_use()); });
  m.add_gauge(prefix + ".free_list.peak_in_use",
              [this] { return static_cast<double>(free_.peak_in_use()); });
  m.add_gauge(prefix + ".out_queues.total_depth",
              [this] { return static_cast<double>(oq_.total_size()); });
  m.add_gauge(prefix + ".out_queues.peak_depth",
              [this] { return static_cast<double>(oq_.peak_total_size()); });
  for (unsigned o = 0; o < cfg_.n_ports; ++o) {
    m.add_gauge(prefix + ".out_queues.depth." + std::to_string(o),
                [this, o] { return static_cast<double>(oq_.size(o)); });
  }
  m.add_gauge(prefix + ".mem.initiations",
              [this] { return static_cast<double>(mem_.initiations()); });
}

void PipelinedSwitch::eval(Cycle t) {
  ++stats_.cycles;
  // Order within the cycle (all steps read only state committed at end of
  // t-1, except where noted):
  //  1. Arbitrate / execute the stage-0 slot; drop expired pending cells.
  //  2. Execute all memory stages per the control pipeline.
  //  3. Drive outgoing links from the output-row loads of this cycle
  //     (register -> pad driver path: value appears on the wire at t+1).
  //  4. Latch arriving words; register new pending cells. This runs after
  //     arbitration so a pending head becomes eligible the cycle *after*
  //     its arrival cycle (window [a0+1, a0+S]).
  arbitrate_and_initiate(t);
  mem_.exec_cycle(ir_, orow_);
  orow_.drive_links(out_links_);
  process_arrivals(t);
}

void PipelinedSwitch::arbitrate_and_initiate(Cycle t) {
  bool read_granted = false;
  if (resv_.slot_free(t)) {
    // New grant: reads have priority over writes (section 3.2: "higher
    // priority is given to the outgoing links").
    read_granted = try_grant_read(t);
    if (!read_granted) try_grant_write(t);
  }
  // A cycle in which queued cells exist but no read wave was granted is a
  // stalled read initiation: the stage-0 slot was reserved by a continuing
  // wave, or every eligible output was pacing (next_read_ok_) or gated.
  if (!read_granted && oq_.total_size() != 0) {
    ++stats_.read_stall_cycles;
    if (m_read_stall_) m_read_stall_->inc();
  }
  // Pending cells that see a full buffer this cycle lose their window
  // guarantee; record it so an eventual drop is attributed correctly.
  if (!free_.can_alloc(m_)) {
    for (auto& p : pending_) {
      if (p.valid) p.addr_starved = true;
    }
  }
  expire_pending(t);

  const SlotOp op = resv_.take(t);
  if (op.empty()) {
    ++stats_.idle_cycles;
    return;
  }

  StageCtrl c;
  if (op.has_write && op.has_read) {
    PMSB_CHECK(op.w_addr == op.r_addr, "snoop slot with mismatched addresses");
    c.op = StageOp::kWriteSnoop;
    ++stats_.snoop_initiations;
  } else if (op.has_write) {
    c.op = StageOp::kWrite;
    ++stats_.write_initiations;
  } else {
    c.op = StageOp::kRead;
    ++stats_.read_initiations;
  }
  c.addr = op.has_write ? op.w_addr : op.r_addr;
  c.in_link = op.in_link;
  c.out_link = op.out_link;
  c.head = op.has_read ? op.r_head : op.w_head;

  if (op.has_write) {
    // The wave consumes IR[in][s] at cycle t+s; forbid earlier overwrites.
    ir_.protect_for_wave(op.in_link, t, op.w_a0);
  }
  if (op.has_read) {
    // The segment's buffer address is recycled once its read wave has been
    // initiated: any re-allocation writes strictly behind this read at
    // every stage (DESIGN.md section 4).
    free_.release(op.r_addr);
  }
  if (m_wave_init_) m_wave_init_->inc();
  if (tracing()) {
    trace_push({t, obs::TraceEvent::kWaveInit, static_cast<std::uint16_t>(c.in_link),
                static_cast<std::uint16_t>(c.out_link), c.addr,
                static_cast<std::uint32_t>(c.op)});
  }
  mem_.initiate(c);
}

bool PipelinedSwitch::try_grant_read(Cycle t) {
  // Nothing queued: no output can be eligible (the pick would find none).
  if (oq_.total_size() == 0 || !resv_.progression_free(t, S_, m_)) return false;
  const int o = rr_read_.pick([&](unsigned out) {
    return next_read_ok_[out] <= t && !oq_.empty(out);
  });
  if (o < 0) return false;

  BufferedCell cell = oq_.pop(static_cast<unsigned>(o));
  resv_.reserve_reads(t, S_, cell.seg_addrs, static_cast<unsigned>(o));
  next_read_ok_[o] = t + static_cast<Cycle>(m_) * S_;
  ++stats_.read_grants;
  // Cut-through: departure initiated before the tail word has arrived
  // (tail on the input wire during a0 + L - 1).
  const bool cut = t < cell.head_arrival + static_cast<Cycle>(cfg_.cell_words) - 1;
  if (cut) {
    ++stats_.cut_through_cells;
    if (m_cut_through_) m_cut_through_->inc();
  }
  if (tracing()) {
    trace_push({t, obs::TraceEvent::kReadGrant, static_cast<std::uint16_t>(cell.input),
                static_cast<std::uint16_t>(o), cell.seg_addrs.front(), 0});
    if (cut)
      trace_push({t, obs::TraceEvent::kCutThrough, static_cast<std::uint16_t>(cell.input),
                  static_cast<std::uint16_t>(o), cell.seg_addrs.front(), 0});
  }
  events_.read_grant(static_cast<unsigned>(o), cell.input, t, cell.write_start,
                     cell.head_arrival, cut);
  return true;
}

bool PipelinedSwitch::try_grant_write(Cycle t) {
  // No room for a cell: no input can be eligible (the pick would find none).
  if (!free_.can_alloc(m_) || !resv_.progression_free(t, S_, m_)) return false;
  const int i = rr_write_.pick([&](unsigned in) {
    return pending_[in].valid && free_.can_alloc(m_);
  });
  if (i < 0) return false;
  if (fault_.suppress_write_grant_period != 0 &&
      ++fault_write_grants_ % fault_.suppress_write_grant_period == 0) {
    // Injected arbiter bug: the grant this cell was owed never happens, so
    // its latch-window deadline can silently pass (see FaultPlan).
    return false;
  }

  Pending& p = pending_[i];
  const SegAddrs addrs = free_.alloc(m_);
  resv_.reserve_writes(t, S_, addrs, static_cast<unsigned>(i), p.a0);
  ++stats_.accepted;
  if (tracing())
    trace_push({t, obs::TraceEvent::kWriteWave, static_cast<std::uint16_t>(i), 0,
                addrs.front(), static_cast<std::uint32_t>(t - p.a0)});
  events_.accept(static_cast<unsigned>(i), p.a0, t);

  // Automatic cut-through (section 3.3): if the destination is idle and has
  // nothing queued ahead of this cell, co-initiate the snooping read on the
  // very same slots.
  const unsigned dest = p.dest;
  if (cfg_.cut_through && next_read_ok_[dest] <= t && oq_.empty(dest)) {
    resv_.attach_snoop_reads(t, S_, addrs, dest);
    next_read_ok_[dest] = t + static_cast<Cycle>(m_) * S_;
    ++stats_.read_grants;
    ++stats_.snoop_cells;
    const bool cut = t < p.a0 + static_cast<Cycle>(cfg_.cell_words) - 1;
    if (cut) {
      ++stats_.cut_through_cells;
      if (m_cut_through_) m_cut_through_->inc();
    }
    if (tracing()) {
      trace_push({t, obs::TraceEvent::kSnoop, static_cast<std::uint16_t>(i),
                  static_cast<std::uint16_t>(dest), addrs.front(), 0});
      if (cut)
        trace_push({t, obs::TraceEvent::kCutThrough, static_cast<std::uint16_t>(i),
                    static_cast<std::uint16_t>(dest), addrs.front(), 0});
    }
    events_.read_grant(dest, static_cast<unsigned>(i), t, t, p.a0, cut);
  } else {
    oq_.push(BufferedCell{static_cast<unsigned>(i), dest, p.a0, t, addrs});
  }
  p.valid = false;
  return true;
}

void PipelinedSwitch::expire_pending(Cycle t) {
  for (unsigned i = 0; i < cfg_.n_ports; ++i) {
    Pending& p = pending_[i];
    if (!p.valid) continue;
    const Cycle deadline = p.a0 + static_cast<Cycle>(S_);
    PMSB_CHECK(t <= deadline, "pending write survived past its latch window");
    if (t < deadline) continue;
    // Last chance was this cycle and it was not granted: the latches will be
    // reused, the cell is lost. A cell that was ever blocked on buffer space
    // during its window is a buffer-full loss; only a cell that had space
    // available throughout yet never got a stage-0 slot is a slot-miss
    // (impossible for single-segment cells -- DESIGN.md invariant 2).
    const DropReason why = p.addr_starved ? DropReason::kNoAddress : DropReason::kNoSlot;
    if (why == DropReason::kNoAddress)
      ++stats_.dropped_no_addr;
    else
      ++stats_.dropped_no_slot;
    events_.drop(i, p.a0, why);
    if (tracing())
      trace_push({t, obs::TraceEvent::kDrop, static_cast<std::uint16_t>(i), 0, 0,
                  static_cast<std::uint32_t>(why)});
    p.valid = false;
  }
}

void PipelinedSwitch::process_arrivals(Cycle t) {
  for (unsigned i = 0; i < cfg_.n_ports; ++i) {
    const Flit& f = in_links_[i].now();
    InFsm& fsm = in_fsm_[i];
    if (!fsm.receiving) {
      if (!f.valid) continue;
      PMSB_CHECK(f.sop, "cell body word arrived while the input expected a head");
      fsm.receiving = true;
      fsm.phase = 0;
      fsm.dest = decode_dest(f.data, cfg_.cell_format());
      PMSB_CHECK(fsm.dest < cfg_.n_ports, "destination out of range");
      fsm.a0 = t;
      ir_.latch(i, 0, f.data, t);
      fsm.phase = 1;
      fsm.stage = S_ > 1 ? 1 : 0;
      PMSB_CHECK(!pending_[i].valid, "new head while the previous cell is unresolved");
      ++stats_.heads_seen;
      events_.head(i, t, fsm.dest);
      if (tracing())
        trace_push({t, obs::TraceEvent::kHead, static_cast<std::uint16_t>(i),
                    static_cast<std::uint16_t>(fsm.dest), 0, 0});
      // Anti-hogging threshold (arrival-time discard): a saturated output is
      // not allowed to absorb the whole shared pool.
      if (cfg_.out_queue_limit != 0 && oq_.size(fsm.dest) >= cfg_.out_queue_limit) {
        ++stats_.dropped_out_limit;
        events_.drop(i, t, DropReason::kOutputLimit);
        if (tracing())
          trace_push({t, obs::TraceEvent::kDrop, static_cast<std::uint16_t>(i),
                      static_cast<std::uint16_t>(fsm.dest), 0,
                      static_cast<std::uint32_t>(DropReason::kOutputLimit)});
        continue;
      }
      pending_[i] = Pending{true, t, fsm.dest, false};
    } else {
      PMSB_CHECK(f.valid && !f.sop, "gap or unexpected head inside a cell");
      ir_.latch(i, fsm.stage, f.data, t);
      fsm.stage = fsm.stage + 1 == S_ ? 0 : fsm.stage + 1;
      ++fsm.phase;
      if (fsm.phase == cfg_.cell_words) fsm.receiving = false;
    }
  }
}

void PipelinedSwitch::commit(Cycle t) {
  ir_.tick(t);
  mem_.tick();
  orow_.tick();
  free_.tick();
  oq_.tick();
  for (auto& l : in_links_) l.tick();
  for (auto& l : out_links_) l.tick();
}

bool PipelinedSwitch::drained() const {
  if (oq_.total_size() != 0 || free_.in_use() != 0 || mem_.busy()) return false;
  for (const auto& f : in_fsm_) {
    if (f.receiving) return false;
  }
  for (const auto& p : pending_) {
    if (p.valid) return false;
  }
  return true;
}

bool PipelinedSwitch::is_quiescent(Cycle) const {
  // Fully drained AND the link wires carry nothing: a drained switch may
  // still be shifting a departed cell's tail words onto an output link, and
  // an arriving head on an input link would be consumed by the next eval.
  // In this state eval() takes the empty-slot early exit (touching only the
  // cycles/idle_cycles counters, compensated by skip()) and commit() ticks
  // empty structures and idle wires.
  if (!drained()) return false;
  for (const auto& l : in_links_) {
    if (!l.idle()) return false;
  }
  for (const auto& l : out_links_) {
    if (!l.idle()) return false;
  }
  return true;
}

void PipelinedSwitch::skip(Cycle, Cycle n) {
  // Each skipped cycle would have taken the idle path of eval().
  stats_.cycles += static_cast<std::uint64_t>(n);
  stats_.idle_cycles += static_cast<std::uint64_t>(n);
}

}  // namespace pmsb
