#include "core/fast_switch.hpp"

#include "common/cell.hpp"

namespace pmsb {

FastSwitch::FastSwitch(const SwitchConfig& cfg)
    : CellSwitch((cfg.validate(), cfg.n_ports), cfg.cell_format()), cfg_(cfg),
      L_(cfg.cell_words), window_(cfg.stages()), capacity_cells_(cfg.capacity_cells()),
      filling_(cfg.n_ports), tx_(cfg.n_ports), pending_(cfg.n_ports), oq_(cfg.n_ports) {}

void FastSwitch::register_metrics(obs::MetricsRegistry& m, const std::string& prefix) {
  m.add_gauge(prefix + ".buffer.in_use",
              [this] { return static_cast<double>(resident_); });
  m.add_gauge(prefix + ".queued_cells",
              [this] { return static_cast<double>(queued_cells()); });
}

void FastSwitch::eval(Cycle t) {
  ++stats_.cycles;
  // Pending cells resolve before new arrivals register, mirroring the
  // cycle-accurate eval order (arbitrate, then latch) — a pending head
  // becomes eligible the cycle after its arrival cycle.
  admit_or_expire_pending(t);
  for (unsigned i = 0; i < cfg_.n_ports; ++i) process_arrival(i, t);
  bool drove = false;
  for (unsigned o = 0; o < cfg_.n_ports; ++o) {
    run_output(o, t);
    drove = drove || tx_[o].active || out_links_[o].now().valid;
  }
  if (!drove) ++stats_.idle_cycles;
}

void FastSwitch::admit_or_expire_pending(Cycle t) {
  for (unsigned i = 0; i < cfg_.n_ports; ++i) {
    PendingCell& p = pending_[i];
    if (!p.valid) continue;
    if (resident_ < capacity_cells_) {
      ++stats_.accepted;
      ++stats_.write_initiations;
      ++resident_;
      events_.accept(i, p.a0, t);
      oq_[p.dest].push_back(p.cell);
      p = PendingCell{};
    } else if (t >= p.a0 + static_cast<Cycle>(window_)) {
      // Window over with the buffer still full: the addr-starved loss class
      // (the fast model has no stage-0 slot, so kNoSlot cannot happen).
      ++stats_.dropped_no_addr;
      events_.drop(i, p.a0, DropReason::kNoAddress);
      p = PendingCell{};  // Its input keeps taking the dead cell's body.
    }
  }
}

void FastSwitch::process_arrival(unsigned i, Cycle t) {
  const Flit& f = in_links_[i].now();
  CellRx& rx = rx_[i];
  const RxWord w = rx.take(f, t);
  if (w == RxWord::kIdle) return;
  CellPtr& cell = filling_[i];
  if (w == RxWord::kBody) {
    if (cell) {
      cell->words[rx.phase()] = f.data;
      cell->filled = rx.phase() + 1;
    }
    if (rx.ends_cell()) cell.reset();
    return;
  }
  PMSB_CHECK(!pending_[i].valid, "fast switch: new head while the previous cell is unresolved");
  const unsigned dest = rx.dest();
  ++stats_.heads_seen;
  events_.head(i, t, dest);
  // Head-time admission: same classification and priority as the
  // cycle-accurate switch (output cap first, then shared-buffer space);
  // no latch-window deadline exists here, so kNoSlot never occurs.
  if (cfg_.out_queue_limit > 0 && oq_[dest].size() >= cfg_.out_queue_limit) {
    ++stats_.dropped_out_limit;
    events_.drop(i, t, DropReason::kOutputLimit);
    cell.reset();
    return;
  }
  cell = std::make_shared<Cell>();
  cell->input = i;
  cell->dest = dest;
  cell->a0 = t;
  cell->words.resize(L_);
  cell->words[0] = f.data;
  cell->filled = 1;
  if (resident_ >= capacity_cells_) {
    // Full buffer: not a drop yet. The cycle-accurate switch keeps the
    // cell in its input latches through the window [a0+1, a0+2n] and
    // grants it if an address frees; hold it pending the same way.
    pending_[i] = PendingCell{true, t, dest, cell};
    return;
  }
  ++stats_.accepted;
  ++stats_.write_initiations;
  ++resident_;
  events_.accept(i, t, t + 1);
  oq_[dest].push_back(cell);
  // L >= 2 always (validated), so the head never ends the cell.
}

void FastSwitch::run_output(unsigned o, Cycle t) {
  TxFsm& tx = tx_[o];
  if (!tx.active && !oq_[o].empty()) {
    const CellPtr& head = oq_[o].front();
    // With cut-through the relay starts the cycle after the head arrived
    // (head on the output wire at a0 + 2, the paper's best case); without
    // it the whole cell must have arrived first.
    const Cycle ready = cfg_.cut_through ? head->a0 + 1 : head->a0 + static_cast<Cycle>(L_);
    if (t >= ready) {
      tx.cell = head;
      oq_[o].pop_front();
      tx.active = true;
      tx.phase = 0;
      PMSB_CHECK(resident_ > 0, "fast switch: transmit from an empty buffer");
      --resident_;  // Buffer space frees at departure start, as in the
                    // cycle-accurate switch's read initiation.
      ++stats_.read_grants;
      ++stats_.read_initiations;
      const bool cut = t < tx.cell->a0 + static_cast<Cycle>(L_) - 1;
      if (cut) ++stats_.cut_through_cells;
      events_.read_grant(o, tx.cell->input, t, tx.cell->a0 + 1, tx.cell->a0, cut);
    }
  }
  if (tx.active) {
    PMSB_CHECK(tx.phase < tx.cell->filled, "fast switch: relay ran ahead of arrival");
    out_links_[o].drive_next(Flit{true, tx.phase == 0, tx.cell->words[tx.phase]});
    if (++tx.phase == L_) {
      tx.active = false;
      tx.cell.reset();
    }
  }
}

void FastSwitch::commit(Cycle) { tick_links(); }

bool FastSwitch::drained() const {
  if (resident_ != 0 || any_mid_cell()) return false;
  for (const auto& p : pending_) {
    if (p.valid) return false;
  }
  for (const auto& x : tx_) {
    if (x.active) return false;
  }
  for (const auto& q : oq_) {
    if (!q.empty()) return false;
  }
  return true;
}

bool FastSwitch::is_quiescent(Cycle) const { return drained() && links_idle(); }

void FastSwitch::skip(Cycle, Cycle n) {
  stats_.cycles += static_cast<std::uint64_t>(n);
  stats_.idle_cycles += static_cast<std::uint64_t>(n);
}

}  // namespace pmsb
