#include "core/fast_switch.hpp"

#include "common/cell.hpp"

namespace pmsb {

FastSwitch::FastSwitch(const SwitchConfig& cfg)
    : CellSwitch((cfg.validate(), cfg.n_ports), cfg.cell_format()), cfg_(cfg),
      L_(cfg.cell_words), window_(cfg.stages()), capacity_cells_(cfg.capacity_cells()),
      filling_(cfg.n_ports, kNoCell), pending_(cfg.n_ports, kNoCell), oq_(cfg.n_ports),
      tx_(cfg.n_ports, CellTx(cfg.cell_words)), tx_cell_(cfg.n_ports, kNoCell) {}

void FastSwitch::grow_pool() {
  word_blocks_.push_back(std::make_unique<Word[]>(std::size_t{kPoolChunk} * L_));
  Word* words = word_blocks_.back().get();
  for (unsigned k = 0; k < kPoolChunk; ++k, words += L_) {
    free_cells_.push_back(static_cast<std::uint32_t>(cells_.size()));
    cells_.push_back(Cell{});
    cells_.back().words = words;
  }
}

std::uint32_t FastSwitch::take_cell() {
  if (free_cells_.empty()) grow_pool();
  const std::uint32_t c = free_cells_.back();
  free_cells_.pop_back();
  cells_[c].refs = 2;
  return c;
}

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
    drove = drove || tx_[o].busy() || out_links_[o].now(t).valid;
  }
  if (!drove) ++stats_.idle_cycles;
}

void FastSwitch::admit_or_expire_pending(Cycle t) {
  for (unsigned i = 0; i < cfg_.n_ports; ++i) {
    std::uint32_t& c = pending_[i];
    if (c == kNoCell) continue;
    const Cell& cell = cells_[c];
    if (resident_ < capacity_cells_) {
      ++stats_.accepted;
      ++stats_.write_initiations;
      ++resident_;
      events_.accept(i, cell.a0, t);
      oq_[cell.dest].push(c);
      c = kNoCell;
    } else if (t >= cell.a0 + static_cast<Cycle>(window_)) {
      // Window over with the buffer still full: the addr-starved loss class
      // (the fast model has no stage-0 slot, so kNoSlot cannot happen).
      ++stats_.dropped_no_addr;
      events_.drop(i, cell.a0, DropReason::kNoAddress);
      release_cell(c);  // Its input keeps taking the dead cell's body.
    }
  }
}

void FastSwitch::process_arrival(unsigned i, Cycle t) {
  const Flit& f = in_links_[i].now(t);
  CellRx& rx = rx_[i];
  const RxWord w = rx.take(f, t);
  if (w == RxWord::kIdle) return;
  std::uint32_t& c = filling_[i];
  if (w == RxWord::kBody) {
    if (c == kNoCell) return;
    Cell& cell = cells_[c];
    cell.words[rx.phase()] = f.data;
    cell.filled = rx.phase() + 1;
    if (rx.ends_cell()) release_cell(c);
    return;
  }
  PMSB_CHECK(pending_[i] == kNoCell,
             "fast switch: new head while the previous cell is unresolved");
  const unsigned dest = rx.dest();
  ++stats_.heads_seen;
  events_.head(i, t, dest);
  // Head-time admission: same classification and priority as the
  // cycle-accurate switch (output cap first, then shared-buffer space);
  // no latch-window deadline exists here, so kNoSlot never occurs.
  if (cfg_.out_queue_limit > 0 && oq_[dest].size() >= cfg_.out_queue_limit) {
    ++stats_.dropped_out_limit;
    events_.drop(i, t, DropReason::kOutputLimit);
    return;
  }
  // L >= 2 always (validated), so the head never ends the cell: the input
  // holds the buffer until the tail.
  c = take_cell();
  Cell& cell = cells_[c];
  cell.input = i;
  cell.dest = dest;
  cell.a0 = t;
  cell.words[0] = f.data;
  cell.filled = 1;
  if (resident_ >= capacity_cells_) {
    // Full buffer: not a drop yet. The cycle-accurate switch keeps the
    // cell in its input latches through the window [a0+1, a0+2n] and
    // grants it if an address frees; hold it pending the same way.
    pending_[i] = c;
    return;
  }
  ++stats_.accepted;
  ++stats_.write_initiations;
  ++resident_;
  events_.accept(i, t, t + 1);
  oq_[dest].push(c);
}

void FastSwitch::run_output(unsigned o, Cycle t) {
  CellTx& tx = tx_[o];
  std::uint32_t& c = tx_cell_[o];
  if (!tx.busy() && !oq_[o].empty()) {
    const Cell& head = cells_[oq_[o].front()];
    // With cut-through the relay starts the cycle after the head arrived
    // (head on the output wire at a0 + 2, the paper's best case); without
    // it the whole cell must have arrived first.
    const Cycle ready = cfg_.cut_through ? head.a0 + 1 : head.a0 + static_cast<Cycle>(L_);
    if (t >= ready) {
      c = oq_[o].front();
      oq_[o].pop();
      tx.start(head.words);
      PMSB_CHECK(resident_ > 0, "fast switch: transmit from an empty buffer");
      --resident_;  // Buffer space frees at departure start, as in the
                    // cycle-accurate switch's read initiation.
      ++stats_.read_grants;
      ++stats_.read_initiations;
      const bool cut = t < head.a0 + static_cast<Cycle>(L_) - 1;
      if (cut) ++stats_.cut_through_cells;
      events_.read_grant(o, head.input, t, head.a0 + 1, head.a0, cut);
    }
  }
  if (tx.busy()) {
    PMSB_CHECK(tx.phase() < cells_[c].filled, "fast switch: relay ran ahead of arrival");
    if (tx.drive(out_links_[o], t)) release_cell(c);
  }
}

bool FastSwitch::drained() const {
  if (resident_ != 0 || any_mid_cell()) return false;
  for (const std::uint32_t c : pending_) {
    if (c != kNoCell) return false;
  }
  for (const CellTx& x : tx_) {
    if (x.busy()) return false;
  }
  for (const auto& q : oq_) {
    if (!q.empty()) return false;
  }
  return true;
}

bool FastSwitch::is_quiescent(Cycle t) const { return drained() && links_idle(t); }

void FastSwitch::skip(Cycle, Cycle n) {
  stats_.cycles += static_cast<std::uint64_t>(n);
  stats_.idle_cycles += static_cast<std::uint64_t>(n);
}

}  // namespace pmsb
