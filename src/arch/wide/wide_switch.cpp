#include "arch/wide/wide_switch.hpp"

#include <stdexcept>

namespace pmsb {

WideMemorySwitch::WideMemorySwitch(const SwitchConfig& cfg)
    : CellSwitch((cfg.validate(), cfg.n_ports), cfg.cell_format()),
      cfg_(cfg),
      wide_ram_(cfg.capacity_cells(), std::vector<Word>(cfg.cell_words, 0)),
      free_(cfg.capacity_cells()),
      oq_(cfg.n_ports),
      rr_read_(cfg.n_ports),
      rr_write_(cfg.n_ports),
      in_(cfg.n_ports, InPort{.fill = std::vector<Word>(cfg.cell_words),
                              .staged = std::vector<Word>(cfg.cell_words)}),
      out_(cfg.n_ports, OutPort{.shift = std::vector<Word>(cfg.cell_words),
                                .tx = CellTx(cfg.cell_words),
                                .next = std::vector<Word>(cfg.cell_words)}) {
  if (cfg.segments_per_cell() != 1)
    throw std::invalid_argument(
        "wide-memory switch stores one cell per wide word: cell_words must "
        "equal 2*n_ports");
}

void WideMemorySwitch::eval(Cycle t) {
  ++stats_.cycles;
  ram_port_used_ = false;
  arbitrate_memory(t);
  run_outputs(t);
  accept_arrivals(t);
  if (!ram_port_used_) ++stats_.idle_cycles;
}

void WideMemorySwitch::arbitrate_memory(Cycle t) {
  // One wide-word access per cycle; reads (outputs) have priority, exactly
  // as in the pipelined organization, for a like-for-like comparison.
  const int o = rr_read_.pick([&](unsigned out) {
    return !out_[out].next_valid && !oq_.empty(out);
  });
  if (o >= 0) {
    OutPort& p = out_[o];
    const QueuedCell c = oq_.pop(static_cast<unsigned>(o));
    p.next = wide_ram_[c.addr];
    p.next_valid = true;
    free_.release(c.addr);
    ram_port_used_ = true;
    ++stats_.read_initiations;
    ++stats_.read_grants;
    events_.read_grant(static_cast<unsigned>(o), c.input, t, c.stored_at, c.a0, false);
    return;
  }
  const int i = rr_write_.pick(
      [&](unsigned in) { return in_[in].staged_valid && free_.can_alloc(1); });
  if (i >= 0) {
    InPort& p = in_[i];
    const std::uint32_t addr = free_.alloc(1)[0];
    wide_ram_[addr] = p.staged;
    oq_.push(p.staged_dest, QueuedCell{addr, static_cast<unsigned>(i), p.staged_a0, t});
    // The queue entry becomes readable next cycle (committed), matching a
    // registered "ready to depart" list.
    p.staged_valid = false;
    ram_port_used_ = true;
    ++stats_.write_initiations;
  }
}

void WideMemorySwitch::run_outputs(Cycle t) {
  for (unsigned o = 0; o < cfg_.n_ports; ++o) {
    OutPort& p = out_[o];
    if (p.bypass_reg.valid) {
      // Word captured from the bypass bus last cycle drives the link now.
      out_links_[o].drive_next(t, p.bypass_reg);
      p.bypass_reg = Flit{};
      continue;  // The link is spoken for this cycle.
    }
    if (p.bypass_from >= 0) continue;  // Link owned by the bypass stream.
    if (!p.tx.busy() && p.next_valid) {
      p.shift.swap(p.next);
      p.next_valid = false;
      p.tx.start(p.shift.data());
    }
    if (p.tx.busy()) p.tx.drive(out_links_[o], t);
  }
}

void WideMemorySwitch::accept_arrivals(Cycle t) {
  for (unsigned i = 0; i < cfg_.n_ports; ++i) {
    const Flit& f = in_links_[i].now(t);
    CellRx& rx = rx_[i];
    const RxWord w = rx.take(f, t);
    if (w == RxWord::kIdle) continue;
    InPort& p = in_[i];
    const unsigned dest = rx.dest();
    if (w == RxWord::kHead) {
      ++stats_.heads_seen;
      events_.head(i, t, dest);

      // Cut-through decision -- only possible here, at head arrival, via the
      // dedicated bypass buses and output crossbar of figure 3.
      OutPort& op = out_[dest];
      const bool own_staged_same_dest = p.staged_valid && p.staged_dest == dest;
      bool queued_this_cycle = false;
      for (const auto& s : oq_.staged()) queued_this_cycle |= s.queue == dest;
      p.bypassing = cfg_.cut_through && op.bypass_from < 0 && !op.bypass_reg.valid &&
                    !op.tx.busy() && !op.next_valid && oq_.empty(dest) &&
                    !queued_this_cycle && !own_staged_same_dest;
      if (p.bypassing) {
        op.bypass_from = static_cast<int>(i);
        ++stats_.accepted;
        ++stats_.cut_through_cells;
        ++stats_.read_grants;
        events_.accept(i, t, t + 1);
        events_.read_grant(dest, i, t + 1, t + 1, t, true);
      }
    }

    p.fill[rx.phase()] = f.data;
    if (p.bypassing) {
      // One register stage through the bypass bus + crossbar: word on the
      // input wire at t is captured here and driven during t+1, appearing on
      // the output wire at t+2 -- same minimum head latency as the
      // pipelined memory's snoop path.
      PMSB_CHECK(!out_[dest].bypass_reg.valid, "bypass crossbar register overwritten");
      out_[dest].bypass_reg = Flit{true, rx.phase() == 0, f.data};
    }
    if (!rx.ends_cell()) continue;

    // Cell complete.
    if (p.bypassing) {
      p.bypassing = false;
      out_[dest].bypass_from = -1;
      continue;
    }
    if (p.staged_valid) {
      // Double-buffer overrun: the staging row never got its memory cycle.
      ++stats_.dropped_no_slot;
      events_.drop(i, rx.a0(), DropReason::kNoSlot);
      continue;
    }
    p.staged.swap(p.fill);
    p.staged_valid = true;
    p.staged_dest = dest;
    p.staged_a0 = rx.a0();
    ++stats_.accepted;
    events_.accept(i, rx.a0(), t + 1);
  }
}

void WideMemorySwitch::commit(Cycle) {
  free_.tick();
  oq_.tick();
}

bool WideMemorySwitch::drained() const {
  if (free_.in_use() != 0 || !oq_.idle() || any_mid_cell()) return false;
  for (const auto& p : in_) {
    if (p.staged_valid) return false;
  }
  for (const auto& p : out_) {
    if (p.tx.busy() || p.next_valid || p.bypass_from >= 0) return false;
  }
  return true;
}

}  // namespace pmsb
