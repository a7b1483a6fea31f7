#include "arch/prizma/prizma_switch.hpp"

#include <stdexcept>

namespace pmsb {

ConfigValidation PrizmaConfig::check() const {
  ConfigValidation v;
  auto issue = [&v](ConfigIssue::Code c, std::string msg) {
    v.issues.push_back(ConfigIssue{c, std::move(msg)});
  };
  if (n_ports < 1) issue(ConfigIssue::Code::kBadPorts, "n_ports must be >= 1");
  if (word_bits < 1 || word_bits > 64)
    issue(ConfigIssue::Code::kBadWordBits, "word_bits must be in [1, 64]");
  else if (dest_bits() >= word_bits)
    issue(ConfigIssue::Code::kHeadTooNarrow,
          "head word too narrow for the destination field");
  if (cell_words < 2)
    issue(ConfigIssue::Code::kBadCellWords, "cells must be at least two words");
  if (n_banks < 1) issue(ConfigIssue::Code::kBadCapacity, "need at least one bank");
  return v;
}

void PrizmaConfig::validate() const {
  const ConfigValidation v = check();
  if (!v.ok()) throw std::invalid_argument(v.summary());
}

PrizmaSwitch::PrizmaSwitch(const PrizmaConfig& cfg)
    : CellSwitch((cfg.validate(), cfg.n_ports), cfg.cell_format()),
      cfg_(cfg),
      L_(cfg.cell_words),
      banks_(cfg.n_banks, std::vector<Word>(cfg.cell_words, 0)),
      free_banks_(cfg.n_banks),
      oq_(cfg.n_ports),
      in_(cfg.n_ports),
      out_(cfg.n_ports, OutPort{CellTx(cfg.cell_words)}) {}

void PrizmaSwitch::eval(Cycle t) {
  ++stats_.cycles;
  serve_outputs(t);
  accept_arrivals(t);
}

void PrizmaSwitch::serve_outputs(Cycle t) {
  // Every output has its own selector-crossbar column: all outputs stream
  // concurrently, each from a different bank (no shared-port contention).
  for (unsigned o = 0; o < cfg_.n_ports; ++o) {
    OutPort& p = out_[o];
    if (!p.tx.busy() && !oq_.empty(o)) {
      const QueuedCell c = oq_.pop(o);
      p.tx.start(banks_[c.bank].data());
      p.bank = c.bank;
      p.a0 = c.a0;
      ++stats_.read_grants;
      ++stats_.read_initiations;
      const bool cut = t < c.a0 + static_cast<Cycle>(L_) - 1;
      if (cut) ++stats_.cut_through_cells;
      events_.read_grant(o, c.input, t, c.a0 + 1, c.a0, cut);
    }
    if (p.tx.busy()) {
      // Word k was written to the bank at the end of cycle a0 + k, and the
      // stream reads it during t: t >= a0 + k + 1 holds because the stream
      // started at t >= a0 + 1 and advances one word per cycle.
      PMSB_CHECK(t > p.a0 + static_cast<Cycle>(p.tx.phase()), "PRIZMA read overtook its write");
      if (p.tx.drive(out_links_[o], t)) free_banks_.release(p.bank);
    }
  }
}

void PrizmaSwitch::accept_arrivals(Cycle t) {
  for (unsigned i = 0; i < cfg_.n_ports; ++i) {
    const Flit& f = in_links_[i].now(t);
    const RxWord w = rx_[i].take(f, t);
    if (w == RxWord::kIdle) continue;
    InPort& p = in_[i];
    if (w == RxWord::kHead) {
      const unsigned dest = rx_[i].dest();
      ++stats_.heads_seen;
      events_.head(i, t, dest);
      p.discarding = !free_banks_.can_alloc(1);
      if (p.discarding) {
        ++stats_.dropped_no_addr;
        events_.drop(i, t, DropReason::kNoAddress);
      } else {
        p.bank = free_banks_.alloc(1)[0];
        ++stats_.accepted;
        ++stats_.write_initiations;
        events_.accept(i, t, t + 1);
        oq_.push(dest, QueuedCell{p.bank, i, t});
      }
    }
    if (!p.discarding) banks_[p.bank][rx_[i].phase()] = f.data;
  }
}

void PrizmaSwitch::commit(Cycle) {
  free_banks_.tick();
  oq_.tick();
}

bool PrizmaSwitch::drained() const {
  // A streaming output still holds its bank, so it counts as in use.
  return free_banks_.in_use() == 0 && oq_.idle() && !any_mid_cell();
}

}  // namespace pmsb
