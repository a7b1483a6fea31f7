#include "arch/cq/cq_switch.hpp"

#include <stdexcept>
#include <utility>

#include "common/cell.hpp"

namespace pmsb {

CrosspointQueuedSwitch::CrosspointQueuedSwitch(const SwitchConfig& cfg, CqScheduler sched)
    : CellSwitch((cfg.validate(), cfg.n_ports), cfg.cell_format()),
      cfg_(cfg),
      sched_(sched),
      xp_cap_(cfg.capacity_cells() /
              (static_cast<std::size_t>(cfg.n_ports) * cfg.n_ports)),
      xq_(cfg.n_ports * cfg.n_ports),
      fill_(cfg.n_ports, std::vector<Word>(cfg.cell_words)),
      out_(cfg.n_ports, OutPort{std::vector<Word>(cfg.cell_words), CellTx(cfg.cell_words)}) {
  if (xp_cap_ == 0)
    throw std::invalid_argument(
        "crosspoint-queued switch needs capacity_cells() >= n_ports^2: the "
        "pool is statically split into one buffer per crosspoint");
  rr_.reserve(cfg.n_ports);
  for (unsigned o = 0; o < cfg.n_ports; ++o) rr_.emplace_back(cfg.n_ports);
}

void CrosspointQueuedSwitch::eval(Cycle t) {
  ++stats_.cycles;
  run_outputs(t);
  accept_arrivals(t);
}

int CrosspointQueuedSwitch::pick_input(unsigned output) {
  if (sched_ == CqScheduler::kRoundRobin) {
    return rr_[output].pick([&](unsigned i) { return !xq_.empty(crosspoint(i, output)); });
  }
  // Longest queue first; lowest input index breaks ties, deterministically.
  int best = -1;
  std::size_t best_len = 0;
  for (unsigned i = 0; i < cfg_.n_ports; ++i) {
    const std::size_t len = xq_.size(crosspoint(i, output));
    if (len > best_len) {
      best = static_cast<int>(i);
      best_len = len;
    }
  }
  return best;
}

void CrosspointQueuedSwitch::run_outputs(Cycle t) {
  for (unsigned o = 0; o < cfg_.n_ports; ++o) {
    OutPort& p = out_[o];
    if (!p.tx.busy()) {
      const int i = pick_input(o);
      if (i >= 0) {
        QueuedCell c = xq_.pop(crosspoint(static_cast<unsigned>(i), o));
        p.shift.swap(c.words);
        spare_rows_.push_back(std::move(c.words));
        p.tx.start(p.shift.data());
        ++stats_.read_initiations;
        ++stats_.read_grants;
        events_.read_grant(o, c.input, t, c.stored_at, c.a0, false);
      }
    }
    if (p.tx.busy()) p.tx.drive(out_links_[o], t);
  }
}

void CrosspointQueuedSwitch::accept_arrivals(Cycle t) {
  for (unsigned i = 0; i < cfg_.n_ports; ++i) {
    const Flit& f = in_links_[i].now(t);
    CellRx& rx = rx_[i];
    const RxWord w = rx.take(f, t);
    if (w == RxWord::kIdle) continue;
    if (w == RxWord::kHead) {
      ++stats_.heads_seen;
      events_.head(i, t, rx.dest());
    }
    fill_[i][rx.phase()] = f.data;
    if (!rx.ends_cell()) continue;

    // Cell complete: it either fits in its crosspoint or is lost. Only this
    // input writes crosspoint (i, dest), so one occupancy check suffices.
    const unsigned q = crosspoint(i, rx.dest());
    if (xq_.size(q) >= xp_cap_) {
      ++stats_.dropped_no_addr;
      events_.drop(i, rx.a0(), DropReason::kNoAddress);
      continue;
    }
    // The complete row moves into the queue; the next cell fills a spare
    // (every word of it is overwritten before that cell can complete).
    xq_.push(q, QueuedCell{std::move(fill_[i]), i, rx.a0(), t});
    if (spare_rows_.empty()) {
      fill_[i].assign(cfg_.cell_words, 0);
    } else {
      fill_[i] = std::move(spare_rows_.back());
      spare_rows_.pop_back();
    }
    ++stats_.accepted;
    ++stats_.write_initiations;
    events_.accept(i, rx.a0(), t + 1);
  }
}

void CrosspointQueuedSwitch::commit(Cycle) {
  xq_.tick();
}

bool CrosspointQueuedSwitch::drained() const {
  if (!xq_.idle() || any_mid_cell()) return false;
  for (const auto& p : out_) {
    if (p.tx.busy()) return false;
  }
  return true;
}

}  // namespace pmsb
