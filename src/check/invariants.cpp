#include "check/invariants.hpp"

#include <cstdlib>

#include "common/rng.hpp"

namespace pmsb::check {

bool env_enabled() {
  const char* v = std::getenv("PMSB_CHECK");
#ifdef PMSB_CHECK_DEFAULT_ON
  return v == nullptr || (v[0] != '0' && v[0] != '\0');
#else
  return v != nullptr && v[0] != '\0' && v[0] != '0';
#endif
}

const char* to_string(Invariant inv) {
  switch (inv) {
    case Invariant::kSingleInitiation: return "single_initiation";
    case Invariant::kWriteWindow: return "write_window";
    case Invariant::kAddressExclusivity: return "address_exclusivity";
    case Invariant::kConservation: return "conservation";
    case Invariant::kOutputStagger: return "output_stagger";
    case Invariant::kCutThrough: return "cut_through";
    case Invariant::kDropReason: return "drop_reason";
  }
  return "?";
}

SwitchEvents InvariantChecker::make_events() {
  SwitchEvents ev;
  ev.on_head = [this](unsigned i, Cycle a0, unsigned dest) { on_head(i, a0, dest); };
  ev.on_accept = [this](unsigned i, Cycle a0, Cycle t0) { on_accept(i, a0, t0); };
  ev.on_drop = [this](unsigned i, Cycle a0, DropReason why) { on_drop(i, a0, why); };
  ev.on_read_grant = [this](unsigned o, unsigned i, Cycle tr, Cycle t0, Cycle a0,
                            bool cut) { on_read_grant(o, i, tr, t0, a0, cut); };
  return ev;
}

void InvariantChecker::init_common(unsigned n_ports, unsigned stages, unsigned segments,
                                   Cycle cell_len, bool cut_through, Engine& engine) {
  PMSB_CHECK(psw_ == nullptr && dsw_ == nullptr, "invariant checker attached twice");
  n_ = n_ports;
  S_ = stages;
  m_ = segments;
  cell_len_ = cell_len;
  cut_through_allowed_ = cut_through;
  last_read_grant_.assign(n_ports, -1);
  engine.add_cycle_observer(this);
}

void InvariantChecker::attach(PipelinedSwitch& sw, Engine& engine) {
  const SwitchConfig& cfg = sw.config();
  init_common(cfg.n_ports, cfg.stages(), cfg.segments_per_cell(),
              static_cast<Cycle>(cfg.cell_words), cfg.cut_through, engine);
  psw_ = &sw;
  addr_refs_.assign(cfg.capacity_segments, 0);
  addr_marked_.assign(cfg.capacity_segments, 0);
  events_sub_ = sw.events().subscribe(make_events());
  quiet_ = quiet_state();
}

void InvariantChecker::attach(DualPipelinedSwitch& sw, Engine& engine) {
  const DualSwitchConfig& cfg = sw.config();
  init_common(cfg.n_ports, cfg.stages(), 1, static_cast<Cycle>(cfg.cell_words()),
              cfg.cut_through, engine);
  dsw_ = &sw;
  events_sub_ = sw.events().subscribe(make_events());
  quiet_ = quiet_state();
}

void InvariantChecker::register_metrics(obs::MetricsRegistry& m, const std::string& prefix) {
  for (std::size_t i = 0; i < kInvariantCount; ++i) {
    counters_[i] =
        m.counter(prefix + ".violations." + to_string(static_cast<Invariant>(i)));
  }
}

std::uint32_t InvariantChecker::state_digest(Cycle t) const {
  std::uint64_t h = 0x9e3779b97f4a7c15ULL ^ static_cast<std::uint64_t>(t);
  const SwitchStats* s = psw_ ? &psw_->stats() : (dsw_ ? &dsw_->stats() : nullptr);
  if (s != nullptr) {
    h = mix64(h ^ s->heads_seen);
    h = mix64(h ^ s->accepted);
    h = mix64(h ^ s->dropped());
    h = mix64(h ^ s->read_grants);
  }
  if (psw_) h = mix64(h ^ (static_cast<std::uint64_t>(psw_->buffer_in_use()) << 32 |
                           psw_->queued_cells()));
  if (dsw_) h = mix64(h ^ (static_cast<std::uint64_t>(dsw_->buffer_in_use()) << 32 |
                           dsw_->queued_cells()));
  return static_cast<std::uint32_t>(h);
}

void InvariantChecker::violate(Cycle t, Invariant inv, std::string msg) {
  ++total_;
  ++per_invariant_[static_cast<std::size_t>(inv)];
  if (counters_[static_cast<std::size_t>(inv)]) {
    counters_[static_cast<std::size_t>(inv)]->inc();
  }
  const std::uint32_t digest = state_digest(t);
  if (trace_) {
    trace_->push({t, obs::TraceEvent::kViolation, 0, 0, digest,
                  static_cast<std::uint32_t>(inv)});
  }
  if (violations_.size() < 64) {
    violations_.push_back(Violation{t, inv, digest,
                                    "cycle " + std::to_string(t) + ": " + std::move(msg)});
  }
}

void InvariantChecker::on_head(unsigned, Cycle, unsigned) { ++ev_heads_; }

void InvariantChecker::on_accept(unsigned input, Cycle a0, Cycle t0) {
  ++ev_accepts_;
  if (t0 <= a0 || t0 > a0 + static_cast<Cycle>(S_)) {
    violate(t0, Invariant::kWriteWindow,
            "write wave for input " + std::to_string(input) + " at t0=" +
                std::to_string(t0) + " outside window (a0=" + std::to_string(a0) +
                ", S=" + std::to_string(S_) + "]");
  }
}

void InvariantChecker::on_drop(unsigned input, Cycle a0, DropReason why) {
  const auto idx = static_cast<std::size_t>(why);
  if (idx < 3) ++ev_drops_[idx];
  if (why == DropReason::kNoSlot && m_ == 1) {
    violate(a0 + static_cast<Cycle>(S_), Invariant::kDropReason,
            "kNoSlot drop for a single-segment cell (input " + std::to_string(input) +
                ", a0=" + std::to_string(a0) +
                "): the arbiter broke the write-window guarantee");
  }
}

void InvariantChecker::on_read_grant(unsigned output, unsigned input, Cycle tr, Cycle t0,
                                     Cycle a0, bool cut) {
  ++ev_read_grants_;
  if (tr == last_grant_cycle_) {
    if (++grants_in_cycle_ > 1) {
      violate(tr, Invariant::kOutputStagger,
              "two packet transmissions started in one cycle (shared output row)");
    }
  } else {
    last_grant_cycle_ = tr;
    grants_in_cycle_ = 1;
  }
  if (output < last_read_grant_.size()) {
    const Cycle last = last_read_grant_[output];
    if (last >= 0 && tr - last < cell_len_) {
      violate(tr, Invariant::kOutputStagger,
              "output " + std::to_string(output) + " re-initiated after " +
                  std::to_string(tr - last) + " < L=" + std::to_string(cell_len_) +
                  " cycles");
    }
    last_read_grant_[output] = tr;
  }
  if (tr < t0) {
    violate(tr, Invariant::kCutThrough,
            "read wave initiated before the cell's write wave (tr=" + std::to_string(tr) +
                " < t0=" + std::to_string(t0) + ")");
  }
  if (tr <= a0) {
    violate(tr, Invariant::kCutThrough,
            "read wave initiated before the head word was latched (input " +
                std::to_string(input) + ")");
  }
  const bool expect_cut = tr < a0 + cell_len_ - 1;
  if (cut != expect_cut) {
    violate(tr, Invariant::kCutThrough,
            std::string("cut-through flag ") + (cut ? "set" : "clear") +
                " but tail arrival says otherwise (tr=" + std::to_string(tr) +
                ", a0=" + std::to_string(a0) + ", L=" + std::to_string(cell_len_) + ")");
  }
  if (tr == t0 && !cut_through_allowed_) {
    violate(tr, Invariant::kCutThrough, "snooping read granted with cut-through disabled");
  }
}

void InvariantChecker::check_initiation_rate(Cycle t, const SwitchStats& s) {
  const std::uint64_t dw = s.write_initiations - prev_write_inits_;
  const std::uint64_t dr = s.read_initiations - prev_read_inits_;
  const std::uint64_t ds = s.snoop_initiations - prev_snoop_inits_;
  if (psw_) {
    const std::uint64_t mem = psw_->memory().initiations();
    const std::uint64_t dm = mem - prev_mem_inits_;
    if (dm > 1) {
      violate(t, Invariant::kSingleInitiation,
              std::to_string(dm) + " wave initiations at M0 in one cycle");
    }
    if (dw + dr + ds != dm) {
      violate(t, Invariant::kSingleInitiation,
              "stats initiation count disagrees with the memory (" +
                  std::to_string(dw + dr + ds) + " vs " + std::to_string(dm) + ")");
    }
    prev_mem_inits_ = mem;
  } else {
    // Dual organization (section 3.5): one read from one group plus one
    // write (or write+snoop) into the other -- never two of the same kind.
    if (dr > 1) {
      violate(t, Invariant::kSingleInitiation,
              std::to_string(dr) + " read initiations in one cycle (dual)");
    }
    if (dw + ds > 1) {
      violate(t, Invariant::kSingleInitiation,
              std::to_string(dw + ds) + " write initiations in one cycle (dual)");
    }
  }
  prev_write_inits_ = s.write_initiations;
  prev_read_inits_ = s.read_initiations;
  prev_snoop_inits_ = s.snoop_initiations;
}

void InvariantChecker::check_conservation(Cycle t, const SwitchStats& s, unsigned pending,
                                          std::size_t queued) {
  if (s.heads_seen != s.accepted + s.dropped() + pending) {
    violate(t, Invariant::kConservation,
            "cell conservation broken: heads=" + std::to_string(s.heads_seen) +
                " != accepted=" + std::to_string(s.accepted) + " + dropped=" +
                std::to_string(s.dropped()) + " + pending=" + std::to_string(pending));
  }
  if (s.accepted != s.read_grants + queued) {
    violate(t, Invariant::kConservation,
            "buffered-cell conservation broken: accepted=" + std::to_string(s.accepted) +
                " != departed=" + std::to_string(s.read_grants) + " + queued=" +
                std::to_string(queued));
  }
  if (ev_heads_ != s.heads_seen || ev_accepts_ != s.accepted ||
      ev_read_grants_ != s.read_grants) {
    violate(t, Invariant::kConservation,
            "event stream disagrees with stats (heads " + std::to_string(ev_heads_) + "/" +
                std::to_string(s.heads_seen) + ", accepts " + std::to_string(ev_accepts_) +
                "/" + std::to_string(s.accepted) + ", reads " +
                std::to_string(ev_read_grants_) + "/" + std::to_string(s.read_grants) + ")");
  }
  if (ev_drops_[0] != s.dropped_no_addr || ev_drops_[1] != s.dropped_no_slot ||
      ev_drops_[2] != s.dropped_out_limit) {
    violate(t, Invariant::kConservation,
            "per-reason drop events disagree with stats (" + std::to_string(ev_drops_[0]) +
                "/" + std::to_string(s.dropped_no_addr) + ", " +
                std::to_string(ev_drops_[1]) + "/" + std::to_string(s.dropped_no_slot) +
                ", " + std::to_string(ev_drops_[2]) + "/" +
                std::to_string(s.dropped_out_limit) + ")");
  }
}

void InvariantChecker::check_address_exclusivity(Cycle t) {
  const FreeList& fl = psw_->free_list();
  const auto cap = fl.total();
  addr_refs_.assign(cap, 0);
  addr_marked_.assign(cap, 0);

  psw_->out_queues().for_each([&](unsigned output, const BufferedCell& c) {
    for (std::uint32_t a : c.seg_addrs) {
      if (a >= cap) {
        violate(t, Invariant::kAddressExclusivity,
                "queued cell for output " + std::to_string(output) +
                    " references out-of-range address " + std::to_string(a));
        continue;
      }
      addr_marked_[a] = 1;
      if (!fl.is_allocated(a)) {
        violate(t, Invariant::kAddressExclusivity,
                "queued cell for output " + std::to_string(output) +
                    " references free address " + std::to_string(a));
      }
      if (++addr_refs_[a] > 1) {
        violate(t, Invariant::kAddressExclusivity,
                "address " + std::to_string(a) + " aliased by two queued cells");
      }
    }
  });

  psw_->reservations().for_each([&](Cycle slot, const SlotOp& op) {
    if (slot <= t) {
      violate(t, Invariant::kAddressExclusivity,
              "stale reservation at cycle " + std::to_string(slot) + " never consumed");
      return;
    }
    if (op.has_write) {
      if (op.w_addr >= cap || !fl.is_allocated(op.w_addr)) {
        violate(t, Invariant::kAddressExclusivity,
                "write reserved at cycle " + std::to_string(slot) +
                    " targets unallocated address " + std::to_string(op.w_addr));
      } else {
        addr_marked_[op.w_addr] = 1;
      }
    }
    if (op.has_read) {
      if (op.r_addr >= cap || !fl.is_allocated(op.r_addr)) {
        violate(t, Invariant::kAddressExclusivity,
                "read reserved at cycle " + std::to_string(slot) +
                    " targets unallocated address " + std::to_string(op.r_addr));
      } else {
        addr_marked_[op.r_addr] = 1;
        // A read-only slot belongs to a departing (popped) cell; its address
        // must not simultaneously belong to a queued cell.
        if (!op.has_write && ++addr_refs_[op.r_addr] > 1) {
          violate(t, Invariant::kAddressExclusivity,
                  "departing segment address " + std::to_string(op.r_addr) +
                      " aliased by a queued cell");
        }
      }
    }
  });

  // Leak sweep: every allocated address must be accounted for by a queued
  // cell or an outstanding reservation. (Referenced-but-free was already
  // reported in the walks above.)
  for (std::uint32_t a = 0; a < cap; ++a) {
    if (fl.is_allocated(a) && addr_marked_[a] == 0) {
      violate(t, Invariant::kAddressExclusivity,
              "address " + std::to_string(a) +
                  " allocated but referenced by no queue or reservation (leak)");
    }
  }
}

void InvariantChecker::on_cycle_end(Cycle t) {
  if (psw_ != nullptr) {
    check_initiation_rate(t, psw_->stats());
    check_conservation(t, psw_->stats(), psw_->pending_cells(), psw_->queued_cells());
    check_address_exclusivity(t);
  } else if (dsw_ != nullptr) {
    check_initiation_rate(t, dsw_->stats());
    check_conservation(t, dsw_->stats(), dsw_->pending_cells(), dsw_->queued_cells());
  }
  quiet_ = quiet_state();
}

InvariantChecker::QuietState InvariantChecker::quiet_state() const {
  QuietState q;
  const SwitchStats* s = psw_ ? &psw_->stats() : (dsw_ ? &dsw_->stats() : nullptr);
  if (s == nullptr) return q;
  q.heads = s->heads_seen;
  q.accepted = s->accepted;
  q.dropped = s->dropped();
  q.read_grants = s->read_grants;
  if (psw_) {
    q.initiations = psw_->memory().initiations();
    q.in_use = psw_->buffer_in_use();
    q.available = psw_->free_list().available();
    q.queued = psw_->queued_cells();
    q.pending = psw_->pending_cells();
  } else {
    q.initiations = s->write_initiations + s->read_initiations + s->snoop_initiations;
    q.in_use = dsw_->buffer_in_use();
    q.queued = dsw_->queued_cells();
    q.pending = dsw_->pending_cells();
  }
  return q;
}

void InvariantChecker::on_skip(Cycle from, Cycle to) {
  const QuietState q = quiet_state();
  auto span = [&] {
    return " during the skipped interval [" + std::to_string(from) + ", " +
           std::to_string(to) + ")";
  };
  if (q.initiations != quiet_.initiations) {
    violate(to - 1, Invariant::kSingleInitiation,
            std::to_string(q.initiations - quiet_.initiations) + " wave initiations" + span());
  }
  if (q.heads != quiet_.heads || q.accepted != quiet_.accepted ||
      q.dropped != quiet_.dropped || q.read_grants != quiet_.read_grants) {
    violate(to - 1, Invariant::kConservation,
            "cells arrived, were granted or dropped" + span());
  }
  if (q.in_use != quiet_.in_use || q.available != quiet_.available ||
      q.queued != quiet_.queued || q.pending != quiet_.pending) {
    violate(to - 1, Invariant::kConservation,
            "buffer occupancy, queues or free list changed" + span());
  }
  on_cycle_end(to - 1);
}

}  // namespace pmsb::check
