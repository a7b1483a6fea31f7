#include "traffic/generators.hpp"

#include <cmath>

namespace pmsb {

// ---------------------------------------------------------------------------
// CellSource
// ---------------------------------------------------------------------------

CellSource::CellSource(unsigned input, WireLink* link, const CellFormat& fmt, DestPattern* dests,
                       ArrivalKind kind, double load, Rng rng, double mean_burst_cells)
    : input_(input), link_(link), fmt_(fmt), dests_(dests), kind_(kind), load_(load),
      p_stop_(1.0 / mean_burst_cells), rng_(rng) {
  PMSB_CHECK(link != nullptr && dests != nullptr, "source needs a link and a pattern");
  PMSB_CHECK(load > 0.0 && load <= 1.0, "load must be in (0, 1]");
  PMSB_CHECK(mean_burst_cells >= 1.0, "mean burst below one cell");
  PMSB_CHECK(fmt.length_words >= 2, "cells must be at least two words");
}

void CellSource::end_cell() {
  sending_ = false;
  if (kind_ == ArrivalKind::kBursty && !rng_.next_bool(p_stop_)) return;  // The burst goes on.
  in_burst_ = false;
  if ((kind_ != ArrivalKind::kGeometric && kind_ != ArrivalKind::kBursty) || load_ >= 1.0) {
    gap_left_ = 0;
    return;
  }
  // Link load = on / (on + E[gap])  =>  E[gap] = on (1 - p) / p, where `on`
  // is one cell (L cycles) or, for kBursty, a mean burst (L / p_stop). A
  // geometric gap with success probability q has mean (1-q)/q; solve for q.
  const double on = kind_ == ArrivalKind::kBursty ? fmt_.length_words / p_stop_
                                                  : static_cast<double>(fmt_.length_words);
  const double mean_gap = on * (1.0 - load_) / load_;
  const double q = 1.0 / (1.0 + mean_gap);
  gap_left_ = static_cast<Cycle>(rng_.next_geometric(q));
}

void CellSource::eval(Cycle t) {
  if (sending_) {
    link_->drive_next(t, Flit{true, false, cell_word(uid_, dest_, word_idx_, fmt_)});
    ++word_idx_;
    if (word_idx_ == fmt_.length_words) end_cell();
    return;
  }

  bool start = false;
  switch (kind_) {
    case ArrivalKind::kGeometric:
    case ArrivalKind::kBursty:
      if (in_burst_) {
        start = true;  // A burst runs to its end, enabled or not.
      } else if (gap_left_ > 0) {
        --gap_left_;
      } else {
        start = enabled_;
      }
      break;
    case ArrivalKind::kSlotted:
      start = enabled_ && ((t + 1) % fmt_.length_words == 0) && rng_.next_bool(load_);
      break;
    case ArrivalKind::kSaturated:
      start = enabled_;
      break;
  }
  if (!start) return;

  uid_ = (static_cast<std::uint64_t>(input_) << 40) | next_seq_++;
  if (!in_burst_) dest_ = dests_->pick(input_, rng_);
  in_burst_ = kind_ == ArrivalKind::kBursty;
  word_idx_ = 0;
  sending_ = true;
  ++cells_injected_;
  link_->drive_next(t, Flit{true, true, cell_word(uid_, dest_, 0, fmt_)});
  if (on_inject_) on_inject_(Injection{uid_, input_, dest_, t + 1});
  ++word_idx_;
}

void CellSource::commit(Cycle) {}

// Quiescence: a source is idle exactly when eval() would neither drive the
// link nor consume RNG draws. kGeometric spends its pre-drawn gap with no
// draws, so the whole gap is skippable; kSlotted draws at every slot
// boundary while enabled, so its wake is the next boundary (never beyond);
// kSaturated never idles while enabled. kBursty is kGeometric between
// bursts and never idles inside one. A disabled source of any kind only
// burns its gap counter down, which skip() compensates.

bool CellSource::is_quiescent(Cycle t) const {
  if (sending_ || in_burst_) return false;
  if (!enabled_) return true;
  switch (kind_) {
    case ArrivalKind::kGeometric:
    case ArrivalKind::kBursty:
      return gap_left_ > 0;
    case ArrivalKind::kSlotted:
      return (t + 1) % fmt_.length_words != 0;
    case ArrivalKind::kSaturated:
      return false;
  }
  return false;
}

Cycle CellSource::next_wake(Cycle t) const {
  if (!enabled_) return kNeverWake;
  switch (kind_) {
    case ArrivalKind::kGeometric:
    case ArrivalKind::kBursty:
      return t + gap_left_;
    case ArrivalKind::kSlotted: {
      // Earliest t' >= t with (t' + 1) % L == 0 and t' > t when t is itself
      // a boundary (is_quiescent already returned false there).
      const Cycle l = static_cast<Cycle>(fmt_.length_words);
      return t + (l - 1 - (t % l) + l) % l;
    }
    case ArrivalKind::kSaturated:
      return t;
  }
  return kNeverWake;
}

void CellSource::skip(Cycle, Cycle n) {
  // Stepping n idle cycles decrements the gap counter once per cycle,
  // saturating at zero (it keeps decrementing while disabled).
  if (!sending_ && gap_left_ > 0) gap_left_ = gap_left_ > n ? gap_left_ - n : 0;
}

// ---------------------------------------------------------------------------
// CellSink
// ---------------------------------------------------------------------------

CellSink::CellSink(unsigned output, WireLink* link, const CellFormat& fmt)
    : link_(link), rx_(fmt), delivery_{output, std::vector<Word>(fmt.length_words), 0, 0} {
  PMSB_CHECK(link != nullptr, "sink needs a link");
}

void CellSink::eval(Cycle t) {
  const Flit& f = link_->now(t);
  if (rx_.take(f, t) == RxWord::kIdle) return;
  delivery_.words[rx_.phase()] = f.data;
  if (!rx_.ends_cell()) return;
  ++cells_delivered_;
  if (!on_deliver_) return;
  delivery_.head_cycle = rx_.a0();
  delivery_.tail_cycle = t;
  on_deliver_(delivery_);
}

void CellSink::commit(Cycle) {}

// ---------------------------------------------------------------------------
// SlotTraffic
// ---------------------------------------------------------------------------

SlotTraffic::SlotTraffic(unsigned n_inputs, double load, DestPattern* dests, Rng rng)
    : SlotTraffic(n_inputs, load, 1.0, Burstiness::kNone, dests, rng) {}

SlotTraffic SlotTraffic::bursty(unsigned n_inputs, double load, double mean_burst,
                                DestPattern* dests, Rng rng) {
  return SlotTraffic(n_inputs, load, mean_burst, Burstiness::kGeometric, dests, rng);
}

SlotTraffic SlotTraffic::bursty_pareto(unsigned n_inputs, double load, double mean_burst,
                                       double shape, DestPattern* dests, Rng rng) {
  SlotTraffic t(n_inputs, load, mean_burst, Burstiness::kPareto, dests, rng);
  PMSB_CHECK(shape > 1.0, "pareto burst lengths need shape > 1 for a finite mean");
  t.pareto_shape_ = shape;
  // Continuous Pareto(xm, s) has mean xm s / (s - 1); pick xm for `mean_burst`.
  t.pareto_xm_ = mean_burst * (shape - 1.0) / shape;
  const double mean_gap = load >= 1.0 ? 0.0 : mean_burst * (1.0 - load) / load;
  t.p_gap_ = 1.0 / (1.0 + mean_gap);
  t.pareto_.resize(n_inputs);
  // Independent initial gaps desynchronize the inputs' on/off phases.
  for (ParetoState& st : t.pareto_) {
    st.gap_left = static_cast<Cycle>(t.rng_.next_geometric(t.p_gap_));
  }
  return t;
}

SlotTraffic::SlotTraffic(unsigned n_inputs, double load, double mean_burst, Burstiness mode,
                         DestPattern* dests, Rng rng)
    : n_(n_inputs), load_(load), mode_(mode), dests_(dests), rng_(rng),
      burst_(n_inputs), slot_(n_inputs) {
  PMSB_CHECK(n_inputs > 0, "traffic needs at least one input");
  PMSB_CHECK(load > 0.0 && load <= 1.0, "load must be in (0, 1]");
  PMSB_CHECK(dests != nullptr, "traffic needs a destination pattern");
  if (mode_ != Burstiness::kNone) {
    PMSB_CHECK(mean_burst >= 1.0, "mean burst below one cell");
  }
  if (mode_ == Burstiness::kGeometric) {
    p_stop_ = 1.0 / mean_burst;
    // step() turns an idle input on and emits in the same slot, so a burst
    // of mean b cells is followed by a gap of mean (1 - p_start) / p_start
    // idle slots. The offered load b / (b + gap) equals `load` when
    // p_start = load / (load + b (1 - load)), which is at most 1.
    p_start_ = load / (load + mean_burst * (1.0 - load));
  }
}

std::uint64_t SlotTraffic::draw_pareto_len() {
  // Inverse-CDF draw, rounded up and clamped: heavy-tailed but bounded so a
  // single burst cannot stall a sweep.
  constexpr std::uint64_t kMaxBurst = 1u << 16;
  const double u = rng_.next_double();
  const double len = pareto_xm_ * std::pow(1.0 - u, -1.0 / pareto_shape_);
  if (!(len >= 1.0)) return 1;
  if (len >= static_cast<double>(kMaxBurst)) return kMaxBurst;
  return static_cast<std::uint64_t>(std::ceil(len));
}

const SlotArrivals& SlotTraffic::step() {
  slot_.clear();
  switch (mode_) {
    case Burstiness::kNone:
      for (unsigned i = 0; i < n_; ++i) {
        if (rng_.next_bool(load_)) slot_.add(i, dests_->pick(i, rng_));
      }
      break;
    case Burstiness::kPareto:
      for (unsigned i = 0; i < n_; ++i) {
        ParetoState& st = pareto_[i];
        if (st.gap_left > 0) {
          --st.gap_left;
          continue;
        }
        if (st.burst_left == 0) {
          st.burst_left = draw_pareto_len();
          st.dest = dests_->pick(i, rng_);
        }
        slot_.add(i, st.dest);
        if (--st.burst_left == 0) {
          st.gap_left = static_cast<Cycle>(rng_.next_geometric(p_gap_));
        }
      }
      break;
    case Burstiness::kGeometric:
      for (unsigned i = 0; i < n_; ++i) {
        BurstState& b = burst_[i];
        if (!b.in_burst && rng_.next_bool(p_start_)) {
          b.in_burst = true;
          b.dest = dests_->pick(i, rng_);
        }
        if (b.in_burst) {
          slot_.add(i, b.dest);
          if (rng_.next_bool(p_stop_)) b.in_burst = false;
        }
      }
      break;
  }
  arrivals_ += slot_.size();
  return slot_;
}

std::vector<unsigned> random_permutation(unsigned n, Rng& rng, SelfRule self) {
  // Fisher-Yates; with self excluded, Sattolo's variant: slot i - 1 never
  // swaps with itself, which leaves one n-cycle.
  const unsigned shrink = self == SelfRule::kExcluded ? 1 : 0;
  std::vector<unsigned> p(n);
  for (unsigned i = 0; i < n; ++i) p[i] = i;
  for (unsigned i = n; i > 1; --i) {
    const auto j = static_cast<unsigned>(rng.next_below(i - shrink));
    std::swap(p[i - 1], p[j]);
  }
  return p;
}

}  // namespace pmsb
