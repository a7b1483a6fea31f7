// Traffic generation.
//
// Two granularities:
//  * Word-level (CellSource / CellSink): Components that drive/observe the
//    cycle-accurate switches' links one word per cycle, with framing. Load p
//    is the fraction of cycles the link carries data.
//  * Slot-level (SlotTraffic): per-cell-slot arrival processes for the
//    behavioural architecture models of src/arch (one slot = one cell time).
//
// Destination patterns cover the paper's evaluation workloads: uniform
// (sections 2, 3.4), permutation (contention-free), hotspot (stress), and
// fixed (directed tests).

#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/cell.hpp"
#include "common/rng.hpp"
#include "common/util.hpp"
#include "core/cell_port.hpp"
#include "sim/engine.hpp"
#include "sim/wire.hpp"
#include "stats/stats.hpp"

namespace pmsb {

// ---------------------------------------------------------------------------
// Destination patterns
// ---------------------------------------------------------------------------

/// Chooses an output for each new cell from input `src`.
class DestPattern {
 public:
  virtual ~DestPattern() = default;
  virtual unsigned pick(unsigned src, Rng& rng) = 0;
};

/// Whether a pattern may address the sending endpoint itself. A multistage
/// endpoint can send to itself; a cell-fabric node has no local port, so its
/// patterns exclude the source (every kind then picks != src for n >= 2).
enum class SelfRule { kAllowed, kExcluded };

/// Uniform over {0..n-1} minus `a` and `b` (a == b excludes one value): one
/// next_below draw over the values left, then a step past each excluded
/// value in ascending order.
inline unsigned uniform_except(Rng& rng, unsigned n, unsigned a, unsigned b) {
  const unsigned lo = a < b ? a : b;
  const unsigned hi = a < b ? b : a;
  auto d = static_cast<unsigned>(rng.next_below(n - (lo == hi ? 1 : 2)));
  if (d >= lo) ++d;
  if (hi != lo && d >= hi) ++d;
  return d;
}

/// Uniformly random over all n outputs, or over the n - 1 others than the
/// source under SelfRule::kExcluded.
class UniformDest : public DestPattern {
 public:
  explicit UniformDest(unsigned n, SelfRule self = SelfRule::kAllowed)
      : n_(n), exclude_self_(self == SelfRule::kExcluded) {}
  unsigned pick(unsigned src, Rng& rng) override {
    return exclude_self_ ? uniform_except(rng, n_, src, src)
                         : static_cast<unsigned>(rng.next_below(n_));
  }

 private:
  unsigned n_;
  bool exclude_self_;
};

/// Fixed permutation: input i always sends to perm[i] (contention-free when
/// perm is a bijection).
class PermutationDest : public DestPattern {
 public:
  explicit PermutationDest(std::vector<unsigned> perm) : perm_(std::move(perm)) {}
  unsigned pick(unsigned src, Rng&) override { return perm_.at(src); }

 private:
  std::vector<unsigned> perm_;
};

/// Hotspot: probability `hot_fraction` to the hot output, else uniform
/// (UniformDest's draw). Under SelfRule::kExcluded the hot output's own hits
/// take the uniform draw too.
class HotspotDest : public DestPattern {
 public:
  HotspotDest(unsigned n, unsigned hot, double hot_fraction,
              SelfRule self = SelfRule::kAllowed)
      : uniform_(n, self), hot_(hot), frac_(hot_fraction),
        exclude_self_(self == SelfRule::kExcluded) {}
  unsigned pick(unsigned src, Rng& rng) override {
    if (rng.next_bool(frac_) && !(exclude_self_ && src == hot_)) return hot_;
    return uniform_.pick(src, rng);
  }

 private:
  UniformDest uniform_;
  unsigned hot_;
  double frac_;
  bool exclude_self_;
};

/// A fixed target plus uniform background: sources for which `to_target`
/// holds send to `target`; the others draw uniformly over the outputs other
/// than the target (and other than themselves under SelfRule::kExcluded,
/// where the target's own traffic is background too). With no output left
/// for the background, it goes to the target.
inline unsigned target_or_background(Rng& rng, unsigned n, unsigned target, unsigned src,
                                     bool to_target, bool exclude_self) {
  if (to_target && !(exclude_self && src == target)) return target;
  const unsigned other = exclude_self ? src : target;
  if (n <= (other == target ? 1u : 2u)) return target;
  return uniform_except(rng, n, target, other);
}

/// Hot senders (tree saturation, sender-resolved): a `frac` share of the
/// inputs -- every round(1/frac)-th, never the hot output itself -- send
/// *all* their traffic to the hot output; every other input sends uniform
/// background over the non-hot outputs. Unlike HotspotDest, background
/// sources never generate hot-destined traffic themselves, so their carried
/// throughput isolates in-network head-of-line blocking behind the
/// saturated hot tree -- the quantity virtual channels rescue.
class HotSendersDest : public DestPattern {
 public:
  HotSendersDest(unsigned n, unsigned hot, double frac, SelfRule self = SelfRule::kAllowed)
      : n_(n), hot_(hot),
        every_(frac >= 1.0 ? 1u : static_cast<unsigned>(1.0 / frac + 0.5)),
        exclude_self_(self == SelfRule::kExcluded) {}
  unsigned pick(unsigned src, Rng& rng) override {
    return target_or_background(rng, n_, hot_, src, src % every_ == every_ - 1,
                                exclude_self_);
  }

 private:
  unsigned n_;
  unsigned hot_;
  unsigned every_;
  bool exclude_self_;
};

/// Incast: inputs 0..fan_in-1 all converge on the `sink` output (the
/// many-to-one datacenter pattern); the remaining inputs spread uniformly
/// over the other outputs.
class IncastDest : public DestPattern {
 public:
  IncastDest(unsigned n, unsigned sink, unsigned fan_in, SelfRule self = SelfRule::kAllowed)
      : n_(n), sink_(sink), fan_in_(fan_in), exclude_self_(self == SelfRule::kExcluded) {}
  unsigned pick(unsigned src, Rng& rng) override {
    return target_or_background(rng, n_, sink_, src, src < fan_in_, exclude_self_);
  }

 private:
  unsigned n_;
  unsigned sink_;
  unsigned fan_in_;
  bool exclude_self_;
};

// ---------------------------------------------------------------------------
// Word-level source / sink for the cycle-accurate switches
// ---------------------------------------------------------------------------

/// Arrival process shape for CellSource.
enum class ArrivalKind {
  kGeometric,  ///< Idle gaps are geometric; cell heads are unsynchronized
               ///< across links (the section 3.4 analysis assumes this).
  kSlotted,    ///< Cells may start only at multiples of the cell length; all
               ///< links share slot boundaries (maximal head collisions).
  kSaturated,  ///< Back-to-back cells, load 1.0.
  kBursty,     ///< On/off trains of back-to-back cells to one destination
               ///< (the "bursts larger than the buffers" regime of section
               ///< 2.1): geometric burst lengths, off gaps sized for `load`.
};

/// Drives one input link of a cycle-accurate switch with framed cells.
class CellSource : public Component {
 public:
  struct Injection {
    std::uint64_t uid;
    unsigned input;
    unsigned dest;
    Cycle head_on_wire;  ///< Cycle the head word occupies the link.
  };

  /// `mean_burst_cells` (>= 1) applies to ArrivalKind::kBursty only.
  CellSource(unsigned input, WireLink* link, const CellFormat& fmt, DestPattern* dests,
             ArrivalKind kind, double load, Rng rng, double mean_burst_cells = 8.0);

  /// Called at the moment a cell's head is driven (for scoreboards).
  void set_on_inject(std::function<void(const Injection&)> cb) { on_inject_ = std::move(cb); }

  /// Stop starting new cells (a cell in progress, or a burst in progress
  /// under kBursty, still completes).
  void set_enabled(bool on) { enabled_ = on; }

  std::uint64_t cells_injected() const { return cells_injected_; }

  void eval(Cycle t) override;
  void commit(Cycle t) override;
  bool has_commit() const override { return false; }
  bool is_quiescent(Cycle t) const override;
  Cycle next_wake(Cycle t) const override;
  void skip(Cycle t, Cycle n) override;
  std::string name() const override { return "cell_source"; }

 private:
  /// The cell on the wire is done: continue a burst, or draw the next gap.
  void end_cell();

  unsigned input_;
  WireLink* link_;
  CellFormat fmt_;
  DestPattern* dests_;
  ArrivalKind kind_;
  double load_;
  double p_stop_;  ///< kBursty: probability the burst ends after each cell.
  Rng rng_;
  bool enabled_ = true;

  // Sender state.
  bool sending_ = false;
  bool in_burst_ = false;  ///< kBursty: dest_ holds for the next cell too.
  unsigned word_idx_ = 0;
  std::uint64_t uid_ = 0;
  unsigned dest_ = 0;
  Cycle gap_left_ = 0;

  std::uint64_t next_seq_ = 0;
  std::uint64_t cells_injected_ = 0;
  std::function<void(const Injection&)> on_inject_;
};

/// Observes one output link: re-assembles cells, checks framing, and hands
/// completed cells to a callback.
class CellSink : public Component {
 public:
  struct Delivery {
    unsigned output;
    std::vector<Word> words;
    Cycle head_cycle;  ///< Cycle the head word was on the output wire.
    Cycle tail_cycle;
  };

  CellSink(unsigned output, WireLink* link, const CellFormat& fmt);

  /// The Delivery passed to `cb` is the sink's own, valid during the call.
  void set_on_deliver(std::function<void(const Delivery&)> cb) { on_deliver_ = std::move(cb); }

  std::uint64_t cells_delivered() const { return cells_delivered_; }

  void eval(Cycle t) override;
  void commit(Cycle t) override;
  bool has_commit() const override { return false; }
  bool is_quiescent(Cycle t) const override { return !rx_.mid_cell() && !link_->now(t).valid; }
  std::string name() const override { return "cell_sink"; }

 private:
  WireLink* link_;
  CellRx rx_;
  Delivery delivery_;  ///< Its words are the receive buffer; handed out by reference.

  std::uint64_t cells_delivered_ = 0;
  std::function<void(const Delivery&)> on_deliver_;
};

// ---------------------------------------------------------------------------
// Slot-level arrivals for the behavioural models
// ---------------------------------------------------------------------------

/// One slot's arrivals at an n-input switch, as a list: one {input, dest}
/// entry per arriving input, at most one per input, in strictly ascending
/// input order (add() checks both). A model walks the list instead of
/// testing every input, so its per-slot work follows the cells, not the
/// ports.
class SlotArrivals {
 public:
  struct Entry {
    unsigned input;
    unsigned dest;
  };

  explicit SlotArrivals(unsigned n) : n_(n), entries_(n) {}

  unsigned ports() const { return n_; }

  void clear() { size_ = 0; }
  void add(unsigned input, unsigned dest) {
    PMSB_CHECK(input < n_, "arrival input out of range");
    PMSB_CHECK(size_ == 0 || input > entries_[size_ - 1].input,
               "arrivals must come in strictly ascending input order");
    entries_[size_++] = Entry{input, dest};
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  const Entry& operator[](std::size_t k) const {
    PMSB_CHECK(k < size_, "arrival index past the list");
    return entries_[k];
  }
  const Entry* begin() const { return entries_.data(); }
  const Entry* end() const { return entries_.data() + size_; }

 private:
  unsigned n_;
  std::vector<Entry> entries_;  ///< n slots; the first size_ are this slot's.
  std::size_t size_ = 0;
};

/// One arrival decision per input per slot: Bernoulli(p) with a destination
/// pattern, or bursty on/off (geometric burst lengths, all cells of a burst
/// to one destination -- the classic bursty-traffic model). step() visits
/// the inputs in ascending order and makes each input's draws in the same
/// order whatever the other inputs drew, so the arrival list it returns
/// is the per-input decisions with the idle inputs left out.
class SlotTraffic {
 public:

  /// Bernoulli arrivals at rate `load`.
  SlotTraffic(unsigned n_inputs, double load, DestPattern* dests, Rng rng);

  /// Bursty on/off arrivals: mean burst `mean_burst` cells (geometric), one
  /// destination per burst; off periods sized so the average rate is `load`.
  static SlotTraffic bursty(unsigned n_inputs, double load, double mean_burst,
                            DestPattern* dests, Rng rng);

  /// Heavy-tailed bursty arrivals: burst lengths from a bounded discrete
  /// Pareto with the given tail `shape` (> 1) and mean `mean_burst` cells,
  /// one destination per burst, geometric off gaps sized so the average
  /// rate is `load`. Inputs start with independent gaps (desynchronized).
  static SlotTraffic bursty_pareto(unsigned n_inputs, double load, double mean_burst,
                                   double shape, DestPattern* dests, Rng rng);

  /// Arrivals for this slot, in ascending input order. The list is the
  /// generator's own and is overwritten by the next step().
  const SlotArrivals& step();

  double offered_load() const { return load_; }
  std::uint64_t arrivals_so_far() const { return arrivals_; }

 private:
  enum class Burstiness { kNone, kGeometric, kPareto };

  SlotTraffic(unsigned n_inputs, double load, double mean_burst, Burstiness mode,
              DestPattern* dests, Rng rng);

  struct BurstState {
    bool in_burst = false;
    unsigned dest = 0;
  };

  /// Pareto-mode per-input state: slots of silence left, then cells of the
  /// current burst left.
  struct ParetoState {
    Cycle gap_left = 0;
    std::uint64_t burst_left = 0;
    unsigned dest = 0;
  };

  std::uint64_t draw_pareto_len();

  unsigned n_;
  double load_;
  Burstiness mode_ = Burstiness::kNone;
  double p_start_ = 0.0;  ///< Off->on transition probability (geometric mode).
  double p_stop_ = 0.0;   ///< On->off transition probability (geometric mode).
  double pareto_xm_ = 0.0;     ///< Pareto scale (minimum burst, pre-rounding).
  double pareto_shape_ = 0.0;  ///< Pareto tail index.
  double p_gap_ = 0.0;         ///< Geometric off-gap success probability.
  DestPattern* dests_;
  Rng rng_;
  std::vector<BurstState> burst_;
  std::vector<ParetoState> pareto_;
  SlotArrivals slot_;
  std::uint64_t arrivals_ = 0;
};

/// A bijective shuffle of {0..n-1} (for PermutationDest). Under
/// SelfRule::kExcluded, a random single n-cycle (Sattolo's shuffle): a
/// bijection without fixed points for n >= 2.
std::vector<unsigned> random_permutation(unsigned n, Rng& rng,
                                         SelfRule self = SelfRule::kAllowed);

}  // namespace pmsb
