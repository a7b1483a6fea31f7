#include "check/differential.hpp"

#include <algorithm>
#include <exception>
#include <memory>
#include <unordered_map>
#include <type_traits>

#include "arch/shared_buffer.hpp"
#include "check/invariants.hpp"
#include "common/rng.hpp"
#include "core/fast_switch.hpp"
#include "core/scoreboard.hpp"
#include "core/switch.hpp"
#include "sim/engine.hpp"
#include "traffic/generators.hpp"

namespace pmsb::check {

SwitchConfig FuzzSpec::switch_config() const {
  SwitchConfig cfg;
  cfg.n_ports = n;
  cfg.word_bits = bits_for(n) + 16;
  cfg.cell_words = cell_words();
  cfg.capacity_segments = capacity_cells * segments;
  cfg.cut_through = cut_through;
  cfg.out_queue_limit = out_queue_limit;
  return cfg;
}

DualSwitchConfig FuzzSpec::dual_config() const {
  DualSwitchConfig cfg;
  cfg.n_ports = n;
  cfg.word_bits = bits_for(n) + 16;
  // Split the same total cell capacity across the two memory groups.
  cfg.capacity_segments_per_group = (capacity_cells + 1) / 2;
  cfg.cut_through = cut_through;
  return cfg;
}

std::vector<ScheduledCell> generate_cells(const FuzzSpec& spec) {
  PMSB_CHECK(spec.n >= 2 && spec.slots > 0, "fuzz spec needs n >= 2 and slots > 0");
  PMSB_CHECK(static_cast<std::uint64_t>(spec.slots) * spec.n < 65536,
             "schedule too large: uids must fit the 16 head-word tag bits");
  Rng seeder(spec.seed);
  std::unique_ptr<DestPattern> dests;
  switch (spec.pattern) {
    case 1: {
      Rng r = seeder.split();
      dests = std::make_unique<PermutationDest>(random_permutation(spec.n, r));
      break;
    }
    case 2:
      dests = std::make_unique<HotspotDest>(spec.n, 0, spec.hot_fraction);
      break;
    default:
      dests = std::make_unique<UniformDest>(spec.n);
      break;
  }
  std::vector<Rng> per_input;
  per_input.reserve(spec.n);
  for (unsigned i = 0; i < spec.n; ++i) per_input.push_back(seeder.split());

  std::vector<ScheduledCell> cells;
  for (unsigned s = 0; s < spec.slots; ++s) {
    for (unsigned i = 0; i < spec.n; ++i) {
      if (!per_input[i].next_bool(spec.load)) continue;
      cells.push_back(ScheduledCell{i, s, dests->pick(i, per_input[i])});
    }
  }
  return cells;
}

std::string issue_category(const std::string& issue) {
  const auto pos = issue.find(':');
  return pos == std::string::npos ? issue : issue.substr(0, pos);
}

namespace {

/// Drives one input link with the exact cells of a schedule: cell k starts
/// at a fixed cycle (slot * L), head word on the wire one cycle later --
/// the same wire protocol as CellSource, but fully deterministic so every
/// model sees the identical arrival process.
class ReplaySource : public Component {
 public:
  struct Entry {
    std::uint64_t uid;
    unsigned dest;
    Cycle start;  ///< eval cycle that drives the head (on wire at start+1).
  };

  ReplaySource(unsigned input, WireLink* link, const CellFormat& fmt)
      : input_(input), link_(link), fmt_(fmt) {}

  /// Entries must be appended in increasing, non-overlapping start order.
  void add(std::uint64_t uid, unsigned dest, Cycle start) {
    PMSB_CHECK(entries_.empty() ||
                   start >= entries_.back().start + static_cast<Cycle>(fmt_.length_words),
               "replay cells overlap on one input link");
    entries_.push_back(Entry{uid, dest, start});
  }

  void set_on_inject(std::function<void(const CellSource::Injection&)> cb) {
    on_inject_ = std::move(cb);
  }

  bool done() const { return next_ == entries_.size() && !sending_; }

  void eval(Cycle t) override {
    if (sending_) {
      link_->drive_next(Flit{true, false, cell_word(uid_, dest_, word_idx_, fmt_)});
      if (++word_idx_ == fmt_.length_words) sending_ = false;
      return;
    }
    if (next_ < entries_.size() && t == entries_[next_].start) {
      const Entry& e = entries_[next_++];
      uid_ = e.uid;
      dest_ = e.dest;
      word_idx_ = 1;
      sending_ = fmt_.length_words > 1;
      link_->drive_next(Flit{true, true, cell_word(uid_, dest_, 0, fmt_)});
      if (on_inject_) on_inject_(CellSource::Injection{uid_, input_, dest_, t + 1});
    }
  }
  void commit(Cycle) override {}
  bool has_commit() const override { return false; }
  std::string name() const override { return "replay_source"; }

 private:
  unsigned input_;
  WireLink* link_;
  CellFormat fmt_;
  std::vector<Entry> entries_;
  std::size_t next_ = 0;

  bool sending_ = false;
  unsigned word_idx_ = 0;
  std::uint64_t uid_ = 0;
  unsigned dest_ = 0;
  std::function<void(const CellSource::Injection&)> on_inject_;
};

/// Per-cycle buffer-occupancy sampler (the exact-trajectory half of the
/// figure 7a/7b equivalence check).
template <typename SwitchT>
class OccupancyProbe : public CycleObserver {
 public:
  explicit OccupancyProbe(const SwitchT* sw) : sw_(sw) {}
  void on_cycle_end(Cycle) override { trace_.push_back(sw_->buffer_in_use()); }
  const std::vector<std::uint32_t>& trace() const { return trace_; }

 private:
  const SwitchT* sw_;
  std::vector<std::uint32_t> trace_;
};

struct CycleRunResult {
  std::vector<std::vector<std::uint64_t>> per_output;  ///< Delivered uids, in order.
  std::vector<std::uint32_t> occupancy;
  SwitchStats stats;
  std::vector<std::string> issues;
  std::uint64_t violations = 0;
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
};

/// One word-level model over the schedule, with the same wire protocol,
/// scoreboard and fixed run length for every model. The cycle-accurate
/// switches also carry an invariant checker and an occupancy probe; the
/// behavioural FastSwitch has neither (it has none of the checked
/// structures, and its occupancy is slot-shaped by design). `mode` (the
/// address path) and `fault` apply to PipelinedSwitch only.
template <typename SwitchT, typename ConfigT>
CycleRunResult run_model(const ConfigT& cfg, const CellFormat& fmt, const FuzzSpec& spec,
                         const std::vector<ScheduledCell>& cells, AddrPathMode mode,
                         const FaultPlan& fault, const std::string& label) {
  constexpr bool kChecked = !std::is_same_v<SwitchT, FastSwitch>;
  CycleRunResult res;
  res.per_output.resize(spec.n);

  SwitchT sw = [&]() -> SwitchT {
    if constexpr (std::is_same_v<SwitchT, PipelinedSwitch>)
      return SwitchT(cfg, mode);
    else
      return SwitchT(cfg);
  }();
  if constexpr (std::is_same_v<SwitchT, PipelinedSwitch>) {
    if (!fault.none()) sw.set_fault_plan(fault);
  }
  Engine engine;
  Scoreboard sb(spec.n, spec.n, fmt);

  const Cycle L = static_cast<Cycle>(fmt.length_words);
  std::vector<std::unique_ptr<ReplaySource>> sources;
  std::vector<std::unique_ptr<CellSink>> sinks;
  for (unsigned i = 0; i < spec.n; ++i) {
    sources.push_back(std::make_unique<ReplaySource>(i, &sw.in_link(i), fmt));
    sources.back()->set_on_inject(
        [&sb](const CellSource::Injection& inj) { sb.on_inject(inj); });
  }
  for (std::size_t k = 0; k < cells.size(); ++k) {
    const ScheduledCell& c = cells[k];
    sources.at(c.input)->add(static_cast<std::uint64_t>(k), c.dest,
                             static_cast<Cycle>(c.slot) * L);
  }
  for (unsigned o = 0; o < spec.n; ++o) {
    sinks.push_back(std::make_unique<CellSink>(o, &sw.out_link(o), fmt));
    sinks.back()->set_on_deliver([&res, &sb, &fmt](const CellSink::Delivery& d) {
      sb.on_deliver(d);
      res.per_output.at(d.output).push_back(decode_tag(d.words[0], fmt));
    });
  }
  sb.subscribe(sw.events());

  InvariantChecker checker;
  OccupancyProbe<SwitchT> probe(&sw);
  if constexpr (kChecked) {
    checker.attach(sw, engine);  // Its own subscription; coexists with the scoreboard's.
    engine.add_cycle_observer(&probe);
  }

  for (auto& s : sources) engine.add(s.get());
  engine.add(&sw);
  for (auto& s : sinks) engine.add(s.get());

  // Fixed-length run: schedule + worst-case drain (a full buffer serves one
  // cell per output per L cycles) + wire/sink flush. Fixed length keeps the
  // occupancy trajectories of compared runs index-aligned.
  const Cycle total = static_cast<Cycle>(spec.slots) * L +
                      static_cast<Cycle>(spec.capacity_cells + 2) * L + 4 * spec.n + 32;
  engine.run(total);

  res.stats = sw.stats();
  res.occupancy = probe.trace();
  res.violations = checker.total_violations();
  res.injected = sb.injected();
  res.delivered = sb.delivered();
  for (const Violation& v : checker.violations()) {
    res.issues.push_back("invariant: [" + label + "] " + to_string(v.invariant) + ": " +
                         v.message);
  }
  for (const std::string& e : sb.errors()) {
    res.issues.push_back("scoreboard: [" + label + "] " + e);
  }
  if (!sw.drained() || !sb.fully_drained()) {
    res.issues.push_back("harness: [" + label + "] not drained after " +
                         std::to_string(total) + " cycles");
  }
  for (const auto& s : sources) {
    if (!s->done()) {
      res.issues.push_back("harness: [" + label + "] source did not finish its schedule");
      break;
    }
  }
  return res;
}

void diff_exact_pair(const CycleRunResult& a, const CycleRunResult& b, unsigned n,
                     std::vector<std::string>& issues) {
  for (unsigned o = 0; o < n; ++o) {
    const auto& sa = a.per_output[o];
    const auto& sb = b.per_output[o];
    const std::size_t len = std::min(sa.size(), sb.size());
    for (std::size_t i = 0; i < len; ++i) {
      if (sa[i] != sb[i]) {
        issues.push_back("diff: [7a-vs-7b] output " + std::to_string(o) + " delivery " +
                         std::to_string(i) + " differs: uid " + std::to_string(sa[i]) +
                         " vs " + std::to_string(sb[i]));
        break;
      }
    }
    if (sa.size() != sb.size()) {
      issues.push_back("diff: [7a-vs-7b] output " + std::to_string(o) + " delivered " +
                       std::to_string(sa.size()) + " vs " + std::to_string(sb.size()) +
                       " cells");
    }
  }
  if (a.stats.dropped_no_addr != b.stats.dropped_no_addr ||
      a.stats.dropped_no_slot != b.stats.dropped_no_slot ||
      a.stats.dropped_out_limit != b.stats.dropped_out_limit) {
    issues.push_back("diff: [7a-vs-7b] per-reason drop counts differ: (" +
                     std::to_string(a.stats.dropped_no_addr) + "," +
                     std::to_string(a.stats.dropped_no_slot) + "," +
                     std::to_string(a.stats.dropped_out_limit) + ") vs (" +
                     std::to_string(b.stats.dropped_no_addr) + "," +
                     std::to_string(b.stats.dropped_no_slot) + "," +
                     std::to_string(b.stats.dropped_out_limit) + ")");
  }
  const std::size_t len = std::min(a.occupancy.size(), b.occupancy.size());
  for (std::size_t t = 0; t < len; ++t) {
    if (a.occupancy[t] != b.occupancy[t]) {
      issues.push_back("diff: [7a-vs-7b] occupancy trajectories diverge at cycle " +
                       std::to_string(t) + ": " + std::to_string(a.occupancy[t]) + " vs " +
                       std::to_string(b.occupancy[t]));
      break;
    }
  }
}

/// Per-(input,output) FIFO sequences from per-output delivery order.
///
/// What a sink decodes from a delivered head word is not the schedule index
/// itself but its 16-bit avalanche tag (cell_word mixes the id before
/// packing). Bug fix: this used to look the tag up as if it WERE the index,
/// which always missed and silently bucketed every delivery under input 0 --
/// turning the documented per-(input,output) check into a per-output
/// total-order check. Inverting the mix over the schedule restores the
/// intended bucketing. (Tag collisions would merge two cells' buckets; both
/// compared runs use the same mapping, so the check stays deterministic.)
std::vector<std::vector<std::uint64_t>> pair_sequences(
    const CycleRunResult& r, const std::vector<ScheduledCell>& cells, const CellFormat& fmt,
    unsigned n) {
  std::unordered_map<std::uint64_t, unsigned> input_of_tag;
  input_of_tag.reserve(cells.size());
  for (std::size_t k = 0; k < cells.size(); ++k) {
    input_of_tag[mix64(k) & low_mask(fmt.tag_bits())] = cells[k].input;
  }
  std::vector<std::vector<std::uint64_t>> pairs(static_cast<std::size_t>(n) * n);
  for (unsigned o = 0; o < n; ++o) {
    for (std::uint64_t uid : r.per_output[o]) {
      const auto it = input_of_tag.find(uid);
      const unsigned input = it != input_of_tag.end() ? it->second : 0;
      pairs[static_cast<std::size_t>(input) * n + o].push_back(uid);
    }
  }
  return pairs;
}

/// Exact per-(input,output) FIFO equality of run `a` and run `b` when
/// neither dropped a cell (drop timing is model-specific, so droppy runs
/// are covered per model by their own scoreboard + invariant checks).
void diff_fifo_pairs(const CycleRunResult& a, const CycleRunResult& b, const std::string& label,
                     const std::vector<ScheduledCell>& cells, const CellFormat& fmt, unsigned n,
                     std::vector<std::string>& issues) {
  if (a.stats.dropped() != 0 || b.stats.dropped() != 0) return;
  const auto pa = pair_sequences(a, cells, fmt, n);
  const auto pb = pair_sequences(b, cells, fmt, n);
  for (std::size_t p = 0; p < pa.size(); ++p) {
    if (pa[p] != pb[p]) {
      issues.push_back("diff: [" + label + "] (input " + std::to_string(p / n) + ", output " +
                       std::to_string(p % n) + ") FIFO sequences differ on a drop-free run");
    }
  }
}

/// Statistical drop comparison of the cycle-accurate run against `model`:
/// a gross divergence means one of them mis-accounts cells; a delta within
/// max(16, a quarter of the arrivals) is abstraction noise.
void diff_drop_counts(const std::string& model, std::uint64_t cyc, std::uint64_t other,
                      std::uint64_t arrivals, std::vector<std::string>& issues) {
  const std::uint64_t tol =
      std::max<std::uint64_t>(16, static_cast<std::uint64_t>(0.25 * arrivals));
  const std::uint64_t delta = cyc > other ? cyc - other : other - cyc;
  if (delta > tol) {
    issues.push_back("diff: [" + model + "] drop counts diverge beyond tolerance: cycle " +
                     std::to_string(cyc) + " vs " + model + " " + std::to_string(other) +
                     " (tol " + std::to_string(tol) + ")");
  }
}

}  // namespace

RunOutcome run(const FuzzSpec& spec, const std::vector<ScheduledCell>& cells) {
  RunOutcome out;
  const CellFormat fmt = spec.cell_format();
  const CellFormat dual_fmt = spec.dual_cell_format();
  const SwitchConfig cfg = spec.switch_config();
  const DualSwitchConfig dual_cfg = spec.dual_config();
  try {
    cfg.validate();
    dual_cfg.validate();
  } catch (const std::exception& e) {
    // An inadmissible spec (e.g. hand-edited repro file) is a harness issue,
    // not a model divergence -- report it instead of terminating.
    out.issues.push_back(std::string("harness: config rejected: ") + e.what());
    out.ok = false;
    return out;
  }

  FaultPlan fault;
  fault.suppress_write_grant_period = spec.fault_suppress_write_period;

  // Run A carries the (optional) injected fault; B and D are reference runs.
  CycleRunResult a = run_model<PipelinedSwitch>(cfg, fmt, spec, cells,
                                                AddrPathMode::kDecodedPipeline, fault,
                                                "pipelined-7b");
  CycleRunResult b = run_model<PipelinedSwitch>(cfg, fmt, spec, cells,
                                                AddrPathMode::kPerStageDecoders, FaultPlan{},
                                                "pipelined-7a");
  CycleRunResult d = run_model<DualPipelinedSwitch>(dual_cfg, dual_fmt, spec, cells,
                                                    AddrPathMode::kDecodedPipeline, FaultPlan{},
                                                    "dual");
  CycleRunResult f = run_model<FastSwitch>(cfg, fmt, spec, cells, AddrPathMode::kDecodedPipeline,
                                           FaultPlan{}, "fast");

  for (auto* r : {&a, &b, &d, &f}) {
    for (std::string& s : r->issues) out.issues.push_back(std::move(s));
  }

  // Exact pair: the two address-path organizations of the same switch.
  diff_exact_pair(a, b, spec.n, out.issues);

  // Pipelined vs dual, and pipelined vs the fast model: both preserve each
  // pair's arrival order, so their FIFO sequences match on drop-free runs.
  if (fault.none()) {
    diff_fifo_pairs(a, d, "pipelined-vs-dual", cells, fmt, spec.n, out.issues);
    diff_fifo_pairs(a, f, "pipelined-vs-fast", cells, fmt, spec.n, out.issues);
  }
  // The fast model admits at head arrival: the kNoSlot class (a latch-window
  // artifact of the pipelined datapath) must never appear.
  if (f.stats.dropped_no_slot != 0) {
    out.issues.push_back("diff: [fast] behavioural model produced " +
                         std::to_string(f.stats.dropped_no_slot) + " kNoSlot drops");
  }
  // Droppy runs: statistical comparison under the same regime guard as the
  // slot model below (the fast model's buffer occupancy has no wave-level
  // address recycling, so the same two regimes are excluded).
  if (fault.none() && spec.out_queue_limit == 0 && spec.capacity_cells >= spec.n)
    diff_drop_counts("fast", a.stats.dropped(), f.stats.dropped(), cells.size(), out.issues);

  // Slot-level shared-buffer model over the same schedule.
  SharedBufferModel slot_model(spec.n, spec.capacity_cells, spec.out_queue_limit);
  {
    // A slot's cells enter the list in ascending input order, as
    // SlotTraffic lists them. A schedule with two cells on one input in one
    // slot fails SlotArrivals::add's check (as it fails ReplaySource::add's)
    // instead of losing a cell.
    SlotArrivals arrivals(spec.n);
    std::vector<ScheduledCell> in_slot;
    std::size_t k = 0;
    const Cycle drain_slots = static_cast<Cycle>(spec.capacity_cells) + 4;
    for (Cycle s = 0; s < static_cast<Cycle>(spec.slots) + drain_slots; ++s) {
      in_slot.clear();
      while (k < cells.size() && cells[k].slot == static_cast<unsigned>(s))
        in_slot.push_back(cells[k++]);
      std::sort(in_slot.begin(), in_slot.end(),
                [](const ScheduledCell& x, const ScheduledCell& y) {
                  return x.input < y.input;
                });
      arrivals.clear();
      for (const ScheduledCell& c : in_slot) arrivals.add(c.input, c.dest);
      slot_model.step(s, arrivals);
    }
  }
  const FlowCounts& sc = slot_model.counts();
  if (sc.injected != cells.size()) {
    out.issues.push_back("harness: slot model saw " + std::to_string(sc.injected) +
                         " arrivals for a schedule of " + std::to_string(cells.size()));
  }
  if (sc.injected != sc.delivered + sc.dropped + slot_model.resident()) {
    out.issues.push_back("diff: [slot] conservation broken: injected " +
                         std::to_string(sc.injected) + " != delivered " +
                         std::to_string(sc.delivered) + " + dropped " +
                         std::to_string(sc.dropped) + " + resident " +
                         std::to_string(slot_model.resident()));
  }
  if (fault.none()) {
    if (a.stats.dropped() == 0 && sc.dropped == 0 && sc.delivered != a.delivered) {
      out.issues.push_back("diff: [slot] drop-free delivery counts differ: slot " +
                           std::to_string(sc.delivered) + " vs cycle " +
                           std::to_string(a.delivered));
    }
    // The slot abstraction rounds all timing to whole cell slots, so droppy
    // runs are compared statistically: gross divergence means one of the
    // models mis-accounts cells, small deltas are abstraction noise. Two
    // spec regimes make the comparison meaningless rather than noisy, so
    // they are skipped (drops there stay covered bit-exactly by the
    // 7a-vs-7b diff above):
    //  * a binding out_queue_limit -- the slot model sees a same-slot burst
    //    at full queue depth and drops it, while the cycle switch staggers
    //    the arrivals and starts draining immediately;
    //  * capacity < n -- the cycle switch recycles a buffer address as soon
    //    as the read wave initiates behind the write wave, so a handful of
    //    addresses sustain a full-width same-slot burst at line rate (the
    //    paper's statistical multiplexing at word granularity), where the
    //    slot model holds every resident cell for whole slots and drops.
    if (spec.out_queue_limit == 0 && spec.capacity_cells >= spec.n)
      diff_drop_counts("slot", a.stats.dropped(), sc.dropped, sc.injected, out.issues);
  }

  out.summaries.push_back(ModelSummary{"pipelined-7b", a.injected, a.delivered,
                                       a.stats.dropped(), a.violations});
  out.summaries.push_back(ModelSummary{"pipelined-7a", b.injected, b.delivered,
                                       b.stats.dropped(), b.violations});
  out.summaries.push_back(ModelSummary{"dual", d.injected, d.delivered, d.stats.dropped(),
                                       d.violations});
  out.summaries.push_back(ModelSummary{"fast", f.injected, f.delivered, f.stats.dropped(), 0});
  out.summaries.push_back(ModelSummary{"slot", sc.injected, sc.delivered, sc.dropped, 0});
  out.ok = out.issues.empty();
  return out;
}

RunOutcome run(const FuzzSpec& spec) { return run(spec, generate_cells(spec)); }

}  // namespace pmsb::check
