// Differential verification harness: one randomized traffic schedule, many
// implementations of the same switching semantics.
//
// The paper gives three views of the shared-buffer switch that must agree:
// the word-level pipelined switch, the half-quantum dual organization
// (section 3.5), and the slot-level shared-buffer behavioural model of the
// section 2 comparison. The harness drives all of them, plus the
// behavioural FastSwitch, from ONE deterministic cell schedule and compares:
//
//   * PipelinedSwitch vs DualPipelinedSwitch -- same cells, different cell
//     quantum; per-(input,output) FIFO delivery sequences must match exactly
//     whenever no model dropped anything (drops depend on timing, so droppy
//     runs are compared per model by their own scoreboard + invariants).
//   * PipelinedSwitch vs FastSwitch (core/fast_switch.hpp) -- the behavioural
//     model used for cold fabric nodes; per-(input,output) FIFO sequences
//     match exactly on drop-free runs, drop counts statistically, and kNoSlot
//     (a latch-window artifact) must never occur.
//   * Cycle-accurate vs SharedBufferModel (slot-level) -- conservation is
//     exact, delivery counts exact on drop-free runs, drop counts compared
//     statistically (the slot abstraction rounds all timing to cell slots).
//
// Every cycle-accurate run carries a Scoreboard (end-to-end integrity) and
// an InvariantChecker (src/check/invariants.hpp); their findings are folded
// into the outcome. Its pipelined memories also run beside the stage-walk
// oracle (check/stage_walk.hpp), which executes both address-path
// organizations of figure 7 (per-stage decoders and the decoded-address
// pipeline, "logically equivalent" circuits, section 3.3), checks that they
// select the same word line on every stage access, and aborts on the first
// divergence. Any issue makes the run a failure that the minimizer
// (check/minimize.hpp) can shrink into a .repro.json.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/cell.hpp"
#include "core/config.hpp"
#include "core/dual_switch.hpp"

namespace pmsb::check {

/// One randomized configuration point of the fuzz space. Everything needed
/// to regenerate a run is here + the cell schedule; both serialize into
/// .repro.json (check/repro.hpp).
struct FuzzSpec {
  unsigned n = 4;               ///< Ports (switch is n x n, S = 2n stages).
  unsigned segments = 1;        ///< m: cell_words = m * 2n.
  unsigned capacity_cells = 32; ///< Shared-buffer capacity in whole cells.
  unsigned out_queue_limit = 0; ///< Anti-hogging cap (0 = unlimited).
  bool cut_through = true;
  unsigned pattern = 0;         ///< 0 uniform, 1 permutation, 2 hotspot(output 0).
  double load = 0.6;            ///< Per-input Bernoulli arrival rate per slot.
  double hot_fraction = 0.5;    ///< Pattern 2 only.
  unsigned slots = 200;         ///< Schedule length in cell slots.
  std::uint64_t seed = 1;
  /// Fault injection into run A only (FaultPlan::suppress_write_grant_period):
  /// non-zero turns the run into a deliberately broken switch for
  /// demonstrating detection -> minimization -> replay.
  unsigned fault_suppress_write_period = 0;

  unsigned cell_words() const { return segments * 2 * n; }
  /// 16 tag bits so a schedule index (< 65536 cells) round-trips through the
  /// head word exactly -- deliveries are identified without ambiguity.
  CellFormat cell_format() const {
    return CellFormat{bits_for(n) + 16, bits_for(n), cell_words()};
  }
  CellFormat dual_cell_format() const { return CellFormat{bits_for(n) + 16, bits_for(n), n}; }
  SwitchConfig switch_config() const;
  DualSwitchConfig dual_config() const;
};

/// One scheduled cell: input `input` starts a cell in slot `slot` (head word
/// on the wire at cycle slot * L + 1 for a model with L-word cells). The
/// schedule index doubles as the cell uid.
struct ScheduledCell {
  unsigned input = 0;
  unsigned slot = 0;
  unsigned dest = 0;
};

/// Deterministic schedule for `spec`: per-slot Bernoulli(load) arrivals per
/// input with the spec's destination pattern, all derived from spec.seed.
std::vector<ScheduledCell> generate_cells(const FuzzSpec& spec);

/// Per-model tallies (reporting; also serialized into repro files).
struct ModelSummary {
  std::string model;
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t violations = 0;  ///< Invariant-checker findings (cycle models).
};

struct RunOutcome {
  bool ok = true;
  /// Human-readable findings, each prefixed by category: "invariant:",
  /// "scoreboard:", "diff:", or "harness:". The first issue's category is
  /// what the minimizer preserves while shrinking.
  std::vector<std::string> issues;
  std::vector<ModelSummary> summaries;
};

/// Run every model over `cells` and cross-check. Deterministic: same spec +
/// cells always produce the same outcome.
RunOutcome run(const FuzzSpec& spec, const std::vector<ScheduledCell>& cells);

/// generate_cells + run.
RunOutcome run(const FuzzSpec& spec);

/// Category prefix of an issue string ("invariant", "diff", ...).
std::string issue_category(const std::string& issue);

}  // namespace pmsb::check
