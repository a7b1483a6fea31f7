// Always-on machine checking of the paper's structural invariants.
//
// The paper's central claims about the pipelined-memory shared buffer are
// *invariants*, not statistics: at most one wave initiation per cycle at M0
// (section 3.2), every accepted cell's write wave initiated within the 2n-cycle
// latch window so input latches are never clobbered (section 3.2, DESIGN.md
// invariant 2), staggered output-row initiation (section 3.4), automatic
// cut-through only when legal (section 3.3), and exact conservation of cells
// and buffer addresses. This checker turns each of them into a per-cycle
// machine-checked property:
//
//   * it subscribes to the switch's EventHub to observe every
//     head/accept/drop/read-grant as it happens, and
//   * it registers as an Engine CycleObserver so that after every commit
//     phase it can cross-reference the free list, reservation table, and
//     output queues -- the only moment the cross-component conservation
//     equations are meaningful.
//   * it lets the engine skip idle stretches: across a skipped interval it
//     asserts that nothing happened -- no heads, grants, drops or wave
//     initiations, unchanged occupancy, queues and free list -- then runs
//     the end-of-cycle checks once for the interval's last cycle.
//
// Violations are *recorded*, never aborted on: they increment per-invariant
// obs::MetricsRegistry counters, push a kViolation TraceBuffer record carrying
// the violating cycle and a state digest, and retain the first 64 messages for
// reporting. The differential harness (check/differential.hpp) and the fuzz
// corpus (tools/fuzz_differential) treat any violation as a failure.
//
// Cost: nothing unless attached. Attachment is opt-in per run -- Testbench
// attaches automatically when the PMSB_CHECK environment variable (or the
// pmsb_check CMake option) is set, so production bench numbers are untouched.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/dual_switch.hpp"
#include "core/switch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_buffer.hpp"
#include "sim/engine.hpp"

namespace pmsb::check {

/// True when invariant checking was requested for this process: the
/// PMSB_CHECK environment variable is set to a non-empty, non-"0" value, or
/// the library was compiled with -DPMSB_CHECK_DEFAULT_ON (the `pmsb_check`
/// CMake option) and the variable does not override it to "0".
bool env_enabled();

/// The enforced invariants, each with its paper reference (DESIGN.md
/// "Verification" lists the exact statements).
enum class Invariant : std::uint8_t {
  kSingleInitiation,    ///< <= 1 M0 wave initiation per cycle (section 3.2).
  kWriteWindow,         ///< a0 < t0 <= a0 + S: write wave inside the latch window.
  kAddressExclusivity,  ///< Free list == queued + reserved addresses, no aliasing.
  kConservation,        ///< arrived = accepted + dropped(by reason) + pending;
                        ///< accepted = departed + queued.
  kOutputStagger,       ///< Per-output initiations >= L cycles apart; <= 1
                        ///< transmission start per cycle (section 3.4).
  kCutThrough,          ///< Cut-through flag and snoop legality (section 3.3).
  kDropReason,          ///< kNoSlot never occurs for single-segment cells.
};

inline constexpr std::size_t kInvariantCount = 7;

const char* to_string(Invariant inv);

/// One recorded violation (the first 64 are retained verbatim).
struct Violation {
  Cycle cycle = 0;
  Invariant invariant = Invariant::kSingleInitiation;
  std::uint32_t digest = 0;  ///< mix64 digest of the violating cycle's state.
  std::string message;
};

class InvariantChecker : public CycleObserver {
 public:
  InvariantChecker() = default;

  /// Hook a cycle-accurate switch: subscribes to its EventHub (coexisting
  /// with scoreboards, fabric bridges, and any other subscriber) and
  /// registers with the engine's post-commit observer list. Attach exactly
  /// once.
  void attach(PipelinedSwitch& sw, Engine& engine);
  void attach(DualPipelinedSwitch& sw, Engine& engine);

  /// Per-invariant violation counters under `prefix`.violations.<name>.
  void register_metrics(obs::MetricsRegistry& m, const std::string& prefix = "check");

  /// Push a kViolation record per violation (arg = Invariant id, addr =
  /// state digest). Null detaches.
  void set_trace(obs::TraceBuffer* tb) { trace_ = tb; }

  bool ok() const { return total_ == 0; }
  std::uint64_t total_violations() const { return total_; }
  std::uint64_t count(Invariant inv) const {
    return per_invariant_[static_cast<std::size_t>(inv)];
  }
  /// First 64 violations, in order of detection.
  const std::vector<Violation>& violations() const { return violations_; }

  // CycleObserver: the per-cycle structural checks, and the quiescent-
  // interval checks that let the engine skip idle stretches.
  void on_cycle_end(Cycle t) override;
  bool skips_ok() const override { return true; }
  void on_skip(Cycle from, Cycle to) override;

 private:
  /// What a quiescent interval must leave unchanged.
  struct QuietState {
    std::uint64_t heads = 0;
    std::uint64_t accepted = 0;
    std::uint64_t dropped = 0;
    std::uint64_t read_grants = 0;
    std::uint64_t initiations = 0;  ///< Stage-0 wave initiations.
    std::uint64_t in_use = 0;       ///< Buffer addresses occupied.
    std::uint64_t available = 0;    ///< Free-list addresses allocatable (single switch).
    std::uint64_t queued = 0;
    std::uint64_t pending = 0;
  };
  QuietState quiet_state() const;

  void on_head(unsigned input, Cycle a0, unsigned dest);
  void on_accept(unsigned input, Cycle a0, Cycle t0);
  void on_drop(unsigned input, Cycle a0, DropReason why);
  void on_read_grant(unsigned output, unsigned input, Cycle tr, Cycle t0, Cycle a0,
                     bool cut);

  void check_conservation(Cycle t, const SwitchStats& s, unsigned pending,
                          std::size_t queued);
  void check_initiation_rate(Cycle t, const SwitchStats& s);
  void check_address_exclusivity(Cycle t);

  void violate(Cycle t, Invariant inv, std::string msg);
  std::uint32_t state_digest(Cycle t) const;

  void init_common(unsigned n_ports, unsigned stages, unsigned segments,
                   Cycle cell_len, bool cut_through, Engine& engine);
  SwitchEvents make_events();

  PipelinedSwitch* psw_ = nullptr;
  DualPipelinedSwitch* dsw_ = nullptr;
  Subscription events_sub_;  ///< Our slot on the DUT's EventHub.

  unsigned n_ = 0;        ///< Ports.
  unsigned S_ = 0;        ///< Stages (2n single organization, n dual).
  unsigned m_ = 0;        ///< Segments per cell.
  Cycle cell_len_ = 0;    ///< Cell length in cycles (= minimum read spacing).
  bool cut_through_allowed_ = true;

  // Shadow state accumulated from events, cross-checked against SwitchStats.
  std::uint64_t ev_heads_ = 0;
  std::uint64_t ev_accepts_ = 0;
  std::uint64_t ev_drops_[3] = {0, 0, 0};  ///< Indexed by DropReason.
  std::uint64_t ev_read_grants_ = 0;
  std::vector<Cycle> last_read_grant_;     ///< Per output; -1 = never.
  Cycle last_grant_cycle_ = -1;
  unsigned grants_in_cycle_ = 0;

  /// State at the end of the last observed (stepped or skipped) cycle.
  QuietState quiet_;

  // Previous-cycle counter snapshots for rate checks.
  std::uint64_t prev_mem_inits_ = 0;
  std::uint64_t prev_write_inits_ = 0;
  std::uint64_t prev_read_inits_ = 0;
  std::uint64_t prev_snoop_inits_ = 0;

  // Scratch for the address-exclusivity walk (no per-cycle allocation).
  std::vector<std::uint8_t> addr_refs_;
  std::vector<std::uint8_t> addr_marked_;

  std::vector<Violation> violations_;
  std::uint64_t total_ = 0;
  std::uint64_t per_invariant_[kInvariantCount] = {};
  obs::TraceBuffer* trace_ = nullptr;
  obs::Counter* counters_[kInvariantCount] = {};
};

}  // namespace pmsb::check
