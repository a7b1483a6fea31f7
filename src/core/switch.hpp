// PipelinedSwitch: the paper's shared-buffer crossbar switch built around a
// pipelined memory (sections 3.2-3.4), cycle-accurate at word granularity.
//
// Datapath per figure 4, control per figure 5:
//
//   in links -> input latch rows IR[i][0..S-1]
//                    |                                S = 2n stages
//                    v
//          M0 -> M1 -> ... -> M(S-1)     (single-ported SRAM banks,
//                    |                    one wave initiation per cycle)
//                    v
//           shared output register row -> out links
//
// Operation summary (timing conventions in DESIGN.md):
//  * Head word of a cell on input link i during cycle a0 -> latched into
//    IR[i][0] at the end of a0. The write wave must initiate at some
//    t0 in [a0+1, a0+S] -- before the latches are reused -- which the
//    read-priority + round-robin arbiter guarantees whenever a buffer
//    address is available (DESIGN.md invariant 2).
//  * Each cycle the arbiter initiates at most one wave at M0: a reserved
//    continuing segment, else a read (priority to outgoing links,
//    section 3.2), else a write. When a write is granted for a cell whose
//    output is idle and unqueued, a snooping read is co-initiated on the
//    same slots: automatic cut-through with head latency a0 -> a0+2.
//  * Multi-segment cells (cell_words = m * S) reserve the arithmetic
//    progression {t0 + k*S} of stage-0 slots up front; segment data is
//    always latched before its wave needs it (window arithmetic in
//    DESIGN.md).

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/arbiter.hpp"
#include "core/cell_port.hpp"
#include "core/config.hpp"
#include "core/free_list.hpp"
#include "core/latch_window.hpp"
#include "core/out_queues.hpp"
#include "core/output_row.hpp"
#include "core/pipelined_memory.hpp"
#include "core/reservation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_buffer.hpp"

namespace pmsb {

/// Test-only fault injection (src/check/): deliberately mis-arbitrate so the
/// invariant checker, minimizer, and replay tool can be demonstrated against
/// a switch that is known to be broken. All-zero = no faults.
struct FaultPlan {
  /// Every k-th otherwise-eligible write grant is silently skipped (k > 0
  /// enables). Starves pending cells past their latch-window deadline: the
  /// bug class the paper's 2n-cycle write-window invariant forbids.
  unsigned suppress_write_grant_period = 0;

  bool none() const { return suppress_write_grant_period == 0; }
};

class PipelinedSwitch final : public CellSwitch {
 public:
  explicit PipelinedSwitch(const SwitchConfig& cfg);

  const SwitchConfig& config() const { return cfg_; }

  /// Inject arbitration faults (verification demos only; see FaultPlan).
  void set_fault_plan(const FaultPlan& f) { fault_ = f; }
  const FaultPlan& fault_plan() const { return fault_; }

  /// Attach a ring-buffer event trace: the switch pushes typed records
  /// (head, write-wave, read-grant, cut-through, snoop, drop, wave-init)
  /// instead of formatting text on the hot path; a Tracer attached as the
  /// buffer's live drain formats them as they land. Null detaches.
  void set_trace(obs::TraceBuffer* tb) { trace_ = tb; }

  /// Register this switch's counters and gauges into `m` under
  /// `prefix.`-qualified names (see DESIGN.md "Observability"). Counter
  /// pointers are cached; with no registry (or a disabled one) they stay
  /// null and the hot path is unaffected.
  void register_metrics(obs::MetricsRegistry& m, const std::string& prefix = "switch");

  // Component interface.
  void eval(Cycle t) override;
  void commit(Cycle t) override;
  bool is_quiescent(Cycle t) const override;
  void skip(Cycle t, Cycle n) override;
  std::string name() const override { return "pipelined_switch"; }

  const PipelinedMemory& memory() const { return mem_; }
  /// Check the memory against its stage-walk oracle every cycle (see
  /// PipelinedMemory::attach_oracle()).
  void attach_memory_oracle() { mem_.attach_oracle(); }
  std::uint32_t buffer_in_use() const { return free_.in_use(); }
  std::uint32_t buffer_peak() const { return free_.peak_in_use(); }
  std::size_t queued_cells() const { return oq_.total_size(); }

  // Read-only views for the invariant checker (src/check/invariants.hpp):
  // it cross-references the free list, reservation table, and output queues
  // to prove per-address exclusivity and cell conservation every cycle.
  const FreeList& free_list() const { return free_; }
  const OutQueues<BufferedCell>& out_queues() const { return oq_; }
  const ReservationTable& reservations() const { return resv_; }

  /// Cells whose head has been latched but whose accept/drop decision is
  /// still pending (at most one per input).
  unsigned pending_cells() const { return window_.pending_cells(); }

  /// True once no cell is arriving, buffered, queued, or in flight.
  bool drained() const;

 private:
  void arbitrate_and_initiate(Cycle t);
  void process_arrivals(Cycle t);
  bool try_grant_read(Cycle t);
  bool try_grant_write(Cycle t);

  /// True if a trace buffer is attached (guards record construction).
  bool tracing() const { return trace_ != nullptr; }
  void trace_push(const obs::TraceRecord& r) { trace_->push(r); }

  SwitchConfig cfg_;
  unsigned S_;  ///< Stages = 2n.
  unsigned m_;  ///< Segments per cell.

  PipelinedMemory mem_;
  LatchWindow window_;  ///< Input latch rows and pending heads.
  OutputRow orow_;
  FreeList free_;
  OutQueues<BufferedCell> oq_;
  ReservationTable resv_;
  RoundRobin rr_read_;
  RoundRobin rr_write_;

  std::vector<Cycle> next_read_ok_;  ///< Earliest next read initiation per output.

  FaultPlan fault_;
  std::uint64_t fault_write_grants_ = 0;  ///< Eligible write grants seen (fault pacing).
  obs::TraceBuffer* trace_ = nullptr;
  // Cached registry counters (null = not registered = zero hot-path cost).
  obs::Counter* m_wave_init_ = nullptr;
  obs::Counter* m_cut_through_ = nullptr;
  obs::Counter* m_read_stall_ = nullptr;
};

}  // namespace pmsb
