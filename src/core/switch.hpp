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
#include "core/config.hpp"
#include "core/event_hub.hpp"
#include "core/free_list.hpp"
#include "core/input_latches.hpp"
#include "core/out_queues.hpp"
#include "core/output_row.hpp"
#include "core/pipelined_memory.hpp"
#include "core/reservation.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_buffer.hpp"
#include "sim/engine.hpp"
#include "sim/trace.hpp"
#include "sim/wire.hpp"

namespace pmsb {

// DropReason and SwitchEvents moved to core/event_hub.hpp (re-exported here).

/// Aggregate run statistics of one switch instance.
struct SwitchStats {
  std::uint64_t heads_seen = 0;       ///< Cells whose head arrived.
  std::uint64_t accepted = 0;         ///< Cells granted a write wave.
  std::uint64_t dropped_no_addr = 0;
  std::uint64_t dropped_no_slot = 0;
  std::uint64_t dropped_out_limit = 0;
  std::uint64_t read_grants = 0;      ///< Cells granted a read wave (departures).
  std::uint64_t cut_through_cells = 0;///< Departure initiated before tail arrival.
  std::uint64_t snoop_cells = 0;      ///< Same-cycle write+read co-grants.
  std::uint64_t write_initiations = 0;
  std::uint64_t read_initiations = 0;
  std::uint64_t snoop_initiations = 0;
  std::uint64_t idle_cycles = 0;      ///< Cycles with no stage-0 initiation.
  std::uint64_t read_stall_cycles = 0;///< Cycles with queued cells but no read wave.
  std::uint64_t cycles = 0;

  std::uint64_t dropped() const {
    return dropped_no_addr + dropped_no_slot + dropped_out_limit;
  }
};

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

class PipelinedSwitch final : public Component {
 public:
  explicit PipelinedSwitch(const SwitchConfig& cfg,
                           AddrPathMode addr_mode = AddrPathMode::kDecodedPipeline);

  const SwitchConfig& config() const { return cfg_; }

  WireLink& in_link(unsigned i) { return in_links_.at(i); }
  WireLink& out_link(unsigned o) { return out_links_.at(o); }

  /// Multi-subscriber event fan-out: observers call
  /// `events().subscribe(SwitchEvents{...})` and hold the returned
  /// Subscription for as long as they want the callbacks.
  EventHub& events() { return events_; }
  const EventHub& events() const { return events_; }

  /// Inject arbitration faults (verification demos only; see FaultPlan).
  void set_fault_plan(const FaultPlan& f) { fault_ = f; }
  const FaultPlan& fault_plan() const { return fault_; }

  /// Live formatting of every trace record to the tracer's sink. For the
  /// bounded, allocation-free mechanism use set_trace() instead (and
  /// optionally attach the Tracer as the buffer's live drain).
  void set_tracer(Tracer* t) { tracer_ = t; }

  /// Attach a ring-buffer event trace: the switch pushes typed records
  /// (head, write-wave, read-grant, cut-through, snoop, drop, wave-init)
  /// instead of formatting text on the hot path. Null detaches.
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

  const SwitchStats& stats() const { return stats_; }
  const PipelinedMemory& memory() const { return mem_; }
  std::uint32_t buffer_in_use() const { return free_.in_use(); }
  std::uint32_t buffer_peak() const { return free_.peak_in_use(); }
  std::size_t queued_cells() const { return oq_.total_size(); }

  // Read-only views for the invariant checker (src/check/invariants.hpp):
  // it cross-references the free list, reservation table, and output queues
  // to prove per-address exclusivity and cell conservation every cycle.
  const FreeList& free_list() const { return free_; }
  const OutQueues& out_queues() const { return oq_; }
  const ReservationTable& reservations() const { return resv_; }

  /// Cells whose head has been latched but whose accept/drop decision is
  /// still pending (at most one per input).
  unsigned pending_cells() const {
    unsigned c = 0;
    for (const auto& p : pending_) c += p.valid ? 1 : 0;
    return c;
  }

  /// True once no cell is arriving, buffered, queued, or in flight.
  bool drained() const;

 private:
  struct InFsm {
    bool receiving = false;
    unsigned phase = 0;   ///< Next word index to latch.
    unsigned stage = 0;   ///< Its input latch, phase mod S (wraps, no division).
    unsigned dest = 0;
    Cycle a0 = 0;
  };
  struct Pending {
    bool valid = false;
    Cycle a0 = 0;
    unsigned dest = 0;
    /// The shared buffer was full during at least one cycle of this cell's
    /// acceptance window (drop classification: buffer-full, not slot-miss).
    bool addr_starved = false;
  };

  void arbitrate_and_initiate(Cycle t);
  void process_arrivals(Cycle t);
  bool try_grant_read(Cycle t);
  bool try_grant_write(Cycle t);
  void expire_pending(Cycle t);

  /// True if any trace consumer is attached (guards record construction).
  bool tracing() const { return trace_ != nullptr || tracer_ != nullptr; }
  void trace_push(const obs::TraceRecord& r) {
    if (trace_) trace_->push(r);
    if (tracer_) tracer_->record(r);
  }

  SwitchConfig cfg_;
  unsigned S_;  ///< Stages = 2n.
  unsigned m_;  ///< Segments per cell.

  PipelinedMemory mem_;
  InputLatches ir_;
  OutputRow orow_;
  FreeList free_;
  OutQueues oq_;
  ReservationTable resv_;
  RoundRobin rr_read_;
  RoundRobin rr_write_;

  std::vector<WireLink> in_links_;
  std::vector<WireLink> out_links_;
  std::vector<InFsm> in_fsm_;
  std::vector<Pending> pending_;
  std::vector<Cycle> next_read_ok_;  ///< Earliest next read initiation per output.

  EventHub events_;
  SwitchStats stats_;
  FaultPlan fault_;
  std::uint64_t fault_write_grants_ = 0;  ///< Eligible write grants seen (fault pacing).
  Tracer* tracer_ = nullptr;
  obs::TraceBuffer* trace_ = nullptr;
  // Cached registry counters (null = not registered = zero hot-path cost).
  obs::Counter* m_wave_init_ = nullptr;
  obs::Counter* m_cut_through_ = nullptr;
  obs::Counter* m_read_stall_ = nullptr;
};

}  // namespace pmsb
