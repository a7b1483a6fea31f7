// Cycle-accurate crosspoint-queued (CQ) switch: the single-chip architecture
// of Cao & Panwar (PAPERS.md), the opposite pole from shared buffering in
// the section 2.2 memory-utilization trade-off. Each (input, output) pair
// owns a small dedicated buffer at its crosspoint, so there is no shared
// memory port to arbitrate at all: every input can write its crosspoint and
// every output can read one crosspoint in the same cell time. The price is
// static partitioning -- the pool is split n^2 ways, so a hot crosspoint
// overflows while the rest of the die sits empty. bench_buffer_sharing
// quantifies exactly that against the shared-buffer policies.
//
// Store-and-forward only (a crosspoint SRAM has no bypass bus); each output
// picks among its n crosspoints with round-robin or longest-queue-first.

#pragma once

#include <cstdint>
#include <vector>

#include "core/arbiter.hpp"
#include "core/cell_port.hpp"
#include "core/config.hpp"
#include "core/out_queues.hpp"

namespace pmsb {

/// How an output chooses among its column of crosspoint buffers.
enum class CqScheduler {
  kRoundRobin,    ///< Rotating priority over inputs (work-conserving, fair).
  kLongestQueue,  ///< Longest queue first, lowest input index on ties.
};

/// Single-argument config for harnesses (Testbench constructs the DUT from
/// one config object): the shared geometry plus the output scheduler.
struct CqConfig {
  SwitchConfig base;
  CqScheduler sched = CqScheduler::kRoundRobin;
};

class CrosspointQueuedSwitch : public CellSwitch {
 public:
  /// Uses the shared SwitchConfig geometry; the total buffer budget
  /// capacity_cells() is split evenly into n^2 crosspoints (throws if that
  /// leaves a crosspoint with zero cells). cut_through is ignored.
  explicit CrosspointQueuedSwitch(const SwitchConfig& cfg,
                                  CqScheduler sched = CqScheduler::kRoundRobin);
  explicit CrosspointQueuedSwitch(const CqConfig& cfg)
      : CrosspointQueuedSwitch(cfg.base, cfg.sched) {}

  const SwitchConfig& config() const { return cfg_; }
  CqScheduler scheduler() const { return sched_; }
  std::size_t crosspoint_capacity() const { return xp_cap_; }

  void eval(Cycle t) override;
  void commit(Cycle t) override;
  std::string name() const override { return "crosspoint_queued_switch"; }

  bool drained() const;

 private:
  struct OutPort {
    std::vector<Word> shift;  ///< The cell driving the link.
    CellTx tx;
  };
  struct QueuedCell {
    std::vector<Word> words;
    unsigned input;
    Cycle a0;
    Cycle stored_at;
  };

  /// Queue of crosspoint (input, output).
  unsigned crosspoint(unsigned input, unsigned output) const {
    return input * cfg_.n_ports + output;
  }

  void run_outputs(Cycle t);
  void accept_arrivals(Cycle t);
  int pick_input(unsigned output);

  SwitchConfig cfg_;
  CqScheduler sched_;
  std::size_t xp_cap_;  ///< Cells per crosspoint buffer.

  OutQueues<QueuedCell> xq_;    ///< One queue per crosspoint.
  std::vector<RoundRobin> rr_;  ///< Per-output rotating priority.

  std::vector<std::vector<Word>> fill_;      ///< Per input: the cell assembling.
  std::vector<OutPort> out_;
  /// L-word rows no cell holds: an accepted cell's fill row moves into its
  /// crosspoint queue and a spare takes its place; a departing cell hands
  /// back the output's previous shift row. Rows are allocated only while
  /// this list is empty.
  std::vector<std::vector<Word>> spare_rows_;
};

}  // namespace pmsb
