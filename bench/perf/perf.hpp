// Shared pieces of the pmsb_perf program: sample statistics, the span
// recorder behind the traced pass, and the workload interface that
// workloads.cpp implements and pmsb_perf.cpp drives.
//
// Host time (wall clock, steady_clock) and simulated time (cycles / slots)
// never mix: everything host-timed is a sample or a span; everything
// simulated lives in Simulated and must repeat exactly for a given seed.

#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "obs/perfetto.hpp"

namespace pmsb::perf {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Median and quartiles of a sample. Quartiles use the "exclusive" method of
/// Python's statistics.quantiles, so run.py and ab.py read the same numbers.
struct Summary {
  double median = 0;
  double q1 = 0;
  double q3 = 0;
  std::size_t n = 0;
  double iqr() const { return q3 - q1; }
};
Summary summarize(std::vector<double> xs);

/// Wall-clock spans of the traced pass, kept in memory and written to one
/// Perfetto track when the run ends.
class Spans {
 public:
  void add(const std::string& name, std::int64_t start_ns, std::int64_t end_ns) {
    spans_.push_back({name, start_ns, end_ns});
  }
  /// Emit every span as a complete event on track `tid`, in microseconds
  /// since `origin_ns`.
  void to_perfetto(obs::PerfettoTrace& tr, unsigned tid, const std::string& track,
                   std::int64_t origin_ns) const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  std::vector<Span> spans_;
};

using Named = std::vector<std::pair<std::string, double>>;

/// Simulated results of one run. Every field is a deterministic function of
/// (workload, seed, run length): commits that only speed up the simulator
/// must reproduce them bit for bit.
struct Simulated {
  double carried_load = 0;  ///< Delivered words (or flits, or cells for slot
                            ///< models) per endpoint per cycle, after warm-up.
  std::uint64_t latency_p50 = 0;  ///< Cycles (slots for slot models).
  std::uint64_t latency_p99 = 0;
  std::uint64_t latency_samples = 0;
  double loss_ratio = 0;  ///< Dropped / injected, after warm-up.
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t digest = 0;  ///< Order-sensitive digest of what was delivered.

  /// Field name -> exact text; the form golden.json stores.
  std::vector<std::pair<std::string, std::string>> exact() const;
};

/// End-to-end correctness checks of one run.
struct Checks {
  std::uint64_t attempted = 0;       ///< Cells / messages checked end to end.
  std::uint64_t payload_errors = 0;  ///< Corrupted deliveries.
  std::uint64_t order_errors = 0;    ///< Scoreboard FIFO / accounting failures.
  std::uint64_t conservation_errors = 0;
  std::vector<std::string> notes;    ///< One line per failed check.
  std::uint64_t failed() const { return payload_errors + order_errors + conservation_errors; }
};

/// Run-shape parameters, resolved by pmsb_perf from the workload defaults.
struct RunParams {
  std::uint64_t seed = 1;
  unsigned threads = 1;      ///< Fabric and sweep workers.
  std::int64_t chunk = 0;    ///< Cycles per run() chunk (slots per point for sweeps).
};

/// One built instance of a workload.
class System {
 public:
  virtual ~System() = default;
  /// One timed sample: advance the simulation by RunParams::chunk.
  virtual void run_chunk() = 0;
  /// Called once after the warm-up chunks; simulated metrics window from here.
  virtual void mark_warm() = 0;
  // The readers below are non-const only because some library accessors
  // they call (Testbench::scoreboard()) are.
  virtual Simulated simulated() = 0;
  virtual Checks check() = 0;
  /// Cumulative layer counters read through public accessors (traced pass).
  virtual Named counters() = 0;
  /// Cumulative work per layer, keyed by the micro-suite metric that prices
  /// one unit of it; sum(work x unit cost) / active_ns() is the traced pass's
  /// explained fraction.
  virtual Named work() = 0;
  /// Cumulative host time spent advancing the simulation, summed over threads.
  virtual double active_ns() = 0;
  /// Library-side Perfetto tracks (fabric worker telemetry, sweep points);
  /// `origin_ns` is pmsb_perf's trace origin on the steady clock.
  virtual void to_perfetto(obs::PerfettoTrace& tr, std::int64_t origin_ns) {
    (void)tr;
    (void)origin_ns;
  }
};

struct Workload {
  const char* name;
  std::int64_t chunk;          ///< Default RunParams::chunk.
  unsigned chunks;             ///< Timed chunks behind wall_s and the simulated metrics.
  unsigned warmup_chunks;
  double node_cycles_per_unit; ///< Node-cycles per chunk cycle (nodes, or points).
  /// Build the system and take its first step (the lazy pool and partition
  /// are created there), i.e. everything setup_s times.
  std::unique_ptr<System> (*build)(const RunParams& p);
};

const std::vector<Workload>& workloads();
const Workload* find_workload(const std::string& name);

/// `counts` plus the ratios derivable from them (stalled reads per cycle,
/// skipped rounds, scheduler busy fraction, ...). Ratios are taken over the
/// same window as the counts they divide.
Named with_ratios(Named counts);

/// Layer micro-suite: metric name -> summary over `reps` repetitions.
std::vector<std::pair<std::string, Summary>> run_layers(unsigned reps, unsigned threads);

}  // namespace pmsb::perf
