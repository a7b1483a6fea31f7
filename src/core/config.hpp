// Configuration of a pipelined-memory shared-buffer switch.
//
// The natural geometry (section 3.2): an n x n switch has S = 2n memory
// stages; the cell size is S words (or a multiple m*S); the shared buffer
// stores up to `capacity_segments` segments (one segment = one word in each
// stage = one buffer address). The three Telegraphos prototypes (section 4)
// are provided as named configurations.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/cell.hpp"
#include "common/util.hpp"

namespace pmsb {

/// One structured complaint from a config check. The code is stable for
/// programmatic handling; the message names the offending values.
struct ConfigIssue {
  enum class Code : std::uint8_t {
    kBadPorts,           ///< n_ports outside the organization's range.
    kBadWordBits,        ///< word_bits outside [1, 64].
    kHeadTooNarrow,      ///< Destination field does not fit the head word.
    kBadCellWords,       ///< Cell size not a positive multiple of the quantum.
    kSubQuantumCell,     ///< Cell divides the stage count (wants the dual org).
    kBadCapacity,        ///< No buffer capacity.
    kCapacityMisaligned, ///< Capacity not a whole number of cells.
    kBadOutQueueLimit,   ///< Anti-hogging threshold exceeds the capacity.
    kBadClock,           ///< Non-positive clock.
    kBadTopology,        ///< Fabric topology unusable (too few nodes, ...).
    kBadLinkStages,      ///< Inter-node links need >= 1 register stage.
    kBadLoad,            ///< Offered load outside [0, 1].
  };
  Code code;
  std::string message;
};

const char* to_string(ConfigIssue::Code c);

/// Result of a non-throwing config check: every inconsistency, not just the
/// first. validate() throws summary() when !ok().
struct ConfigValidation {
  std::vector<ConfigIssue> issues;

  bool ok() const { return issues.empty(); }
  bool has(ConfigIssue::Code c) const {
    for (const auto& i : issues)
      if (i.code == c) return true;
    return false;
  }
  /// All messages joined "; " (empty when ok()).
  std::string summary() const;
};

struct SwitchConfig {
  unsigned n_ports = 4;            ///< n: incoming links = outgoing links.
  unsigned word_bits = 16;         ///< w: link/memory width per cycle.
  unsigned cell_words = 8;         ///< L: cell size in words, multiple of 2n.
  unsigned capacity_segments = 64; ///< Buffer addresses (words per stage).
  bool cut_through = true;         ///< Allow same-cycle write+snoop reads.
  double clock_mhz = 62.5;         ///< For cycles -> bits/s conversions only.
  /// Anti-hogging threshold: a cell is discarded at arrival if its output
  /// already has this many cells queued (0 = unlimited). Keeps one saturated
  /// output from monopolizing the shared pool -- the per-output limits real
  /// shared-buffer switches add (cf. [DeEI95], [KVES95]).
  unsigned out_queue_limit = 0;

  unsigned stages() const { return 2 * n_ports; }
  unsigned segments_per_cell() const { return cell_words / stages(); }
  unsigned dest_bits() const { return bits_for(n_ports); }

  CellFormat cell_format() const {
    return CellFormat{word_bits, dest_bits(), cell_words};
  }

  /// Capacity measured in whole cells.
  unsigned capacity_cells() const { return capacity_segments / segments_per_cell(); }

  /// Per-link throughput in Mb/s at clock_mhz.
  double link_mbps() const { return clock_mhz * word_bits; }

  /// Non-throwing geometry/limit check: returns every inconsistency as a
  /// structured issue. The single source of truth for switch-config
  /// validity (validate() and the constructors go through it).
  ConfigValidation check() const;

  /// Throws std::invalid_argument(check().summary()) on any issue.
  void validate() const;

  std::string describe() const;

  // --- Named factory presets -------------------------------------------
  /// Telegraphos I (section 4.1): 4x4 FPGA prototype, 8-bit links at
  /// 13.3 MHz (107 Mb/s/link), 8-byte cells, 8 pipeline stages.
  static SwitchConfig telegraphos1();
  /// Telegraphos II (section 4.2): 4x4 standard-cell ASIC, 16-bit links at
  /// 25 MHz on-chip word rate (16 bits / 40 ns = 400 Mb/s per link),
  /// 16-byte cells, 8 stages, 256-word SRAM stages.
  static SwitchConfig telegraphos2();
  /// Telegraphos III (section 4.4): 8x8 full-custom buffer, 16-bit links,
  /// 16 stages, 256 cells of 256 bits; 62.5 MHz worst case = 1 Gb/s/link.
  static SwitchConfig telegraphos3();
  /// Generic valid geometry for an n x n switch: 16-bit words, the minimum
  /// legal cell (one quantum of 2n words), and a shared buffer of 32 cells
  /// per port. The go-to for tests, fabrics, and sweeps that just need
  /// "some n-port switch".
  static SwitchConfig for_ports(unsigned n);
};

}  // namespace pmsb
