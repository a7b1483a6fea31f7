#include "core/config.hpp"

#include <stdexcept>

namespace pmsb {

const char* to_string(ConfigIssue::Code c) {
  switch (c) {
    case ConfigIssue::Code::kBadPorts: return "bad_ports";
    case ConfigIssue::Code::kBadWordBits: return "bad_word_bits";
    case ConfigIssue::Code::kHeadTooNarrow: return "head_too_narrow";
    case ConfigIssue::Code::kBadCellWords: return "bad_cell_words";
    case ConfigIssue::Code::kSubQuantumCell: return "sub_quantum_cell";
    case ConfigIssue::Code::kBadCapacity: return "bad_capacity";
    case ConfigIssue::Code::kCapacityMisaligned: return "capacity_misaligned";
    case ConfigIssue::Code::kBadOutQueueLimit: return "bad_out_queue_limit";
    case ConfigIssue::Code::kBadClock: return "bad_clock";
    case ConfigIssue::Code::kBadTopology: return "bad_topology";
    case ConfigIssue::Code::kBadLinkStages: return "bad_link_stages";
    case ConfigIssue::Code::kBadLoad: return "bad_load";
  }
  return "?";
}

std::string ConfigValidation::summary() const {
  std::string s;
  for (const auto& i : issues) {
    if (!s.empty()) s += "; ";
    s += i.message;
  }
  return s;
}

ConfigValidation SwitchConfig::check() const {
  ConfigValidation v;
  auto issue = [&v](ConfigIssue::Code c, std::string msg) {
    v.issues.push_back(ConfigIssue{c, std::move(msg)});
  };
  if (n_ports < 1) issue(ConfigIssue::Code::kBadPorts, "n_ports must be >= 1");
  if (word_bits < 1 || word_bits > 64)
    issue(ConfigIssue::Code::kBadWordBits, "word_bits must be in [1, 64]");
  else if (n_ports >= 1 && dest_bits() >= word_bits)
    issue(ConfigIssue::Code::kHeadTooNarrow,
          "head word too narrow for the destination field");
  if (n_ports >= 1) {
    if (cell_words == 0 || cell_words % stages() != 0) {
      if (cell_words != 0 && stages() % cell_words == 0)
        issue(ConfigIssue::Code::kSubQuantumCell,
              "cell_words divides the stage count instead of being a multiple of it: "
              "sub-quantum cells (e.g. the half-quantum n-word cells of section 3.5) "
              "need the dual organization -- use DualPipelinedSwitch, not "
              "PipelinedSwitch");
      else
        issue(ConfigIssue::Code::kBadCellWords,
              "cell_words must be a positive multiple of 2*n_ports (the pipelined "
              "memory packet-size quantum, section 3.5)");
    }
    if (capacity_segments == 0)
      issue(ConfigIssue::Code::kBadCapacity, "capacity_segments must be >= 1");
    else if (cell_words != 0 && cell_words % stages() == 0) {
      if (capacity_segments % segments_per_cell() != 0)
        issue(ConfigIssue::Code::kCapacityMisaligned,
              "capacity_segments must be a multiple of segments per cell");
      else if (out_queue_limit != 0 && out_queue_limit > capacity_cells())
        issue(ConfigIssue::Code::kBadOutQueueLimit,
              "out_queue_limit exceeds the buffer capacity in cells: the anti-hogging "
              "threshold could never bind before the shared buffer itself fills");
    }
  }
  if (clock_mhz <= 0) issue(ConfigIssue::Code::kBadClock, "clock_mhz must be positive");
  return v;
}

void SwitchConfig::validate() const {
  const ConfigValidation v = check();
  if (!v.ok()) throw std::invalid_argument(v.summary());
}

std::string SwitchConfig::describe() const {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "%ux%u switch, %u-bit links, %u-word cells, %u stages, "
                "%u-segment shared buffer (%u cells), %.1f MHz (%.0f Mb/s/link)",
                n_ports, n_ports, word_bits, cell_words, stages(), capacity_segments,
                capacity_cells(), clock_mhz, link_mbps());
  return buf;
}

SwitchConfig SwitchConfig::telegraphos1() {
  SwitchConfig c;
  c.n_ports = 4;
  c.word_bits = 8;
  c.cell_words = 8;           // 8-byte packets, 8 stages x 8 bits.
  c.capacity_segments = 256;  // 8 SRAM chips; depth chosen as a lab default.
  c.clock_mhz = 13.3;         // 107 Mb/s per link.
  c.validate();
  return c;
}

SwitchConfig SwitchConfig::telegraphos2() {
  SwitchConfig c;
  c.n_ports = 4;
  c.word_bits = 16;
  c.cell_words = 8;           // 16-byte packets = 8 words of 16 bits.
  c.capacity_segments = 256;  // DB0..DB7 are 256x16 compiled SRAMs.
  c.clock_mhz = 25.0;         // 16 bits / 40 ns = 400 Mb/s per link.
  c.validate();
  return c;
}

SwitchConfig SwitchConfig::telegraphos3() {
  SwitchConfig c;
  c.n_ports = 8;
  c.word_bits = 16;
  c.cell_words = 16;          // 256-bit packets = 16 words of 16 bits.
  c.capacity_segments = 256;  // 256 packets of 256 bits = 64 Kbit.
  c.clock_mhz = 62.5;         // 16 ns worst-case cycle -> 1 Gb/s per link.
  c.validate();
  return c;
}

SwitchConfig SwitchConfig::for_ports(unsigned n) {
  SwitchConfig c;
  c.n_ports = n;
  c.word_bits = 16;
  c.cell_words = 2 * n;
  c.capacity_segments = 32 * n;  // 32 cells per port.
  c.validate();
  return c;
}

}  // namespace pmsb
