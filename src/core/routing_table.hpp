// Header translation: the RT ("translation routing memory") block of the
// Telegraphos II floorplan (figure 6). Telegraphos routes by translating a
// virtual-circuit identifier carried in the cell header at every hop: the
// incoming VC selects an entry giving the local output port and the VC to
// carry on the next link ([Kate94], [KVES95]).
//
// The cell head word is [dest_bits | tag]; the tag's low `vc_bits` carry the
// VC. A HeaderTranslator sits on an incoming link, looks the VC up, and
// rewrites both fields before the cell enters the switch -- one register
// stage, exactly like the input-port logic of the real chip. Unroutable VCs
// (invalid entries) discard the cell and count it, as a real switch's input
// port would.

#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/cell.hpp"
#include "core/cell_port.hpp"
#include "sim/engine.hpp"
#include "sim/wire.hpp"

namespace pmsb {

class RoutingTable {
 public:
  struct Entry {
    bool valid = false;
    std::uint16_t out_port = 0;
    std::uint32_t next_vc = 0;
  };

  /// `vc_bits` of VC space (the table has 2^vc_bits entries).
  explicit RoutingTable(unsigned vc_bits);

  unsigned vc_bits() const { return vc_bits_; }
  std::size_t size() const { return entries_.size(); }

  void program(std::uint32_t vc, std::uint16_t out_port, std::uint32_t next_vc);
  void invalidate(std::uint32_t vc);
  const Entry& lookup(std::uint32_t vc) const;

 private:
  unsigned vc_bits_;
  std::vector<Entry> entries_;
};

/// Translates cell headers between an incoming link and a switch input.
class HeaderTranslator : public Component {
 public:
  /// `fmt` describes the cell format on both links; the VC is the low
  /// `table->vc_bits()` bits of the head word's tag field.
  HeaderTranslator(WireLink* from, WireLink* to, const CellFormat& fmt,
                   const RoutingTable* table);

  void eval(Cycle t) override;
  void commit(Cycle t) override;
  std::string name() const override { return "header_translator"; }

  std::uint64_t cells_translated() const { return cells_translated_; }
  std::uint64_t cells_unroutable() const { return cells_unroutable_; }

 private:
  WireLink* from_;
  WireLink* to_;
  CellFormat fmt_;
  const RoutingTable* table_;

  CellRx rx_;
  bool forwarding_ = false;  ///< The current cell's head was translated.

  std::uint64_t cells_translated_ = 0;
  std::uint64_t cells_unroutable_ = 0;
};

/// Extract / replace the VC field (low `vc_bits` of the tag) in a head word.
std::uint32_t head_vc(Word head, const CellFormat& fmt, unsigned vc_bits);
Word make_translated_head(Word head, const CellFormat& fmt, unsigned vc_bits,
                          std::uint16_t out_port, std::uint32_t next_vc);

}  // namespace pmsb
