// Header translation: the RT ("translation routing memory") block of the
// Telegraphos II floorplan (figure 6). Telegraphos routes by translating a
// virtual-circuit identifier carried in the cell header at every hop: the
// incoming VC selects an entry giving the local output port and the VC to
// carry on the next link ([Kate94], [KVES95]).
//
// The cell fabrics run one table per node (fabric/bridge.hpp): the VC is the
// destination node, and each entry holds the node's dimension-order
// out-port with the VC unchanged. An entry never programmed is invalid: the
// table has no route for that VC.

#pragma once

#include <cstdint>
#include <vector>

#include "common/util.hpp"

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
  const Entry& lookup(std::uint32_t vc) const {
    PMSB_CHECK(vc < entries_.size(), "VC beyond the table");
    return entries_[vc];
  }

 private:
  unsigned vc_bits_;
  std::vector<Entry> entries_;
};

}  // namespace pmsb
