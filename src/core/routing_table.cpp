#include "core/routing_table.hpp"

namespace pmsb {

RoutingTable::RoutingTable(unsigned vc_bits)
    : vc_bits_(vc_bits), entries_(std::size_t{1} << vc_bits) {
  PMSB_CHECK(vc_bits >= 1 && vc_bits <= 20, "vc_bits out of a sane range");
}

void RoutingTable::program(std::uint32_t vc, std::uint16_t out_port, std::uint32_t next_vc) {
  PMSB_CHECK(vc < entries_.size(), "VC beyond the table");
  PMSB_CHECK(next_vc < entries_.size(), "next-hop VC beyond the VC space");
  entries_[vc] = Entry{true, out_port, next_vc};
}

}  // namespace pmsb
