#include "core/reservation.hpp"

#include <bit>

namespace pmsb {

ReservationTable::ReservationTable(std::size_t horizon)
    : horizon_(horizon), ring_(std::bit_ceil(horizon)), mask_(ring_.size() - 1) {
  PMSB_CHECK(horizon >= 2, "reservation horizon too small");
}

ReservationTable::Entry& ReservationTable::occupied_at(Cycle t) {
  Entry& e = at(t);
  if (e.cycle != t) {
    PMSB_CHECK(e.cycle < t, "reservation ring wrapped onto a live entry");
    e = Entry{t, SlotOp{}};
  }
  return e;
}

void ReservationTable::reserve_writes(Cycle t0, Cycle step, AddrSpan addrs,
                                      unsigned in_link, Cycle a0) {
  for (unsigned k = 0; k < addrs.size(); ++k) {
    const Cycle t = t0 + static_cast<Cycle>(k) * step;
    PMSB_CHECK(slot_free(t), "write reservation over an occupied slot");
    Entry& e = occupied_at(t);
    e.op.has_write = true;
    e.op.w_addr = addrs[k];
    e.op.in_link = static_cast<std::uint16_t>(in_link);
    e.op.w_head = (k == 0);
    e.op.w_a0 = a0 + static_cast<Cycle>(k) * step;
  }
}

void ReservationTable::reserve_reads(Cycle t0, Cycle step, AddrSpan addrs,
                                     unsigned out_link) {
  for (unsigned k = 0; k < addrs.size(); ++k) {
    const Cycle t = t0 + static_cast<Cycle>(k) * step;
    PMSB_CHECK(slot_free(t), "read reservation over an occupied slot");
    Entry& e = occupied_at(t);
    e.op.has_read = true;
    e.op.r_addr = addrs[k];
    e.op.out_link = static_cast<std::uint16_t>(out_link);
    e.op.r_head = (k == 0);
  }
}

void ReservationTable::attach_snoop_reads(Cycle t0, Cycle step, AddrSpan addrs,
                                          unsigned out_link) {
  for (unsigned k = 0; k < addrs.size(); ++k) {
    const Cycle t = t0 + static_cast<Cycle>(k) * step;
    Entry& e = at(t);
    PMSB_CHECK(e.cycle == t && e.op.has_write && !e.op.has_read,
               "snoop read must attach to a pending write slot");
    PMSB_CHECK(e.op.w_addr == addrs[k], "snoop read address differs from the write address");
    e.op.has_read = true;
    e.op.r_addr = addrs[k];
    e.op.out_link = static_cast<std::uint16_t>(out_link);
    e.op.r_head = (k == 0);
  }
}

}  // namespace pmsb
