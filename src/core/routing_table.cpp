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

void RoutingTable::invalidate(std::uint32_t vc) {
  PMSB_CHECK(vc < entries_.size(), "VC beyond the table");
  entries_[vc] = Entry{};
}

const RoutingTable::Entry& RoutingTable::lookup(std::uint32_t vc) const {
  PMSB_CHECK(vc < entries_.size(), "VC beyond the table");
  return entries_[vc];
}

std::uint32_t head_vc(Word head, const CellFormat& fmt, unsigned vc_bits) {
  return static_cast<std::uint32_t>(decode_tag(head, fmt) & low_mask(vc_bits));
}

Word make_translated_head(Word head, const CellFormat& fmt, unsigned vc_bits,
                          std::uint16_t out_port, std::uint32_t next_vc) {
  PMSB_CHECK((out_port & ~low_mask(fmt.dest_bits)) == 0, "output port beyond dest field");
  const Word tag = decode_tag(head, fmt);
  const Word new_tag = (tag & ~low_mask(vc_bits)) | next_vc;
  return (new_tag << fmt.dest_bits) | out_port;
}

HeaderTranslator::HeaderTranslator(WireLink* from, WireLink* to, const CellFormat& fmt,
                                   const RoutingTable* table)
    : from_(from), to_(to), fmt_(fmt), table_(table), rx_(fmt) {
  PMSB_CHECK(from != nullptr && to != nullptr && table != nullptr,
             "translator needs links and a table");
  PMSB_CHECK(table->vc_bits() <= fmt.tag_bits(), "VC field wider than the header tag");
}

void HeaderTranslator::eval(Cycle t) {
  const Flit& f = from_->now();
  const RxWord w = rx_.take(f, t);
  if (w == RxWord::kIdle) return;
  if (w == RxWord::kBody) {
    if (forwarding_) to_->drive_next(f);
    return;
  }
  const RoutingTable::Entry& e = table_->lookup(head_vc(f.data, fmt_, table_->vc_bits()));
  forwarding_ = e.valid;
  if (!e.valid) {
    ++cells_unroutable_;
    return;
  }
  ++cells_translated_;
  to_->drive_next(Flit{true, true, make_translated_head(f.data, fmt_, table_->vc_bits(),
                                                        e.out_port, e.next_vc)});
}

void HeaderTranslator::commit(Cycle) {}

}  // namespace pmsb
