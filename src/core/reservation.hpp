// Reservation table for stage-0 (wave-initiation) slots.
//
// A wave occupies M0 in exactly one cycle and then travels down the
// pipeline without ever conflicting with waves initiated in other cycles
// (each stage serves at most one wave per cycle because initiations are
// serialized at M0). Multi-segment cells initiate one wave per segment,
// spaced exactly S cycles apart, so granting a multi-segment operation
// means reserving the whole arithmetic progression {t0 + k*S} up front.
//
// A slot carries at most one write and at most one read; when it carries
// both they snoop the same address (same-cycle cut-through, section 3.3) and
// cost one physical M0 access.
//
// The ring is the horizon rounded up to a power of two, so the per-cycle
// lookups (slot_free, progression_free, take) index it with a mask instead
// of a division; the horizon itself still bounds every reservation.

#pragma once

#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/small_vec.hpp"
#include "common/util.hpp"

namespace pmsb {

/// Non-owning view of a cell's segment addresses. Reservation calls sit on
/// the per-cell hot path; taking a view instead of std::vector lets callers
/// hand over SegAddrs (inline storage), vectors, or braced literals without
/// materializing a heap vector.
struct AddrSpan {
  const std::uint32_t* ptr;
  std::size_t count;

  AddrSpan(const std::uint32_t* p, std::size_t n) : ptr(p), count(n) {}
  AddrSpan(const SegAddrs& a) : ptr(a.data()), count(a.size()) {}                // NOLINT
  AddrSpan(const std::vector<std::uint32_t>& a) : ptr(a.data()), count(a.size()) {}  // NOLINT

  std::size_t size() const { return count; }
  std::uint32_t operator[](std::size_t i) const { return ptr[i]; }
};

/// Per-segment operation scheduled at one stage-0 slot. Fields are ordered
/// by size so an entry packs into 24 bytes (the ring holds a power of two
/// of them).
struct SlotOp {
  Cycle w_a0 = 0;  ///< Arrival cycle of this segment's first word.
  std::uint32_t w_addr = 0;
  std::uint32_t r_addr = 0;
  std::uint16_t in_link = 0;
  std::uint16_t out_link = 0;
  bool has_write = false;
  bool w_head = false;  ///< Segment 0 of its cell.
  bool has_read = false;
  bool r_head = false;

  bool empty() const { return !has_write && !has_read; }
};

class ReservationTable {
 public:
  /// `horizon` = maximum look-ahead in cycles (>= segments * S + 1).
  explicit ReservationTable(std::size_t horizon);

  /// True if cycle t has no reservation at all.
  bool slot_free(Cycle t) const {
    const Entry& e = at(t);
    return e.cycle != t || e.op.empty();
  }

  /// True if every cycle {t0 + k*step : k < count} is free.
  bool progression_free(Cycle t0, Cycle step, unsigned count) const {
    PMSB_CHECK(
        static_cast<std::size_t>(step) * count < horizon_ + static_cast<std::size_t>(step),
        "reservation beyond the table horizon");
    for (unsigned k = 0; k < count; ++k) {
      if (!slot_free(t0 + static_cast<Cycle>(k) * step)) return false;
    }
    return true;
  }

  /// Reserve the write waves of a cell: segment k at t0 + k*step with
  /// address addrs[k]; the cell's head word arrived at the end of a0 (so
  /// segment k's first word arrives at a0 + k*step). Slots must be free.
  void reserve_writes(Cycle t0, Cycle step, AddrSpan addrs, unsigned in_link, Cycle a0);

  /// Reserve the read waves of a cell (slots must be free).
  void reserve_reads(Cycle t0, Cycle step, AddrSpan addrs, unsigned out_link);

  /// Attach snooping reads to already-reserved write slots of the same cell
  /// (same slots, same addresses): same-cycle cut-through.
  void attach_snoop_reads(Cycle t0, Cycle step, AddrSpan addrs, unsigned out_link);

  // Braced-literal conveniences (tests reserve with `{7}`-style lists).
  void reserve_writes(Cycle t0, Cycle step, std::initializer_list<std::uint32_t> a,
                      unsigned in_link, Cycle a0) {
    reserve_writes(t0, step, AddrSpan(a.begin(), a.size()), in_link, a0);
  }
  void reserve_reads(Cycle t0, Cycle step, std::initializer_list<std::uint32_t> a,
                     unsigned out_link) {
    reserve_reads(t0, step, AddrSpan(a.begin(), a.size()), out_link);
  }
  void attach_snoop_reads(Cycle t0, Cycle step, std::initializer_list<std::uint32_t> a,
                          unsigned out_link) {
    attach_snoop_reads(t0, step, AddrSpan(a.begin(), a.size()), out_link);
  }

  /// Remove and return the operation scheduled at cycle t (empty if none).
  SlotOp take(Cycle t) {
    Entry& e = at(t);
    if (e.cycle != t) return SlotOp{};
    SlotOp op = e.op;
    e = Entry{};
    return op;
  }

  /// Invoke fn(cycle, op) on every outstanding reservation. Verification
  /// only: the invariant checker cross-references reserved addresses against
  /// the free list. Entries already consumed by take() are skipped.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : ring_) {
      if (e.cycle >= 0 && !e.op.empty()) fn(e.cycle, e.op);
    }
  }

 private:
  struct Entry {
    Cycle cycle = -1;
    SlotOp op;
  };
  std::size_t horizon_;
  std::vector<Entry> ring_;  ///< bit_ceil(horizon_) entries.
  std::size_t mask_;

  Entry& at(Cycle t) { return ring_[static_cast<std::size_t>(t) & mask_]; }
  const Entry& at(Cycle t) const { return ring_[static_cast<std::size_t>(t) & mask_]; }
  Entry& occupied_at(Cycle t);
};

}  // namespace pmsb
