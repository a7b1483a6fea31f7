// Round-robin arbitration helper.
//
// The switch grants at most one read-wave and (in the dual organization) one
// write-wave initiation per cycle; candidates are selected round-robin so no
// link starves. The starvation bound matters for correctness, not just
// fairness: the no-double-buffering window proof (DESIGN.md, invariant 2)
// relies on each competing link being granted at most once while a pending
// write waits.

#pragma once

#include "common/util.hpp"

namespace pmsb {

class RoundRobin {
 public:
  explicit RoundRobin(unsigned n);

  /// Scan from the pointer; return the first index for which `eligible`
  /// holds and advance the pointer past it, or -1 if none is eligible.
  /// `eligible` is any callable taking an index and returning bool; it is a
  /// template parameter so the per-cycle arbitration loops inline it.
  template <typename Eligible>
  int pick(Eligible&& eligible) {
    unsigned idx = ptr_;
    for (unsigned k = 0; k < n_; ++k) {
      if (eligible(idx)) {
        ptr_ = idx + 1 == n_ ? 0 : idx + 1;
        return static_cast<int>(idx);
      }
      if (++idx == n_) idx = 0;
    }
    return -1;
  }

  unsigned size() const { return n_; }
  unsigned pointer() const { return ptr_; }

 private:
  unsigned n_;
  unsigned ptr_ = 0;
};

}  // namespace pmsb
