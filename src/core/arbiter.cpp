#include "core/arbiter.hpp"

namespace pmsb {

RoundRobin::RoundRobin(unsigned n) : n_(n) { PMSB_CHECK(n > 0, "round-robin over zero links"); }

}  // namespace pmsb
