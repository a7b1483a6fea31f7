#include "common/rng.hpp"

#include <cmath>

namespace pmsb {

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_geometric(double p) {
  PMSB_CHECK(p > 0.0 && p <= 1.0, "geometric probability out of range");
  if (p >= 1.0) return 0;
  // Inversion: floor(log(U) / log(1-p)) with U in (0,1].
  double u;
  do {
    u = next_double();
  } while (u <= 0.0);
  return static_cast<std::uint64_t>(std::floor(std::log(u) / std::log1p(-p)));
}

Rng Rng::split() { return Rng(next_u64() ^ 0x9e3779b97f4a7c15ULL); }

}  // namespace pmsb
