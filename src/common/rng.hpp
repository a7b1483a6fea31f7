// Deterministic pseudo-random number generation for simulations.
//
// We use xoshiro256** seeded through splitmix64: fast, high quality, and --
// unlike std::mt19937 -- with a representation-stable output sequence across
// standard-library implementations, so recorded experiment results are
// reproducible bit-for-bit anywhere.

#pragma once

#include <bit>
#include <cstdint>

#include "common/util.hpp"

namespace pmsb {

/// splitmix64 single step; also used standalone as a cheap avalanche mixer
/// for deriving cell payload words from a cell id.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless avalanche mix of a single value (splitmix64 finalizer).
constexpr std::uint64_t mix64(std::uint64_t x) {
  std::uint64_t s = x;
  return splitmix64(s);
}

/// xoshiro256** generator. The per-draw members are inline: they sit on
/// every simulator's hot path.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL);

  std::uint64_t next_u64() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound). bound must be > 0. Uses rejection sampling, so
  /// the result is exactly uniform.
  std::uint64_t next_below(std::uint64_t bound) {
    PMSB_CHECK(bound > 0, "next_below(0)");
    // A power of two has threshold -bound % bound == 0, so the first draw
    // always passes and r % bound is its low bits: the same value, without
    // the two divisions.
    if (is_pow2(bound)) return next_u64() & (bound - 1);
    // Lemire-style rejection to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
      const std::uint64_t r = next_u64();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1).
  double next_double() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool next_bool(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return next_double() < p;
  }

  /// Geometric number of failures before first success, success prob p in
  /// (0, 1]. Mean (1-p)/p.
  std::uint64_t next_geometric(double p);

  /// Split off an independent generator (for per-port streams).
  Rng split();

 private:
  std::uint64_t s_[4];
};

}  // namespace pmsb
