#include "exp/sweep.hpp"

#include <cstdlib>
#include <thread>

namespace pmsb::exp {

namespace {

unsigned g_override = 0;

unsigned parse_count(const char* s) {
  if (s == nullptr || *s == '\0') return 0;
  char* end = nullptr;
  const long v = std::strtol(s, &end, 10);
  if (end == s || *end != '\0' || v < 1) return 0;
  return static_cast<unsigned>(v);
}

}  // namespace

void set_thread_override(unsigned threads) { g_override = threads; }

unsigned thread_count() {
  if (g_override >= 1) return g_override;
  if (const unsigned env = parse_count(std::getenv("PMSB_THREADS")); env >= 1) return env;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

}  // namespace pmsb::exp
