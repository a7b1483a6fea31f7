// Differential fuzzer (src/check/): drive randomized traffic/config points
// through every switch model, cross-check them, and on failure shrink the
// witness to a .repro.json for tools/replay_repro.
//
//   fuzz_differential [--runs N] [--seconds S] [--seed X] [--out DIR]
//                     [--jobs J] [--fault K]
//
// Two phases:
//   1. Fixed corpus: N deterministic specs (default 500) derived from
//      --seed, sweeping n in {2,4,8,16}, single- and multi-segment cells,
//      all destination patterns, loads, capacities, and anti-hogging limits.
//      The same seed always fuzzes the same corpus (CI reproducibility).
//   2. Fresh seeds: wall-clock-bounded extra runs (--seconds, default 0)
//      with time-derived seeds, for continuous background fuzzing.
//
// --fault K injects FaultPlan{suppress_write_grant_period=K} into every run
// (a deliberately broken arbiter) to demonstrate the detect -> minimize ->
// replay loop end to end.
//
// Exit status: 0 = all runs clean, 1 = at least one failure (repro files
// written to --out), 2 = usage error (an unknown flag, or a value that is
// not a whole number in range: --jobs takes 1..1024).

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <system_error>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "check/differential.hpp"
#include "check/minimize.hpp"
#include "check/repro.hpp"
#include "common/rng.hpp"
#include "exp/thread_pool.hpp"

namespace {

using pmsb::check::FuzzSpec;

/// Deterministic corpus point `i` under `base_seed`. Structural axes (ports,
/// segments) cycle deterministically so every combination is covered even in
/// small corpora; the stochastic axes come from a per-point RNG.
FuzzSpec corpus_spec(unsigned i, std::uint64_t base_seed) {
  static const unsigned kPorts[] = {2, 4, 8, 16};
  static const unsigned kSlots[] = {160, 120, 80, 48};
  FuzzSpec s;
  const unsigned pi = i % 4;
  s.n = kPorts[pi];
  s.slots = kSlots[pi];
  s.segments = ((i / 4) % 2 == 0) ? 1 : 2;  // Single- and multi-segment cells.
  pmsb::Rng rng(pmsb::mix64(base_seed + 0x9e3779b9u) ^ pmsb::mix64(i + 1));
  s.pattern = static_cast<unsigned>(rng.next_below(3));
  s.load = 0.3 + 0.65 * rng.next_double();
  s.hot_fraction = 0.3 + 0.6 * rng.next_double();
  s.capacity_cells = 4u << rng.next_below(4);  // 4, 8, 16, 32 cells.
  // SwitchConfig rejects a per-output limit beyond the whole buffer.
  s.out_queue_limit =
      rng.next_below(3) == 0
          ? std::min(2 + static_cast<unsigned>(rng.next_below(6)), s.capacity_cells)
          : 0;
  s.cut_through = rng.next_below(4) != 0;
  s.seed = pmsb::mix64(base_seed ^ (static_cast<std::uint64_t>(i) << 20));
  return s;
}

struct Failure {
  FuzzSpec spec;
  std::vector<pmsb::check::ScheduledCell> cells;
  pmsb::check::RunOutcome outcome;
};

struct Shared {
  std::mutex mu;
  std::vector<Failure> failures;
  std::atomic<unsigned> done{0};
};

void fuzz_one(const FuzzSpec& spec, Shared& shared) {
  std::vector<pmsb::check::ScheduledCell> cells = pmsb::check::generate_cells(spec);
  pmsb::check::RunOutcome outcome = pmsb::check::run(spec, cells);
  if (!outcome.ok) {
    std::lock_guard<std::mutex> lock(shared.mu);
    shared.failures.push_back(Failure{spec, std::move(cells), std::move(outcome)});
  }
  ++shared.done;
}

}  // namespace

int main(int argc, char** argv) {
  unsigned runs = 500;
  unsigned seconds = 0;
  std::uint64_t seed = 1;
  std::string out_dir = ".";
  unsigned jobs = std::max(1u, std::thread::hardware_concurrency());
  unsigned fault = 0;

  const auto reject = [](const char* what, const char* arg) {
    std::fprintf(stderr,
                 "fuzz_differential: %s '%s' (usage: fuzz_differential [--runs N] "
                 "[--seconds S] [--seed X] [--out DIR] [--jobs J] [--fault K])\n",
                 what, arg != nullptr ? arg : "");
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const char* val = ++i < argc ? argv[i] : nullptr;  // Every flag takes a value.
    // A whole number in [lo, hi]; anything else is a usage error, so a typo
    // never runs an empty corpus. --seed also takes 0x-prefixed hex.
    const auto parse = [&](int base, unsigned long long lo, unsigned long long hi,
                           auto* out) {
      if (val == nullptr || *val < '0' || *val > '9') return false;
      char* end = nullptr;
      errno = 0;
      const unsigned long long v = std::strtoull(val, &end, base);
      if (*end != '\0' || errno == ERANGE || v < lo || v > hi) return false;
      *out = static_cast<std::remove_pointer_t<decltype(out)>>(v);
      return true;
    };
    constexpr unsigned long long kUnsignedMax = ~0u;
    if (std::strcmp(a, "--runs") == 0) {
      if (!parse(10, 0, kUnsignedMax, &runs)) return reject("bad value for --runs:", val);
    } else if (std::strcmp(a, "--seconds") == 0) {
      if (!parse(10, 0, kUnsignedMax, &seconds)) return reject("bad value for --seconds:", val);
    } else if (std::strcmp(a, "--seed") == 0) {
      if (!parse(0, 0, ~0ull, &seed)) return reject("bad value for --seed:", val);
    } else if (std::strcmp(a, "--jobs") == 0) {
      if (!parse(10, 1, 1024, &jobs)) return reject("bad value for --jobs:", val);
    } else if (std::strcmp(a, "--fault") == 0) {
      if (!parse(10, 0, kUnsignedMax, &fault)) return reject("bad value for --fault:", val);
    } else if (std::strcmp(a, "--out") == 0) {
      if (val == nullptr || *val == '\0') return reject("missing directory for", a);
      out_dir = val;
      std::error_code ec;
      std::filesystem::create_directories(out_dir, ec);  // Best effort; writes report errors.
    } else {
      return reject("unknown argument", a);
    }
  }

  Shared shared;
  unsigned launched = 0;
  {
    pmsb::exp::ThreadPool pool(jobs);
    for (unsigned i = 0; i < runs; ++i) {
      FuzzSpec spec = corpus_spec(i, seed);
      spec.fault_suppress_write_period = fault;
      pool.submit([spec, &shared] { fuzz_one(spec, shared); });
      ++launched;
    }
    pool.wait_idle();

    if (seconds > 0) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
      std::uint64_t fresh_base = static_cast<std::uint64_t>(
          std::chrono::system_clock::now().time_since_epoch().count());
      unsigned i = 0;
      while (std::chrono::steady_clock::now() < deadline) {
        // Batch per pool width so the deadline is checked often.
        for (unsigned b = 0; b < jobs; ++b, ++i) {
          FuzzSpec spec = corpus_spec(i, pmsb::mix64(fresh_base));
          spec.seed = pmsb::mix64(fresh_base ^ (static_cast<std::uint64_t>(i) << 24) ^ 0xf5e5u);
          spec.fault_suppress_write_period = fault;
          pool.submit([spec, &shared] { fuzz_one(spec, shared); });
          ++launched;
        }
        pool.wait_idle();
      }
    }
  }

  std::printf("fuzz_differential: %u runs, %zu failures\n", launched,
              shared.failures.size());
  if (shared.failures.empty()) return 0;

  unsigned written = 0;
  for (const Failure& f : shared.failures) {
    pmsb::check::MinimizeStats mstats;
    pmsb::check::Repro repro =
        pmsb::check::minimize(f.spec, f.cells, f.outcome, 400, &mstats);
    const std::string path =
        out_dir + "/fuzz_" + std::to_string(repro.spec.seed) + ".repro.json";
    std::string err;
    if (!pmsb::check::write_repro_file(repro, path, &err)) {
      std::fprintf(stderr, "fuzz_differential: %s\n", err.c_str());
      continue;
    }
    ++written;
    std::printf("FAILURE [%s] %s\n  minimized %zu -> %zu cells in %u runs -> %s\n",
                repro.category.c_str(), repro.first_issue.c_str(), mstats.cells_before,
                mstats.cells_after, mstats.runs, path.c_str());
    if (written >= 16) {
      std::printf("  ... suppressing repro output for %zu further failures\n",
                  shared.failures.size() - written);
      break;
    }
  }
  return 1;
}
