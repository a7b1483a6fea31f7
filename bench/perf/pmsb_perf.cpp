// pmsb_perf: the repository's performance benchmark program.
//
//   pmsb_perf --workload NAME [--seed N] [--seconds S] [--chunks N]
//             [--setup-reps N] [--trace-out DIR] [--no-golden]
//   pmsb_perf --layers
//   pmsb_perf --smoke [--no-golden]
//   pmsb_perf --list
//
// A workload run has three phases: setup (the build plus the first run(1)),
// warm-up chunks (untimed), and timed run() chunks of a fixed cycle count,
// each one sample. wall_s, system_rss_mb and every simulated metric are read
// after exactly --chunks timed chunks, so they do not depend on host speed.
// After that point the run goes on until the process has run for --seconds
// in all: further timed chunks add samples for node_cycles_per_s, and
// between them the remaining throwaway builds add samples for setup_s (the
// median of --setup-reps fresh builds, the measured system being the first).
//
// Simulated metrics are compared with golden.json for seed 1 unless
// --no-golden is given (how run.py --write-golden regenerates it). Each mode
// prints one JSON object on the last line of stdout. The exit status is
// non-zero when a correctness check failed. run.py builds this binary and is
// the supported entry point (README.md).

#include <malloc.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perf.hpp"

#include "obs/build_info.hpp"
#include "obs/json_writer.hpp"

namespace pmsb::perf {

Summary summarize(std::vector<double> xs) {
  Summary s;
  s.n = xs.size();
  if (xs.empty()) return s;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  s.median = n % 2 ? xs[n / 2] : (xs[n / 2 - 1] + xs[n / 2]) / 2;
  if (n < 2) {
    s.q1 = s.q3 = s.median;
    return s;
  }
  // statistics.quantiles(xs, n=4, method="exclusive").
  auto quartile = [&](std::size_t i) {
    const std::size_t m = n + 1;
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (xs[j - 1] * (4 - delta) + xs[j] * delta) / 4;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

void Spans::to_perfetto(obs::PerfettoTrace& tr, unsigned tid, const std::string& track,
                        std::int64_t origin_ns) const {
  tr.set_track_name(tid, track);
  for (const Span& s : spans_)
    tr.complete((s.start_ns - origin_ns) / 1000, (s.end_ns - s.start_ns) / 1000, tid, s.name);
}

std::vector<std::pair<std::string, std::string>> Simulated::exact() const {
  auto real = [](double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return std::string(buf);
  };
  char digest_hex[20];
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(digest));
  return {{"carried_load", real(carried_load)},
          {"latency_p50_cycles", std::to_string(latency_p50)},
          {"latency_p99_cycles", std::to_string(latency_p99)},
          {"latency_samples", std::to_string(latency_samples)},
          {"loss_ratio", real(loss_ratio)},
          {"injected", std::to_string(injected)},
          {"delivered", std::to_string(delivered)},
          {"dropped", std::to_string(dropped)},
          {"digest", digest_hex}};
}

namespace {

constexpr std::uint64_t kGoldenSeed = 1;
constexpr unsigned kLayerReps = 10;

// ---------------------------------------------------------------------------
// golden.json: {"seed": 1, "full": {workload: {field: "text"}}, "smoke": ...}.
// A reader for exactly that shape (nested objects of strings and numbers).
// The simulated results are pinned for one seed; other seeds are checked for
// payload and conservation only.
// ---------------------------------------------------------------------------

struct GoldenNode {
  std::string text;
  std::map<std::string, GoldenNode> fields;
};

class GoldenReader {
 public:
  explicit GoldenReader(std::string s) : s_(std::move(s)) {}

  bool parse(GoldenNode* out) {
    if (!value(out)) return false;
    skip_ws();
    return i_ == s_.size();
  }

 private:
  void skip_ws() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) ++i_;
  }
  bool string(std::string* out) {
    if (i_ >= s_.size() || s_[i_] != '"') return false;
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\' && i_ + 1 < s_.size()) ++i_;
      out->push_back(s_[i_++]);
    }
    if (i_ >= s_.size()) return false;
    ++i_;
    return true;
  }
  bool value(GoldenNode* out) {
    skip_ws();
    if (i_ >= s_.size()) return false;
    if (s_[i_] == '"') return string(&out->text);
    if (s_[i_] != '{') {
      while (i_ < s_.size() && (std::isalnum(static_cast<unsigned char>(s_[i_])) ||
                                std::strchr("+-.", s_[i_]) != nullptr))
        out->text.push_back(s_[i_++]);
      return !out->text.empty();
    }
    ++i_;
    skip_ws();
    if (i_ < s_.size() && s_[i_] == '}') {
      ++i_;
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (!string(&key)) return false;
      skip_ws();
      if (i_ >= s_.size() || s_[i_] != ':') return false;
      ++i_;
      if (!value(&out->fields[key])) return false;
      skip_ws();
      if (i_ < s_.size() && s_[i_] == ',') {
        ++i_;
        continue;
      }
      if (i_ < s_.size() && s_[i_] == '}') {
        ++i_;
        return true;
      }
      return false;
    }
  }

  std::string s_;
  std::size_t i_ = 0;
};

/// Compare `sim` with golden[section][workload] in bench/perf/golden.json;
/// returns the mismatching fields (a missing file or entry is one mismatch).
std::vector<std::string> golden_mismatches(const std::string& section,
                                           const std::string& workload, const Simulated& sim) {
  const std::string path = PMSB_PERF_GOLDEN;
  std::ifstream in(path);
  if (!in) return {"golden file " + path + " unreadable"};
  std::stringstream buf;
  buf << in.rdbuf();
  GoldenNode root;
  if (!GoldenReader(buf.str()).parse(&root)) return {"golden file " + path + " malformed"};
  const auto sec = root.fields.find(section);
  if (sec == root.fields.end()) return {"golden file has no '" + section + "' section"};
  const auto entry = sec->second.fields.find(workload);
  if (entry == sec->second.fields.end()) return {"golden file has no entry for " + workload};
  std::vector<std::string> bad;
  for (const auto& [field, text] : sim.exact()) {
    const auto g = entry->second.fields.find(field);
    const std::string want = g == entry->second.fields.end() ? "<missing>" : g->second.text;
    if (want != text) bad.push_back(field + ": got " + text + ", golden " + want);
  }
  return bad;
}

/// Resident anonymous memory (heap, stacks) of this process, in MiB.
/// Neither getrusage's ru_maxrss, which keeps the peak of the image exec()
/// replaced (for a process started from Python, the interpreter's), nor
/// VmHWM, which counts file pages mapped by fault-around and varied by
/// 64 KiB from run to run.
double anon_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("RssAnon:", 0) == 0) return std::strtod(line.c_str() + 8, nullptr) / 1024.0;
  return 0;
}

/// Workers for the fabric and sweep workloads: half the CPUs, at most 4.
/// With every vCPU busy, interference on any one of them stalls the
/// lockstep engine and the sweep's last point; the idle half lets the OS
/// move a worker off a stolen CPU. On a 4-vCPU VM this halved the
/// run-to-run spread, and each engine still wins one of the two engine
/// workloads at this count (README.md "Bounds", "Findings").
unsigned default_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(hw / 2, 1u, 4u);
}

void write_named(obs::JsonWriter& j, const char* key, const Named& xs) {
  j.key(key).begin_object();
  for (const auto& [k, v] : xs) j.field(k, v);
  j.end_object();
}

/// Counter deltas between two snapshots (same names, same order).
Named minus(const Named& a, const Named& b) {
  Named out;
  for (std::size_t i = 0; i < a.size(); ++i)
    out.push_back({a[i].first, a[i].second - b[i].second});
  return out;
}

/// The q-quantile by nearest rank: the ceil(q * n)-th smallest sample.
double nearest_rank(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(xs.size())));
  return xs[std::clamp<std::size_t>(rank, 1, xs.size()) - 1];
}

void write_build(obs::JsonWriter& j) {
  j.key("build").begin_object();
  j.field("compiler", obs::build_compiler());
  j.field("flags", obs::build_flags());
  j.field("git_sha", obs::build_git_sha());
  j.end_object();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  unsigned chunks = 0;       ///< 0 = the workload's default.
  unsigned setup_reps = 41;
  double seconds = 0;        ///< Wall-clock budget of the whole workload run.
  bool golden = true;        ///< Compare simulated metrics with golden.json.
  std::string trace_out;     ///< Traced pass: write TRACE_<workload>.json here.
};

struct Shape {
  std::int64_t chunk;
  unsigned chunks;
  unsigned warmup_chunks;
  unsigned setup_reps;
  const char* golden_section;  ///< Null = no golden comparison.
};

struct Outcome {
  bool correct = false;
  Simulated sim;
};

/// Run one workload and write its JSON result object into `j`.
Outcome run_workload(const Workload& w, const Options& o, const Shape& shape,
                     obs::JsonWriter& j) {
  const std::int64_t t_start = now_ns();
  const RunParams p{o.seed, default_threads(), shape.chunk};
  Spans spans;
  // The process before the first build: binary, runtime, static data.
  const double rss_base_mb = anon_rss_mb();

  // Setup: the measured system is the first of --setup-reps fresh builds;
  // the others are built and dropped between the extra timed chunks, so
  // setup_s samples the host over seconds, as the chunks do, instead of in
  // one burst whose host phase decides the result (README.md "Bounds").
  std::vector<double> setup_s;
  auto timed_build = [&] {
    // Hand freed pages back to the OS, so every build goes into fresh
    // memory as a process's first build does. Rebuilding into reused heap
    // memory read 19 or 30 us for the same build depending on the process.
    malloc_trim(0);
    const std::int64_t t0 = now_ns();
    std::unique_ptr<System> built = w.build(p);
    const std::int64_t t1 = now_ns();
    setup_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    spans.add("setup (build + run(1))", t0, t1);
    return built;
  };
  const std::unique_ptr<System> sys = timed_build();
  const std::size_t setup_reps = std::max(1u, shape.setup_reps);

  for (unsigned i = 0; i < shape.warmup_chunks; ++i) {
    const std::int64_t t0 = now_ns();
    sys->run_chunk();
    spans.add("warm-up chunk", t0, now_ns());
  }
  sys->mark_warm();
  const Named counters0 = sys->counters();
  const Named work0 = sys->work();
  const double active0 = sys->active_ns();

  std::vector<double> chunk_ns;
  auto timed_chunk = [&] {
    const std::int64_t t0 = now_ns();
    sys->run_chunk();
    const std::int64_t t1 = now_ns();
    chunk_ns.push_back(static_cast<double>(t1 - t0));
    spans.add("chunk " + std::to_string(chunk_ns.size() - 1), t0, t1);
  };
  for (unsigned i = 0; i < shape.chunks; ++i) timed_chunk();
  const std::int64_t t_read = now_ns();
  const Simulated sim = sys->simulated();
  const Named counters1 = sys->counters();
  const Named work1 = sys->work();
  const double active1 = sys->active_ns();
  spans.add("stats read", t_read, now_ns());
  const double wall_s = static_cast<double>(now_ns() - t_start) / 1e9;
  // Read before any throwaway build exists, so only the measured system
  // (and the pool threads it started) is counted.
  const double rss_mb = anon_rss_mb();

  // Extra samples only: nothing above depends on how many run here. The
  // remaining builds are spread over the chunks the budget is expected to
  // leave room for.
  const std::size_t cap = 3 * static_cast<std::size_t>(shape.chunks);
  const double left_ns = o.seconds * 1e9 - static_cast<double>(now_ns() - t_start);
  const double expected =
      chunk_ns.empty() ? 0 : std::clamp(left_ns / summarize(chunk_ns).median, 0.0,
                                        static_cast<double>(cap));
  const std::size_t slots = std::max<std::size_t>(1, static_cast<std::size_t>(expected));
  const std::size_t builds_per_chunk = (setup_reps - setup_s.size() + slots - 1) / slots;
  while (static_cast<double>(now_ns() - t_start) < o.seconds * 1e9 &&
         chunk_ns.size() < shape.chunks + cap) {
    timed_chunk();
    for (std::size_t k = 0; k < builds_per_chunk && setup_s.size() < setup_reps; ++k)
      timed_build();
  }
  while (setup_s.size() < setup_reps) timed_build();
  const Checks checks = sys->check();

  std::string golden_state = "skipped";
  std::vector<std::string> golden_bad;
  if (shape.golden_section != nullptr && o.golden) {
    golden_bad = golden_mismatches(shape.golden_section, w.name, sim);
    golden_state = golden_bad.empty() ? "match" : "mismatch";
  }
  const std::uint64_t failed = checks.failed() + golden_bad.size();
  const bool correct = failed == 0 && checks.attempted > 0;

  const double node_cycles_per_chunk =
      w.node_cycles_per_unit * static_cast<double>(shape.chunk);

  j.begin_object();
  j.field("workload", w.name);
  j.field("seed", o.seed);
  j.field("threads", p.threads);
  j.field("chunk", shape.chunk);
  j.field("chunks", shape.chunks);
  j.field("warmup_chunks", shape.warmup_chunks);
  j.field("setup_reps", static_cast<unsigned>(setup_s.size()));
  j.field("node_cycles_per_chunk", node_cycles_per_chunk);
  j.key("metrics").begin_object();
  // Host interference only ever adds time to a chunk, and on a shared host
  // it comes in phases lasting seconds to minutes, so the median chunk
  // tracks the host more than the simulator; the 10th-percentile chunk is
  // the speed the simulator reaches when left alone (README.md "Bounds").
  j.field("node_cycles_per_s", node_cycles_per_chunk / nearest_rank(chunk_ns, 0.1) * 1e9);
  j.field("node_cycles_per_s_median", node_cycles_per_chunk / summarize(chunk_ns).median * 1e9);
  j.field("wall_s", wall_s);
  j.field("setup_s", summarize(setup_s).median);
  j.field("system_rss_mb", rss_mb - rss_base_mb);
  j.end_object();
  j.key("samples").begin_object();
  j.key("chunk_ns").begin_array();
  for (double v : chunk_ns) j.value(v);
  j.end_array();
  j.key("setup_s").begin_array();
  for (double v : setup_s) j.value(v);
  j.end_array();
  j.end_object();
  j.key("simulated").begin_object();
  for (const auto& [k, v] : sim.exact()) j.field(k, v);
  j.end_object();
  j.key("checks").begin_object();
  j.field("attempted", checks.attempted);
  j.field("failed", failed);
  j.field("payload_errors", checks.payload_errors);
  j.field("order_errors", checks.order_errors);
  j.field("conservation_errors", checks.conservation_errors);
  j.field("golden", golden_state);
  j.key("notes").begin_array();
  for (const std::string& n : checks.notes) j.value(n);
  for (const std::string& n : golden_bad) j.value("golden " + n);
  j.end_array();
  j.end_object();
  j.field("correct", correct);

  if (!o.trace_out.empty()) {
    obs::PerfettoTrace tr;
    spans.to_perfetto(tr, 1, std::string("pmsb_perf ") + w.name + " (wall clock)", t_start);
    sys->to_perfetto(tr, t_start);
    const std::string path = o.trace_out + "/TRACE_" + w.name + ".json";
    tr.write(path);
    j.key("trace").begin_object();
    j.field("file", path);
    j.field("active_ns", active1 - active0);
    j.field("chunk_ns_p90", nearest_rank(chunk_ns, 0.9));
    j.field("chunk_samples", static_cast<unsigned>(chunk_ns.size()));
    write_named(j, "counters", with_ratios(minus(counters1, counters0)));
    write_named(j, "work", minus(work1, work0));
    j.end_object();
  }
  write_build(j);
  j.end_object();
  return Outcome{correct, sim};
}

Shape full_shape(const Workload& w, const Options& o) {
  const bool defaults = o.chunks == 0 || o.chunks == w.chunks;
  return Shape{w.chunk, o.chunks ? o.chunks : w.chunks, w.warmup_chunks, o.setup_reps,
               defaults ? "full" : nullptr};
}

/// Every workload for 4 chunks of a tenth of its chunk length, checked
/// against golden.json's "smoke" section (well under 10 s in total).
Shape smoke_shape(const Workload& w) { return Shape{w.chunk / 10, 4, 1, 3, "smoke"}; }

int usage() {
  std::fprintf(stderr,
               "usage: pmsb_perf --workload NAME [--seed N] [--seconds S] [--chunks N]\n"
               "                 [--setup-reps N] [--trace-out DIR] [--no-golden]\n"
               "       pmsb_perf --layers\n"
               "       pmsb_perf --smoke [--no-golden]\n"
               "       pmsb_perf --list\n");
  return 2;
}

}  // namespace
}  // namespace pmsb::perf

int main(int argc, char** argv) {
  using namespace pmsb::perf;
  Options o;
  std::string mode;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--layers" || a == "--smoke" || a == "--list") {
      mode = a;
    } else if (a == "--no-golden") {
      o.golden = false;
    } else if (a == "--workload" && (v = next())) {
      mode = a;
      o.workload = v;
    } else if (a == "--seed" && (v = next())) {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--chunks" && (v = next())) {
      o.chunks = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (a == "--setup-reps" && (v = next())) {
      o.setup_reps = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (a == "--seconds" && (v = next())) {
      o.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace-out" && (v = next())) {
      o.trace_out = v;
    } else {
      return usage();
    }
  }

  pmsb::obs::JsonWriter j;
  bool ok = true;
  if (mode == "--list") {
    for (const Workload& w : workloads()) std::printf("%s\n", w.name);
    return 0;
  } else if (mode == "--workload") {
    const Workload* w = find_workload(o.workload);
    if (w == nullptr) {
      std::fprintf(stderr, "pmsb_perf: unknown workload '%s' (see --list)\n",
                   o.workload.c_str());
      return 2;
    }
    Shape shape = full_shape(*w, o);
    if (o.seed != kGoldenSeed) shape.golden_section = nullptr;
    ok = run_workload(*w, o, shape, j).correct;
  } else if (mode == "--layers") {
    j.begin_object();
    j.field("reps", kLayerReps);
    j.field("threads", default_threads());
    j.key("layers").begin_object();
    for (const auto& [name, s] : run_layers(kLayerReps, default_threads())) {
      j.key(name).begin_object();
      j.field("median", s.median);
      j.field("q1", s.q1);
      j.field("q3", s.q3);
      j.field("iqr", s.iqr());
      j.field("reps", static_cast<unsigned>(s.n));
      j.end_object();
    }
    j.end_object();
    write_build(j);
    j.end_object();
  } else if (mode == "--smoke") {
    o.seed = kGoldenSeed;
    j.begin_object();
    j.key("smoke").begin_object();
    for (const Workload& w : workloads()) {
      const std::int64_t t0 = now_ns();
      pmsb::obs::JsonWriter one;
      const Outcome r = run_workload(w, o, smoke_shape(w), one);
      ok = ok && r.correct;
      std::fprintf(stderr, "smoke %-20s %s (%.2f s)\n", w.name, r.correct ? "ok" : "FAILED",
                   static_cast<double>(now_ns() - t0) / 1e9);
      if (!r.correct) std::fprintf(stderr, "%s\n", one.str().c_str());
      // Only the simulated metrics: the "smoke" section of golden.json.
      j.key(w.name).begin_object();
      for (const auto& [k, v] : r.sim.exact()) j.field(k, v);
      j.end_object();
    }
    j.end_object();
    j.field("correct", ok);
    j.end_object();
  } else {
    return usage();
  }
  std::printf("%s\n", j.str().c_str());
  return ok ? 0 : 1;
}
