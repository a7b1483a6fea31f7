// Shared helpers for the experiment benches: uniform ways to run slot-time
// models across loads, to run the cycle-accurate switches with event-based
// latency capture, and to search buffer sizes for a target loss ratio.
//
// Every bench prints "paper" vs "measured" columns through pmsb::Table so
// EXPERIMENTS.md can quote the output verbatim, AND emits a machine-readable
// BENCH_<name>.json artifact through BenchJson so the perf trajectory of the
// repo is diffable PR over PR (see DESIGN.md "Observability").

#pragma once

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "arch/slot_sim.hpp"
#include "core/switch.hpp"
#include "core/testbench.hpp"
#include "exp/sweep.hpp"
#include "sim/engine.hpp"
#include "obs/build_info.hpp"
#include "obs/json_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "stats/hdr_histogram.hpp"
#include "stats/table.hpp"

namespace pmsb::bench {

/// Process-wide count of simulated time units (slots for slot-time models,
/// cycles for the cycle-accurate switches), accumulated by run_uniform /
/// run_pipelined across all sweep threads. The BenchJson runtime block
/// divides it by wall time to report simulation speed.
inline std::atomic<std::uint64_t>& simulated_units_counter() {
  static std::atomic<std::uint64_t> units{0};
  return units;
}

inline void add_simulated_units(std::uint64_t u) {
  simulated_units_counter().fetch_add(u, std::memory_order_relaxed);
}

inline std::uint64_t simulated_units() {
  return simulated_units_counter().load(std::memory_order_relaxed);
}

/// Result of one slot-model run. Throughput and loss are measured over the
/// post-warmup window only (warmup deliveries would otherwise dilute both).
struct SlotRun {
  double offered = 0;
  double throughput = 0;
  double loss = 0;
  double mean_latency = 0;
  std::uint64_t p50_latency = 0;
  std::uint64_t p90_latency = 0;
  std::uint64_t p99_latency = 0;
  std::uint64_t p999_latency = 0;
  Cycle warmup_slots = 0;
  Cycle measured_slots = 0;
};

/// Run `make_model()` under uniform Bernoulli traffic at `load` for `slots`
/// slots, the first `warmup_fraction` of which are warmup: latency samples
/// of cells injected during warmup are discarded (LatencyStats semantics),
/// and throughput/loss are normalized over the post-warmup window only.
template <typename MakeModel>
SlotRun run_uniform(MakeModel&& make_model, unsigned n, double load, Cycle slots,
                    std::uint64_t seed, double warmup_fraction = 0.2) {
  PMSB_CHECK(warmup_fraction >= 0.0 && warmup_fraction < 1.0,
             "warmup fraction must be in [0, 1)");
  auto model = make_model();
  UniformDest dests(n);
  SlotTraffic traffic(n, load, &dests, Rng(seed));
  const Cycle warmup = static_cast<Cycle>(static_cast<double>(slots) * warmup_fraction);
  model->set_warmup(warmup);
  for (Cycle s = 0; s < warmup; ++s) model->step(s, traffic.step());
  const FlowCounts at_warmup = model->counts();
  for (Cycle s = warmup; s < slots; ++s) model->step(s, traffic.step());
  const FlowCounts end = model->counts();

  const std::uint64_t delivered = end.delivered - at_warmup.delivered;
  const std::uint64_t injected = end.injected - at_warmup.injected;
  const std::uint64_t dropped = end.dropped - at_warmup.dropped;
  SlotRun r;
  r.offered = load;
  r.warmup_slots = warmup;
  r.measured_slots = slots - warmup;
  r.throughput =
      normalized_throughput(delivered, n, static_cast<std::uint64_t>(r.measured_slots));
  r.loss = injected == 0
               ? 0.0
               : static_cast<double>(dropped) / static_cast<double>(injected);
  r.mean_latency = model->latency().mean();
  r.p50_latency = model->latency().p50();
  r.p90_latency = model->latency().p90();
  r.p99_latency = model->latency().p99();
  r.p999_latency = model->latency().p999();
  add_simulated_units(static_cast<std::uint64_t>(slots));
  return r;
}

/// Smallest capacity parameter in [lo, hi] for which the measured loss ratio
/// is <= target (the capacity -> loss mapping must be monotone).
template <typename LossFn>
std::size_t min_capacity_for_loss(LossFn&& loss_at, std::size_t lo, std::size_t hi,
                                  double target) {
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (loss_at(mid) <= target)
      hi = mid;
    else
      lo = mid + 1;
  }
  return lo;
}

/// Cycle-accurate run of the pipelined switch capturing head latency from
/// read-grant events (tr + 1 - a0): no scoreboard overhead, suitable for
/// long statistical runs. Buffer/queue occupancy comes from the obs layer:
/// the run attaches a MetricsRegistry and samples every 64 cycles.
struct CycleRun {
  SwitchStats stats;
  LatencyStats head_latency{0};
  /// Mean of (tr - a0 - 1): delay beyond the minimum-possible initiation.
  double mean_extra_initiation_delay = 0;
  double output_utilization = 0;
  std::uint32_t buffer_peak = 0;          ///< Free-list occupancy high-water.
  double mean_buffer_occupancy = 0;       ///< Sampled free-list in_use mean.
  double mean_queue_depth = 0;            ///< Sampled total output-queue depth.
  std::uint64_t stalled_read_initiations = 0;
};

inline CycleRun run_pipelined(const SwitchConfig& cfg, const TrafficSpec& spec, Cycle cycles,
                              Cycle warmup = 0) {
  PipelinedTestbench tb(cfg, cfg.n_ports, cfg.cell_format(), spec, /*scoreboard=*/false);
  obs::MetricsRegistry metrics;
  tb.dut().register_metrics(metrics);
  tb.engine().set_metrics(&metrics, /*period=*/64);
  CycleRun out;
  out.head_latency.set_warmup(warmup);
  std::uint64_t grants = 0;
  std::uint64_t grants_measured = 0;  ///< Read grants issued after warmup.
  std::int64_t extra_sum = 0;
  SwitchEvents ev;
  ev.on_read_grant = [&](unsigned, unsigned, Cycle tr, Cycle, Cycle a0, bool) {
    out.head_latency.record(a0, tr + 1);  // Head word appears at tr + 1.
    if (tr >= warmup) ++grants_measured;
    if (a0 >= warmup) {
      ++grants;
      extra_sum += (tr - a0 - 1);
    }
  };
  const Subscription ev_sub = tb.dut().events().subscribe(std::move(ev));
  tb.run(cycles);
  out.stats = tb.dut().stats();
  out.mean_extra_initiation_delay =
      grants == 0 ? 0.0 : static_cast<double>(extra_sum) / static_cast<double>(grants);
  // Utilization over the post-warmup window only: grants issued during
  // warmup belong to the transient being discarded, and dividing by the
  // total cycle count diluted the utilization of warm runs.
  const Cycle measured_cycles = cycles - warmup;
  out.output_utilization =
      measured_cycles <= 0
          ? 0.0
          : static_cast<double>(grants_measured) * cfg.cell_words /
                (static_cast<double>(cfg.n_ports) * static_cast<double>(measured_cycles));
  out.buffer_peak = tb.dut().buffer_peak();
  if (const obs::GaugeStats* g = metrics.find_gauge("switch.free_list.in_use"))
    out.mean_buffer_occupancy = g->mean();
  if (const obs::GaugeStats* g = metrics.find_gauge("switch.out_queues.total_depth"))
    out.mean_queue_depth = g->mean();
  if (const obs::Counter* c = metrics.find_counter("switch.stalled_read_initiations"))
    out.stalled_read_initiations = c->value();
  add_simulated_units(static_cast<std::uint64_t>(cycles));
  return out;
}

/// Accumulates one bench's machine-readable output and writes it as
/// BENCH_<name>.json (into $PMSB_BENCH_JSON_DIR if set, else the cwd).
///
/// The "metrics" object always carries the keys `throughput`,
/// `mean_latency`, `occupancy`, and the latency percentile keys
/// `p50_latency` / `p90_latency` / `p99_latency` / `p999_latency` (0 when an
/// experiment has no meaningful value for one of them, e.g. the pure area
/// models) so downstream tooling can diff a fixed schema; benches add any
/// further named metrics on top. Schema version 2 (v1 lacked the percentile
/// keys, build provenance, and the optional "timeseries" section).
class BenchJson {
 public:
  static constexpr int kSchemaVersion = 2;

  explicit BenchJson(std::string name) : name_(std::move(name)) {
    metric("throughput", 0.0);
    metric("mean_latency", 0.0);
    metric("occupancy", 0.0);
    metric("p50_latency", 0.0);
    metric("p90_latency", 0.0);
    metric("p99_latency", 0.0);
    metric("p999_latency", 0.0);
  }

  /// Set (or overwrite) one scalar metric.
  void metric(const std::string& key, double v) {
    for (auto& m : metrics_) {
      if (m.first == key) {
        m.second = v;
        return;
      }
    }
    metrics_.emplace_back(key, v);
  }

  /// Fill the schema's latency percentile keys from an HDR histogram.
  void latency_percentiles(const HdrHistogram& h) {
    metric("p50_latency", static_cast<double>(h.p50()));
    metric("p90_latency", static_cast<double>(h.p90()));
    metric("p99_latency", static_cast<double>(h.p99()));
    metric("p999_latency", static_cast<double>(h.p999()));
  }

  /// Named percentile metrics "<prefix> p50/p99/p999" (e.g. per flight
  /// stage) on top of the fixed schema keys.
  void percentile_metrics(const std::string& prefix, const HdrHistogram& h) {
    metric(prefix + " p50", static_cast<double>(h.p50()));
    metric(prefix + " p99", static_cast<double>(h.p99()));
    metric(prefix + " p999", static_cast<double>(h.p999()));
  }

  /// Capture a printed table verbatim (headers + string cells).
  void add_table(const std::string& title, const Table& t) {
    tables_.emplace_back(title, t);
  }

  /// Attach a sampled registry time series, emitted as the artifact's
  /// optional "timeseries" section. Sampling happens on the engine's metric
  /// grid (replayed exactly under idle skipping, identical at any thread
  /// count), so the section stays inside the determinism-diffed surface.
  void set_timeseries(obs::TimeSeriesSampler::Series s) {
    timeseries_ = std::move(s);
    have_timeseries_ = true;
  }

  /// Record how the bench ran: wall time, simulated time units (slots or
  /// cycles) and the sweep width. Emitted as the artifact's "runtime"
  /// object -- excluded from determinism diffs, which compare only
  /// "metrics" and "tables".
  void set_runtime(double wall_seconds, std::uint64_t units, unsigned threads) {
    wall_seconds_ = wall_seconds;
    units_ = units;
    threads_ = threads;
  }

  /// Add a named scalar to the "runtime" object. This is where
  /// timing-dependent values (per-sweep slots/s, speedups) belong: the
  /// runtime object is excluded from determinism diffs, while a metric()
  /// must be byte-identical at any thread count.
  void runtime_metric(const std::string& key, double v) {
    for (auto& m : runtime_extra_) {
      if (m.first == key) {
        m.second = v;
        return;
      }
    }
    runtime_extra_.emplace_back(key, v);
  }

  /// One nested object inside "runtime" (e.g. runtime.scheduler). Same
  /// exclusion from determinism diffs as runtime_metric; holds scalars,
  /// strings, string lists, and lists of flat objects (per-worker rows),
  /// emitted in insertion order.
  struct RuntimeBlock {
    using ObjectRow = std::vector<std::pair<std::string, double>>;

    void set(const std::string& key, double v) { numbers_.emplace_back(key, v); }
    void set(const std::string& key, std::string v) {
      strings_.emplace_back(key, std::move(v));
    }
    void set_list(const std::string& key, std::vector<std::string> values) {
      string_lists_.emplace_back(key, std::move(values));
    }
    void set_objects(const std::string& key, std::vector<ObjectRow> rows) {
      object_lists_.emplace_back(key, std::move(rows));
    }

    void emit(obs::JsonWriter& w) const {
      for (const auto& s : strings_) w.field(s.first, s.second);
      for (const auto& n : numbers_) w.field(n.first, n.second);
      for (const auto& l : string_lists_) {
        w.key(l.first).begin_array();
        for (const auto& v : l.second) w.value(v);
        w.end_array();
      }
      for (const auto& o : object_lists_) {
        w.key(o.first).begin_array();
        for (const ObjectRow& row : o.second) {
          w.begin_object();
          for (const auto& f : row) w.field(f.first, f.second);
          w.end_object();
        }
        w.end_array();
      }
    }

   private:
    std::vector<std::pair<std::string, double>> numbers_;
    std::vector<std::pair<std::string, std::string>> strings_;
    std::vector<std::pair<std::string, std::vector<std::string>>> string_lists_;
    std::vector<std::pair<std::string, std::vector<ObjectRow>>> object_lists_;
  };

  /// Get-or-create the named nested runtime object ("runtime.<name>").
  RuntimeBlock& runtime_block(const std::string& name) {
    for (auto& b : runtime_blocks_)
      if (b.first == name) return b.second;
    runtime_blocks_.emplace_back(name, RuntimeBlock{});
    return runtime_blocks_.back().second;
  }

  /// Convenience: stamp the runtime block from a bench's top-level timer,
  /// the process-wide simulated-unit counter, and the resolved sweep width.
  void finish_runtime(const exp::WallTimer& timer) {
    set_runtime(timer.seconds(), simulated_units(), exp::thread_count());
  }

  std::string json() const {
    obs::JsonWriter w;
    w.begin_object();
    w.field("bench", name_);
    w.field("schema_version", kSchemaVersion);
    w.key("metrics").begin_object();
    for (const auto& m : metrics_) w.field(m.first, m.second);
    w.end_object();
    w.key("runtime").begin_object();
    w.field("wall_seconds", wall_seconds_);
    w.field("simulated_slots", units_);
    w.field("slots_per_second",
            wall_seconds_ > 0.0 ? static_cast<double>(units_) / wall_seconds_ : 0.0);
    w.field("threads", threads_);
    // Build provenance: which toolchain/commit produced this artifact.
    // Runtime-only by design (varies between checkouts; diffs strip it).
    w.field("compiler", obs::build_compiler());
    w.field("flags", obs::build_flags());
    w.field("git_sha", obs::build_git_sha());
    for (const auto& m : runtime_extra_) w.field(m.first, m.second);
    for (const auto& [bname, block] : runtime_blocks_) {
      w.key(bname).begin_object();
      block.emit(w);
      w.end_object();
    }
    w.end_object();
    w.key("tables").begin_array();
    for (const auto& [title, t] : tables_) {
      w.begin_object();
      w.field("title", title);
      w.key("headers").begin_array();
      for (const auto& h : t.headers()) w.value(h);
      w.end_array();
      w.key("rows").begin_array();
      for (std::size_t r = 0; r < t.rows(); ++r) {
        w.begin_array();
        for (std::size_t c = 0; c < t.cols(); ++c) w.value(t.cell(r, c));
        w.end_array();
      }
      w.end_array();
      w.end_object();
    }
    w.end_array();
    if (have_timeseries_) {
      w.key("timeseries").begin_object();
      w.key("counter_columns").begin_array();
      for (const auto& c : timeseries_.counter_columns) w.value(c);
      w.end_array();
      w.key("gauge_columns").begin_array();
      for (const auto& g : timeseries_.gauge_columns) w.value(g);
      w.end_array();
      w.field("dropped", timeseries_.dropped);
      // Rows: [t, counter deltas..., gauge values...] in column order.
      w.key("rows").begin_array();
      for (const auto& row : timeseries_.rows) {
        w.begin_array();
        w.value(std::int64_t{row.t});
        for (const std::uint64_t d : row.counter_deltas) w.value(d);
        for (const double g : row.gauges) w.value(g);
        w.end_array();
      }
      w.end_array();
      w.end_object();
    }
    w.end_object();
    return w.str();
  }

  /// Output directory for artifacts: Main's --json-out flag wins, then
  /// $PMSB_BENCH_JSON_DIR, then the cwd.
  static std::string& out_dir_override() {
    static std::string dir;
    return dir;
  }

  /// Directory for Chrome/Perfetto trace files: Main's --trace-out flag
  /// wins, then $PMSB_TRACE_OUT. Empty = tracing off (benches skip the
  /// export entirely).
  static std::string& trace_dir_override() {
    static std::string dir;
    return dir;
  }

  /// "<trace dir>/TRACE_<name>.json", or "" when tracing is off.
  std::string trace_path() const {
    std::string dir = trace_dir_override();
    if (dir.empty()) {
      if (const char* env = std::getenv("PMSB_TRACE_OUT")) dir = env;
    }
    if (dir.empty()) return "";
    return dir + "/TRACE_" + name_ + ".json";
  }

  /// Write BENCH_<name>.json; returns false (with a message) on I/O errors.
  bool write() const {
    std::string path = "BENCH_" + name_ + ".json";
    if (!out_dir_override().empty())
      path = out_dir_override() + "/" + path;
    else if (const char* dir = std::getenv("PMSB_BENCH_JSON_DIR"))
      path = std::string(dir) + "/" + path;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: could not open %s for writing\n", path.c_str());
      return false;
    }
    const std::string doc = json();
    // A short write or failed close (full disk, dead NFS mount) must not
    // masquerade as a published artifact: CI diffs these files.
    const bool wrote = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
                       std::fputc('\n', f) != EOF;
    const bool closed = std::fclose(f) == 0;
    if (!wrote || !closed) {
      std::fprintf(stderr, "warning: failed writing %s (disk full?)\n", path.c_str());
      std::remove(path.c_str());
      return false;
    }
    std::printf("\n[bench-json] wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::pair<std::string, Table>> tables_;
  double wall_seconds_ = 0;
  std::uint64_t units_ = 0;
  unsigned threads_ = 1;
  std::vector<std::pair<std::string, double>> runtime_extra_;
  std::vector<std::pair<std::string, RuntimeBlock>> runtime_blocks_;
  obs::TimeSeriesSampler::Series timeseries_;
  bool have_timeseries_ = false;
};

/// Everything a bench body gets from Main: the artifact under construction,
/// the resolved seed, the resolved skip/topology knobs, and the argv
/// remainder (common flags consumed).
struct BenchContext {
  BenchJson json;
  std::uint64_t seed = 1;
  int argc = 0;
  char** argv = nullptr;

  /// Resolved idle-skip switch (0/1): --idle-skip flag, else
  /// PMSB_IDLE_SKIP, else on. Installed process-wide before the body runs.
  int idle_skip = 1;
  /// --fast-nodes N (else $PMSB_FAST_NODES): how many fabric nodes a bench
  /// should mark fast (validated-model substitution), -1 = bench default.
  /// Interpretation is per-bench; Main only resolves the value.
  int fast_nodes = -1;
  /// --lanes N (else $PMSB_LANES): virtual-channel count override for
  /// wormhole benches, 0 = bench default (sweep or config value).
  unsigned lanes = 0;
};

/// Banner + artifact identity of one bench binary.
struct BenchSpec {
  const char* banner_id;     ///< Table banner id, e.g. "E1".
  const char* banner_title;  ///< Table banner title line.
  const char* json_name;     ///< BENCH_<json_name>.json artifact name.
  std::uint64_t default_seed = 1;  ///< ctx.seed when --seed is absent.
};

/// Shared entry point for every bench binary: parses the common flags
/// (--threads N for the sweep width, --json-out DIR for the artifact
/// directory, --trace-out DIR for Chrome/Perfetto trace files, --seed N),
/// prints the banner, runs `body`, then stamps the
/// runtime block and writes the artifact. Flags are consumed; the remainder
/// is handed to the body as ctx.argc/ctx.argv (bench_sim_speed forwards it
/// to google-benchmark). A non-zero return from the body skips the artifact.
///
///   int main(int argc, char** argv) {
///     return bench::Main(argc, argv, {"E1", "saturation ...", "e1_saturation"},
///                        [](bench::BenchContext& ctx) {
///       BenchJson& bj = ctx.json;
///       ...
///       return 0;
///     });
///   }
inline int Main(int argc, char** argv, const BenchSpec& spec,
                const std::function<int(BenchContext&)>& body) {
  const exp::WallTimer timer;
  BenchContext ctx{BenchJson(spec.json_name), spec.default_seed, 0, nullptr,
                   /*idle_skip=*/1, /*fast_nodes=*/-1, /*lanes=*/0};

  std::vector<char*> rest;
  if (argc > 0) rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const char* val = nullptr;
    const auto match = [&](const char* flag) {
      const std::size_t n = std::strlen(flag);
      if (std::strcmp(a, flag) == 0) {
        if (i + 1 < argc) val = argv[++i];
        return true;
      }
      if (std::strncmp(a, flag, n) == 0 && a[n] == '=') {
        val = a + n + 1;
        return true;
      }
      return false;
    };
    const auto parse_long = [&](long lo, long hi, long* out) {
      if (val == nullptr) return false;
      char* end = nullptr;
      const long v = std::strtol(val, &end, 10);
      if (end == val || *end != '\0' || v < lo || v > hi) return false;
      *out = v;
      return true;
    };
    long v = 0;
    if (match("--threads")) {
      if (parse_long(1, 1 << 20, &v)) exp::set_thread_override(static_cast<unsigned>(v));
    } else if (match("--json-out")) {
      if (val != nullptr) BenchJson::out_dir_override() = val;
    } else if (match("--trace-out")) {
      if (val != nullptr) BenchJson::trace_dir_override() = val;
    } else if (match("--seed")) {
      if (val != nullptr) {
        char* end = nullptr;
        const unsigned long long s = std::strtoull(val, &end, 10);
        if (end != val && *end == '\0') ctx.seed = s;
      }
    } else if (match("--idle-skip")) {
      if (parse_long(0, 1, &v)) Engine::set_idle_skip_override(static_cast<int>(v));
    } else if (match("--fast-nodes")) {
      if (parse_long(0, 1L << 30, &v)) ctx.fast_nodes = static_cast<int>(v);
    } else if (match("--lanes")) {
      if (parse_long(1, 32, &v)) ctx.lanes = static_cast<unsigned>(v);
    } else {
      rest.push_back(argv[i]);
    }
  }
  ctx.argc = static_cast<int>(rest.size());
  ctx.argv = rest.data();

  // Environment fallbacks for flags that stayed at their "unset" value.
  const auto env_long = [](const char* name, long lo, long hi, long* out) {
    const char* e = std::getenv(name);
    if (e == nullptr) return false;
    char* end = nullptr;
    const long v = std::strtol(e, &end, 10);
    if (end == e || *end != '\0' || v < lo || v > hi) return false;
    *out = v;
    return true;
  };
  long ev = 0;
  if (ctx.fast_nodes < 0 && env_long("PMSB_FAST_NODES", 0, 1L << 30, &ev))
    ctx.fast_nodes = static_cast<int>(ev);
  if (ctx.lanes == 0 && env_long("PMSB_LANES", 1, 32, &ev))
    ctx.lanes = static_cast<unsigned>(ev);

  // Resolve (flag beats env beats default) and echo the effective config.
  // STDERR, not stdout: the determinism CI diffs stdout across thread
  // counts, and --threads would otherwise perturb the byte stream.
  ctx.idle_skip = Engine::idle_skip_env_default() ? 1 : 0;
  std::fprintf(stderr,
               "[bench-config] threads=%u idle_skip=%d fast_nodes=%d lanes=%u seed=%llu\n",
               exp::thread_count(), ctx.idle_skip, ctx.fast_nodes,
               ctx.lanes, static_cast<unsigned long long>(ctx.seed));

  print_banner(spec.banner_id, spec.banner_title);
  const int rc = body(ctx);
  if (rc != 0) return rc;
  ctx.json.finish_runtime(timer);
  ctx.json.write();
  return 0;
}

}  // namespace pmsb::bench
