#!/usr/bin/env python3
"""Build and run pmsb_perf, the repository's performance benchmark.

Every mode first builds bench/perf (a standalone CMake project pinned to
-O3 -DNDEBUG) into build-perf/ at the repository root, then runs each
workload in its own pmsb_perf process. Every PMSB_* variable is removed from
the environment of those processes, so the library runs with its defaults;
the removed variables are recorded in the results.

  run.py --workload W --seed N --seconds S --trace 0|1 [--out FILE]
      One workload. The last line of stdout is one JSON object with the keys
      correct, attempted, failed and metrics: the end-to-end metrics of
      BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.
      --out also writes the full result (simulated metrics, samples, checks).
  run.py [--seed N] [--seconds S] [--layers] [--out FILE]
      Every workload. Prints "workload metric value unit" lines and writes one
      JSON file (default build-perf/results-seed<N>.json). --layers
      adds the layer micro-suite and a traced pass per workload.
  run.py --smoke
      Every workload and every check, 4 chunks of a tenth of the chunk
      length each (CI).
  run.py --write-golden
      Regenerate golden.json from seed-1 runs (only for a change that is
      meant to alter simulated results).

The exit status is non-zero when any correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / "build-perf"
BINARY = BUILD / "pmsb_perf"
GOLDEN = HERE / "golden.json"
TRACED_CHUNKS = 10
TRACE_SETUP_REPS = 3
CHILD_TIMEOUT_S = 170

# Printed beside the BENCHMARK.json metrics but not bounded there: wall_s is a
# sum of host time that carries every host stall (README.md "Bounds"), and
# the simulated metrics are checked against golden.json instead.
EXTRA_UNITS = {
    "wall_s": "s",
    "node_cycles_per_s_median": "node-cycles/s",
}
SIMULATED_UNITS = {
    "carried_load": "link-rate",
    "latency_p50_cycles": "cycles",
    "latency_p99_cycles": "cycles",
    "latency_samples": "count",
    "loss_ratio": "ratio",
}


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def benchmark_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")


def workload_names(spec):
    return [w["name"] for w in spec["workloads"]]


def child_env():
    """The environment without PMSB_* (the library reads its defaults from
    those), plus what was removed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PMSB_")}
    stripped = {k: v for k, v in os.environ.items() if k.startswith("PMSB_")}
    # Keep git (run by the library's CMake for build provenance) from
    # searching above the checkout.
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env, stripped


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found at {ROOT / 'src'}; run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    env, _ = child_env()
    jobs = str(min(4, os.cpu_count() or 1))
    log_path = BUILD / "build.log"
    with open(log_path, "w") as log:
        steps = [["cmake", "--build", str(BUILD), "-j", jobs]]
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, env=env).returncode:
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed: {' '.join(cmd)} (log: {log_path})")


def pmsb_perf(*args):
    """Run pmsb_perf; returns (exit status, its JSON result)."""
    env, _ = child_env()
    try:
        p = subprocess.run([str(BINARY), *map(str, args)], stdout=subprocess.PIPE, env=env,
                           text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"pmsb_perf {' '.join(map(str, args))} timed out after {CHILD_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    if not lines:
        fail(f"pmsb_perf {' '.join(map(str, args))} printed nothing (exit {p.returncode})")
    try:
        return p.returncode, json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"pmsb_perf {' '.join(map(str, args))} printed no JSON result")


def measure(workload, seed, seconds):
    """The untraced end-to-end run of one workload."""
    rc, res = pmsb_perf("--workload", workload, "--seed", seed, "--seconds", seconds)
    res["correct"] = res["correct"] and rc == 0
    return res


def layers():
    rc, res = pmsb_perf("--layers")
    if rc:
        fail("layer micro-suite failed")
    return res


def validate_trace(path):
    tool = ROOT / "tools" / "validate_perfetto.py"
    p = subprocess.run([sys.executable, str(tool), str(path)], stdout=subprocess.PIPE,
                       stderr=subprocess.STDOUT, text=True)
    return p.returncode == 0, p.stdout.strip()


def traced(workload, seed, suite):
    """The traced pass: an untraced and a traced run of TRACED_CHUNKS chunks,
    priced with the micro-suite's unit costs."""
    common = ["--workload", workload, "--seed", seed, "--chunks", TRACED_CHUNKS,
              "--setup-reps", TRACE_SETUP_REPS]
    rc_plain, plain = pmsb_perf(*common)
    trace_dir = BUILD / "traces" / f"seed{seed}"
    trace_dir.mkdir(parents=True, exist_ok=True)
    rc_traced, tr = pmsb_perf(*common, "--trace-out", trace_dir)
    valid, report = validate_trace(tr["trace"]["file"])
    t = tr["trace"]
    unit = {name: v["median"] for name, v in suite["layers"].items()}
    explained_ns = sum(count * unit[name] for name, count in t["work"].items())
    metrics = {name: v["median"] for name, v in suite["layers"].items()}
    metrics.update({
        "explained_fraction": explained_ns / t["active_ns"] if t["active_ns"] > 0 else 0.0,
        "trace_overhead_ratio": tr["metrics"]["wall_s"] / plain["metrics"]["wall_s"],
        "host.chunk_ns_p90": t["chunk_ns_p90"],
        "host.chunk_samples": t["chunk_samples"],
    })
    return {
        "correct": rc_plain == 0 and rc_traced == 0 and plain["correct"] and tr["correct"]
        and valid,
        "attempted": tr["checks"]["attempted"],
        "failed": tr["checks"]["failed"] + plain["checks"]["failed"] + (0 if valid else 1),
        "metrics": metrics,
        "trace_file": t["file"],
        "trace_validation": report,
        "counters": t["counters"],
        "work": t["work"],
        "active_ns": t["active_ns"],
    }


def contract_run(args, spec):
    build()
    if args.trace:
        res = traced(args.workload, args.seed, layers())
        wanted = spec["per_layer"]
    else:
        res = measure(args.workload, args.seed, args.seconds)
        res["attempted"] = res["checks"]["attempted"]
        res["failed"] = res["checks"]["failed"]
        if not res["correct"]:
            for note in res["checks"]["notes"]:
                print(f"{args.workload}: {note}", file=sys.stderr)
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in res["metrics"]]
    if missing:
        fail(f"metrics missing from the run: {missing}")
    if args.out:
        Path(args.out).write_text(json.dumps(res, indent=1) + "\n")
    print(json.dumps({
        "correct": bool(res["correct"]),
        "attempted": int(res["attempted"]),
        "failed": int(res["failed"]),
        "metrics": {m["name"]: {"value": res["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if res["correct"] else 1


def all_workloads(args, spec):
    build()
    _, stripped = child_env()
    started = time.time()
    suite = layers() if args.layers else None
    results = {}
    correct = True
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(EXTRA_UNITS)
    for w in workload_names(spec):
        res = measure(w, args.seed, args.seconds)
        sim = {k: float(v) for k, v in res["simulated"].items() if k in SIMULATED_UNITS}
        delivered = max(1, int(res["simulated"]["delivered"]))
        sim["failed_ratio"] = res["checks"]["failed"] / delivered
        rows = [(k, v, units[k]) for k, v in res["metrics"].items()]
        rows += [(k, v, SIMULATED_UNITS.get(k, "ratio")) for k, v in sim.items()]
        entry = {"end_to_end": res, "simulated": sim}
        if suite:
            tr = entry["traced"] = traced(w, args.seed, suite)
            # The micro-suite is workload-independent and printed once below.
            rows += [(k, v, units.get(k, "")) for k, v in tr["metrics"].items()
                     if k not in suite["layers"]]
            rows += [(k, v, "") for k, v in tr["counters"].items()]
        for name, value, unit in rows:
            print(f"{w} {name} {value:.6g} {unit}".rstrip())
        if not res["correct"]:
            for note in res["checks"]["notes"]:
                print(f"{w}: {note}", file=sys.stderr)
        correct = correct and res["correct"] and (not suite or entry["traced"]["correct"])
        results[w] = entry
    if suite:
        for name, s in suite["layers"].items():
            print(f"layers {name} {s['median']:.6g} {units.get(name, '')} "
                  f"(iqr {s['iqr']:.3g}, {s['reps']} reps)")
    out = Path(args.out) if args.out else BUILD / f"results-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "seed": args.seed,
        "seconds": args.seconds,
        "correct": correct,
        "wall_s": time.time() - started,
        "provenance": {
            "nproc": os.cpu_count(),
            "stripped_env": stripped,
            "build": next(iter(results.values()))["end_to_end"]["build"],
        },
        "layers": suite["layers"] if suite else None,
        "workloads": results,
    }, indent=1) + "\n")
    print(f"results written to {out}", file=sys.stderr)
    return 0 if correct else 1


def smoke():
    build()
    rc, res = pmsb_perf("--smoke")
    print(json.dumps(res))
    return 0 if rc == 0 and res.get("correct") else 1


def write_golden(spec):
    build()
    full = {}
    for w in workload_names(spec):
        rc, res = pmsb_perf("--workload", w, "--seed", 1, "--setup-reps", 1, "--no-golden")
        if rc or not res["correct"]:
            fail(f"{w}: checks failed, golden.json left unchanged: {res['checks']['notes']}")
        full[w] = res["simulated"]
    rc, small = pmsb_perf("--smoke", "--no-golden")
    if rc or not small["correct"]:
        fail("smoke checks failed, golden.json left unchanged")
    GOLDEN.write_text(json.dumps({"seed": 1, "full": full, "smoke": small["smoke"]},
                                 indent=2) + "\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
    return 0


def main():
    spec = benchmark_spec()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workload_names(spec))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds per workload run, set-up included (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--layers", action="store_true")
    ap.add_argument("--out")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args()
    if args.smoke:
        return smoke()
    if args.write_golden:
        return write_golden(spec)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload:
        return contract_run(args, spec)
    return all_workloads(args, spec)


if __name__ == "__main__":
    sys.exit(main())
