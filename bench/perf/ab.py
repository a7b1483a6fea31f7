#!/usr/bin/env python3
"""A/B comparison of two commits on the pmsb_perf benchmark.

  ab.py --base REV [--change REV] [--pairs 10] [--seed N] [--seconds S]
        [--workloads a,b,...] [--work DIR]
  ab.py --self-test

Each side is exported from git into its own source tree (the change defaults
to the working tree as it is). Both sides run this checkout's bench/perf and
BENCHMARK.json, so the benchmark code and settings are identical. For every
workload, ab.py runs --pairs pairs of (base, change) runs, alternating which
side goes first, and prints one verdict per workload and end-to-end metric:

  gain        the change wins >= 9/10 of the pairs (ties count for neither)
              and its median beats the base median by more than the base's
              own interquartile range;
  regression  the change's median is worse than the base's by more than the
              metric's bound in BENCHMARK.json;
  unresolved  the run-to-run spread (interquartile range over median) is
              wider than the bound, so "no change" cannot be shown, unless
              every change run beats every base run;
  no change   otherwise;
  failed      a run failed its correctness checks, or the two sides
              simulated different results (a speed-only change must not).

Pass --seed with a seed not used while writing the change to recheck a
claim on held-out inputs. Exit status: 0 when no verdict is "regression" or
"failed", 1 otherwise.
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH_REL = Path("bench") / "perf"


def verdict(base, change, better, bound):
    """Verdict for one metric from paired samples (base[i], change[i])."""
    sign = 1.0 if better == "higher" else -1.0
    n = len(base)
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    mb, mc = statistics.median(base), statistics.median(change)
    qb, qc = statistics.quantiles(base, n=4), statistics.quantiles(change, n=4)
    iqr_base = qb[2] - qb[0]
    gain = sign * (mc - mb)  # > 0: the change's median is better.
    scale = abs(mb) if mb else 1.0
    if wins >= 0.9 * n and gain > iqr_base:
        return "gain"
    all_better = all(sign * (c - b) > 0 for c in change for b in base)
    all_worse = all(sign * (c - b) < 0 for c in change for b in base)
    worse = -gain / scale
    if all_worse and worse > bound:
        return "regression"
    if max(iqr_base, qc[2] - qc[0]) / scale > bound and not all_better:
        return "unresolved"
    if worse > bound:
        return "regression"
    return "no change"


def export_tree(rev, dest):
    """The files of `rev` (or of the working tree for None) under dest."""
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    if rev is None:
        files = subprocess.run(["git", "-C", str(ROOT), "ls-files", "-z", "--cached",
                                "--others", "--exclude-standard"],
                               check=True, capture_output=True).stdout.split(b"\0")
        for f in filter(None, files):
            src = ROOT / f.decode()
            if src.is_file():
                (dest / f.decode()).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(src, dest / f.decode())
        return
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev], stdout=tar,
                       check=True)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as t:
            safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
            t.extractall(dest, **safe)


def install_benchmark(tree):
    """Make `tree` run this checkout's benchmark code and settings."""
    if (tree / BENCH_REL).exists():
        shutil.rmtree(tree / BENCH_REL)
    shutil.copytree(HERE, tree / BENCH_REL,
                    ignore=shutil.ignore_patterns("__pycache__", "*.pyc"))
    shutil.copy2(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")


def run_side(tree, workload, seed, seconds, out_file):
    cmd = [sys.executable, str(tree / BENCH_REL / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0", "--out",
           str(out_file)]
    p = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = p.stdout.strip().splitlines()
    try:
        res = json.loads(lines[-1])
        full = json.loads(out_file.read_text())
    except (IndexError, json.JSONDecodeError, OSError):
        return None, None
    if p.returncode != 0 or not res["correct"]:
        return None, None
    return res["metrics"], full["simulated"]


def describe(xs):
    q = statistics.quantiles(xs, n=4)
    return f"{statistics.median(xs):.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def compare(args):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    work = Path(args.work) if args.work else ROOT / "build-perf" / "ab"
    sides = {}
    for side, rev in (("base", args.base), ("change", args.change)):
        tree = work / side
        export_tree(rev, tree)
        install_benchmark(tree)
        sides[side] = tree
        print(f"[ab] {side}: {rev or 'working tree'} -> {tree}", file=sys.stderr)

    samples = {w: {"base": [], "change": []} for w in workloads}
    failures = {w: [] for w in workloads}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for w in workloads:
            got = {}
            for side in order:
                metrics, sim = run_side(sides[side], w, args.seed, seconds,
                                        work / f"{side}-last.json")
                if metrics is None:
                    failures[w].append(f"pair {i}: {side} run failed its checks")
                    continue
                got[side] = (metrics, sim)
                samples[w][side].append({k: v["value"] for k, v in metrics.items()})
            if len(got) == 2 and got["base"][1] != got["change"][1]:
                failures[w].append(f"pair {i}: simulated results differ")
            print(f"[ab] pair {i + 1}/{args.pairs} {w} done", file=sys.stderr)

    bad = False
    print(f"A/B: base {args.base} vs change {args.change or 'working tree'}, "
          f"{args.pairs} pairs, seed {args.seed}, {seconds} s per run")
    print(f"{'workload':22s} {'metric':18s} {'base median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'wins':>6s}  verdict")
    for w in workloads:
        for m in spec["end_to_end"]:
            name = m["name"]
            base = [s[name] for s in samples[w]["base"]]
            change = [s[name] for s in samples[w]["change"]]
            if failures[w] or len(base) < 2 or len(base) != len(change):
                v, row = "failed", ("-", "-", "-")
            else:
                v = verdict(base, change, m["better"], m["bound"])
                sign = 1 if m["better"] == "higher" else -1
                wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
                row = (describe(base), describe(change), f"{wins}/{len(base)}")
            bad = bad or v in ("regression", "failed")
            print(f"{w:22s} {name:18s} {row[0]:34s} {row[1]:34s} {row[2]:>6s}  {v}")
        for f in failures[w]:
            print(f"  {w}: {f}")
    return 1 if bad else 0


def self_test():
    """Verdicts on synthetic fixtures (no build, no runs)."""
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
    cases = [
        ("identical", base, list(base), "higher", 0.05, "no change"),
        ("small jitter", base, [b + 0.3 * (-1) ** i for i, b in enumerate(base)], "higher",
         0.05, "no change"),
        ("clear gain", base, [b * 1.10 for b in base], "higher", 0.05, "gain"),
        ("gain, lower is better", base, [b * 0.90 for b in base], "lower", 0.05, "gain"),
        ("regression", base, [b * 0.90 for b in base], "higher", 0.05, "regression"),
        ("regression, lower is better", base, [b * 1.10 for b in base], "lower", 0.05,
         "regression"),
        ("worse within bound", base, [b * 0.98 for b in base], "higher", 0.05, "no change"),
        ("noisy", [100, 60, 140, 90, 110, 70, 130, 80, 120, 100],
         [95, 65, 135, 85, 115, 75, 125, 85, 115, 95], "higher", 0.05, "unresolved"),
        ("noisy but always ahead", [100, 60, 140, 90, 110, 70, 130, 80, 120, 100],
         [300, 310, 320, 330, 340, 350, 360, 370, 380, 390], "higher", 0.05, "gain"),
        ("8 of 10 wins", base, [b + (1.5 if i < 8 else -1.5) for i, b in enumerate(base)],
         "higher", 0.05, "no change"),
    ]
    failed = 0
    for name, b, c, better, bound, want in cases:
        got = verdict(b, c, better, bound)
        ok = got == want
        failed += 0 if ok else 1
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {got}" + ("" if ok else f" (want {want})"))
    print(f"self-test: {len(cases) - failed}/{len(cases)} passed")
    return 1 if failed else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", help="git revision of the parent side")
    ap.add_argument("--change", help="git revision of the change side (default: working tree)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--workloads", help="comma-separated subset (default: all)")
    ap.add_argument("--work", help="directory for the two source trees "
                                   "(default: build-perf/ab)")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    if not args.base:
        ap.error("--base is required (or --self-test)")
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    return compare(args)


if __name__ == "__main__":
    sys.exit(main())
