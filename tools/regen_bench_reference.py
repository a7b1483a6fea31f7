#!/usr/bin/env python3
"""Regenerate bench/reference/, the artifacts every commit must reproduce.

  regen_bench_reference.py [--build DIR] [--out DIR] [--threads N]

Runs every bench the CI determinism job runs -- each DIR/bench/bench_*
except bench_sim_speed (google-benchmark timings) and bench_fabric_scale
(wall-clock columns on stdout) -- and writes, per bench, into --out:

  BENCH_<name>.json  its artifact with every "runtime" object emptied (the
                     schema keeps the key; tools/diff_bench_json.py ignores
                     its content)
  <bench>.out        its stdout without the [bench-json] path line

The determinism job diffs its PMSB_THREADS=1 run against these files, so a
change that moves any result fails CI even when it moves it alike at every
thread count. A change meant to move results reruns this command and
commits the reference diff with it. Artifacts are identical at any thread
count (the same job checks that), so --threads only sets how fast this runs.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SKIPPED = {"bench_sim_speed", "bench_fabric_scale"}


def empty_runtime(node):
    """`node` with every object named "runtime" emptied, at any depth."""
    if isinstance(node, dict):
        return {k: {} if k == "runtime" else empty_runtime(v) for k, v in node.items()}
    if isinstance(node, list):
        return [empty_runtime(v) for v in node]
    return node


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build", type=Path, default=ROOT / "build")
    ap.add_argument("--out", type=Path, default=ROOT / "bench" / "reference")
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()

    benches = sorted(p for p in (args.build / "bench").glob("bench_*")
                     if p.is_file() and os.access(p, os.X_OK) and p.name not in SKIPPED)
    if not benches:
        print(f"error: no bench binaries under {args.build / 'bench'}", file=sys.stderr)
        return 1
    args.out.mkdir(parents=True, exist_ok=True)
    for old in list(args.out.glob("BENCH_*.json")) + list(args.out.glob("*.out")):
        old.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, PMSB_THREADS=str(args.threads), PMSB_BENCH_JSON_DIR=tmp)
        for bench in benches:
            print(f"running {bench.name}", flush=True)
            run = subprocess.run([str(bench)], env=env, stdout=subprocess.PIPE, text=True,
                                 check=True)
            lines = [l for l in run.stdout.splitlines(keepends=True)
                     if not l.startswith("[bench-json]")]
            (args.out / f"{bench.name}.out").write_text("".join(lines))
        for art in sorted(Path(tmp).glob("BENCH_*.json")):
            doc = empty_runtime(json.loads(art.read_text()))
            (args.out / art.name).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(benches)} benches' artifacts and stdout to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
