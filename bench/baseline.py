"""Run the benchmark over several seeds and record medians and spreads.

    python3 bench/baseline.py --label seed-commit

For each workload in BENCHMARK.json this runs ``bench/run.py`` once per
seed 1..10 untraced and once per seed 1..3 traced, one run at a time.
For every metric it prints the median and the quartile spread
(Q3 - Q1) / median, as ``statistics.quantiles(values, n=4)`` gives the
quartiles, next to the metric's bound.  It writes all of this, with the
environment, to ``bench/baseline.json`` (or ``--out``).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 300
SEEDS = 10  # untraced runs per workload, seeds 1..SEEDS
TRACED = 3  # traced runs per workload, seeds 1..TRACED


def environment() -> dict:
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": versions[0],
        "scipy": versions[1],
        "machine": platform.machine(),
        "threads": "OMP_NUM_THREADS=OPENBLAS_NUM_THREADS=MKL_NUM_THREADS=NUMEXPR_NUM_THREADS=1 "
        "(set by bench/run.py)",
    }


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict], bounds: dict) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        entry = {"unit": results[0]["metrics"][name]["unit"], "median": median, "values": values}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
        if name in bounds:
            entry["bound"] = bounds[name]
        out[name] = entry
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", default="", help="what was measured, e.g. a commit")
    p.add_argument("--out", type=Path, default=BENCH / "baseline.json")
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    doc = {"label": args.label, "run_seconds": seconds, "environment": environment(), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        plain = []
        for seed in range(1, SEEDS + 1):
            plain.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in plain[-1]["metrics"].items()), flush=True)
        traced = [run_once(workload, seed, seconds, 1) for seed in range(1, TRACED + 1)]
        summary = summarize(plain, bounds)
        doc["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in plain),
            "failed": sum(r["failed"] for r in plain),
            "end_to_end": summary,
            "per_layer": {k: {kk: v[kk] for kk in ("unit", "median")}
                          for k, v in summarize(traced, {}).items()},
        }
        for name, e in summary.items():
            flag = ""
            if "spread" in e and name in bounds:
                flag = "  OVER BOUND" if e["spread"] > bounds[name] else (
                    "  over bound/3" if e["spread"] > bounds[name] / 3 else "")
            print(f"  {workload:9s} {name:16s} median {e['median']:12.5g} {e['unit']:4s} "
                  f"spread {e.get('spread', 0.0):.4f} bound {bounds.get(name, '-')}{flag}", flush=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
