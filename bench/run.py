"""Layered benchmark of twistrod: end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload analyze --seed 1 --seconds 30 --trace 0

One client, one process, one thread (BLAS/OpenMP pinned to one thread),
closed loop: the next operation starts when the previous one returned.
Inputs are generated from ``--seed`` before timing starts; every
operation's outcome is checked, and a failed check is a failed
operation.  With ``--trace 0`` the run reports the end-to-end metrics;
with ``--trace 1`` it runs the same operations once plain and once with
every layer wrapped by ``tracer.instrument`` and reports per-layer
metrics and the tracing overhead.  ``--replay I`` runs operation I of
the seed's pool alone.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy is imported, here and in the
# set-up probes this process starts (they inherit the environment).
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PINNED_THREADS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60

# Machine-speed calibration.  The reference machine shares its cores
# with other tenants, and that load makes the same code run up to twice
# as slow, in CPU time too, for milliseconds to minutes at a time.  A
# fixed reference loop is timed before the first operation and after
# every operation, and each latency is multiplied by CAL_REF_S over the
# mean of the loop times just before and after it.  Load slows small
# numpy operations more than plain float arithmetic, so the loop does the
# kind of work the workload does: plain float arithmetic ("python") for
# the pure-Python RK4 loops of verify, and that followed by small numpy
# operations mixed with float arithmetic ("mixed") for the others.  The
# first pass after an operation runs slower, by an amount that depends
# on the caches, branch predictors and allocator state the operation left
# behind, so it only warms up; the loop time is the faster of the
# CAL_REPS passes that follow.  CAL_REF_S is that time on the reference
# machine when nothing else loads it.
CAL_REF_S = {"python": 0.3e-3, "mixed": 1.0e-3}
CAL_REPS = 2
CALIBRATION = {"verify": "python", "analyze": "mixed", "optimize": "mixed"}


def calibrate(kind: str) -> float:
    """Seconds one warm pass of the ``kind`` reference loop takes now."""
    import numpy as np

    a = np.arange(16.0)
    times = []
    for _ in range(1 + CAL_REPS):
        x = 0.0
        t0 = perf_counter()
        for i in range(3000):
            x += (i * 0.5) % 3.0
        if kind == "mixed":
            for i in range(200):
                x += float((a * 0.5 + i).max())
                for j in range(10):
                    x += (j * 0.5) % 3.0
        times.append(perf_counter() - t0)
    return min(times[1:])


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_package() -> float:
    """Import ``twistrod.cli`` from this checkout's ``src``; seconds taken."""
    src = ROOT / "src"
    if not (src / "twistrod" / "cli.py").is_file():
        die(f"no twistrod sources under {src}; run from a repository checkout")
    sys.path.insert(0, str(src))
    t0 = perf_counter()
    import twistrod.cli  # noqa: F401

    elapsed = perf_counter() - t0
    if src.resolve() not in Path(sys.modules["twistrod"].__file__).resolve().parents:
        die("twistrod was imported from outside this checkout")
    return elapsed


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="twistrod layered benchmark")
    p.add_argument("--workload", required=True, choices=("verify", "analyze", "optimize"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, help="measuring time; required unless --replay")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--replay", type=int, metavar="I", help="run operation I of the pool alone")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds is None and args.replay is None and not args.setup_probe:
        p.error("--seconds is required")
    return args


# -- running operations -------------------------------------------------


class Run:
    """Outcome of one timed loop over the operation pool."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.scaled: list[float] = []  # latencies at reference-machine speed
        self.calibration: list[float] = []
        self.blocks = 0
        self.wall_s = 0.0
        self.attempted = 0
        self.failures: list[tuple[int, str, str]] = []
        self.info: list[dict] = []

    @property
    def passed(self) -> int:
        return self.attempted - len(self.failures)

    @classmethod
    def merged(cls, *runs: "Run") -> "Run":
        """Attempts and failures of several runs together, for reporting."""
        total = cls()
        for r in runs:
            total.attempted += r.attempted
            total.failures += r.failures
        return total


def execute(op, tracer=None) -> tuple[float, str | None, dict]:
    """Time one operation and check it; any exception is a failure."""
    t0 = perf_counter()
    try:
        if tracer is None:
            outcome = op.call()
        else:
            tracer.op = op.index
            outcome = tracer.call("op", True, None, op.call, (), {})
    except Exception:  # noqa: BLE001 -- a crashing operation is a failed operation
        return perf_counter() - t0, "raised " + traceback.format_exc(limit=3).strip()[-400:], {}
    latency = perf_counter() - t0
    try:
        error, info = op.check(outcome)
    except Exception:  # noqa: BLE001 -- a malformed outcome fails its check
        error, info = "check raised " + traceback.format_exc(limit=3).strip()[-400:], {}
    return latency, error, info


def loop(ops, block: int, seconds: float, run: Run, cal_kind: str, tracer=None) -> Run:
    """Run ops[0], ops[1], ... (cycling) until ``seconds`` have passed and
    a block of ``block`` operations is complete."""
    t0 = perf_counter()
    run.calibration.append(calibrate(cal_kind))
    i = 0
    while True:
        op = ops[i % len(ops)]
        before = tracer.stat("optimizer.objective").calls if tracer else 0
        latency, error, info = execute(op, tracer)
        run.calibration.append(calibrate(cal_kind))
        run.attempted += 1
        run.latencies.append(latency)
        run.scaled.append(latency * 2.0 * CAL_REF_S[cal_kind] / sum(run.calibration[-2:]))
        if error:
            run.failures.append((op.index, op.label, error))
        if tracer and "iterations" in info:
            info["objective_calls"] = tracer.stat("optimizer.objective").calls - before
        run.info.append(info)
        i += 1
        run.wall_s = perf_counter() - t0
        if i % block == 0:
            run.blocks += 1
            if run.wall_s >= seconds:
                return run


# -- metrics ------------------------------------------------------------


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_probe_seconds(workload: str, seed: int) -> list[float]:
    """Set-up time (import plus input generation) in fresh processes, at
    reference speed: each probe times the plain-arithmetic reference loop
    right after its set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            die(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        scale = CAL_REF_S["python"] / probe["calibration_s"]
        times.append((probe["import_s"] + probe["generate_s"]) * scale)
    return times


def timings(run: Run, latencies: list[float]) -> dict:
    """Throughput (operations passed per second spent in operations) and
    latency percentiles."""
    lat_ms = [x * 1e3 for x in latencies]
    return {
        "ops_per_s": (run.passed * 1e3 / math.fsum(lat_ms), "1/s"),
        "latency_p50_ms": (statistics.median(lat_ms), "ms"),
        "latency_p90_ms": (quantile(lat_ms, 90), "ms"),
    }


def end_to_end(run: Run, setup: list[float]) -> dict:
    return {
        **timings(run, run.scaled),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, plain: Run, traced: Run, import_s: float, generate_s: float) -> dict:
    ops = traced.attempted
    st = tracer.stat

    def per_op(name: str, attr: str) -> float:
        return getattr(st(name), attr) / ops

    iso, ani = st("propagate@oracle"), st("propagate@anisotropic")
    propagate_s = iso.self_s + ani.self_s
    steps = iso.work + ani.work
    roots_iso = st("oracle.critical_torque_oracle").calls
    roots_ani = st("anisotropic.first_root").calls
    iterations = sum(i.get("iterations", 0) for i in traced.info)
    objective_in_optimize = sum(i.get("objective_calls", 0) for i in traced.info)
    # overhead over the same operations, at reference speed so that other
    # load on the machine does not pass for tracing cost
    m = min(plain.attempted, traced.attempted)
    plain_ms = 1e3 * statistics.fmean(plain.scaled[:m])
    traced_ms = 1e3 * statistics.fmean(traced.scaled[:m])

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "oracle.propagate.calls": ((iso.calls + ani.calls) / ops, "count"),
        "oracle.propagate.self_s": (propagate_s / ops, "s"),
        "oracle.rk4_steps": (steps / ops, "count"),
        "oracle.rk4_steps_per_s": (ratio(steps, propagate_s), "1/s"),
        "oracle.build_step_grid.self_s": (per_op("oracle.build_step_grid", "self_s"), "s"),
        "oracle.refine.self_s": (per_op("oracle.refine", "self_s"), "s"),
        "oracle.evals_per_root": (ratio(iso.calls, roots_iso), "count"),
        "oracle.max_rel_err": (max((i.get("max_rel_err", 0.0) for i in traced.info), default=0.0), "rel"),
        "anisotropic.first_root.self_s": (per_op("anisotropic.first_root", "self_s"), "s"),
        "anisotropic.propagate.calls": (ani.calls / ops, "count"),
        # one evaluation of the anisotropic root function shoots twice
        "anisotropic.evals_per_root": (ratio(ani.calls / 2, roots_ani), "count"),
        "shape.integrate.calls": (per_op("shape.integrate", "calls"), "count"),
        "shape.integrate.self_s": (per_op("shape.integrate", "self_s"), "s"),
        "shape.evaluate.calls": (per_op("shape.evaluate", "calls"), "count"),
        "shape.evaluate.self_s": (per_op("shape.evaluate", "self_s"), "s"),
        "shape.construct.calls": (per_op("shape.construct", "calls"), "count"),
        "shape.construct.self_s": (per_op("shape.construct", "self_s"), "s"),
        "shape.area_profile.self_s": (per_op("shape.area_profile", "self_s"), "s"),
        "shape.max_relative_deviation.self_s": (per_op("shape.max_relative_deviation", "self_s"), "s"),
        "transform.physical_length.self_s": (per_op("transform.physical_length", "self_s"), "s"),
        "transform.coordinate_map.self_s": (per_op("transform.coordinate_map", "self_s"), "s"),
        "greenhill.critical_torque_value.self_s": (per_op("greenhill.critical_torque_value", "self_s"), "s"),
        "greenhill.mode_shape.self_s": (per_op("greenhill.mode_shape", "self_s"), "s"),
        "isoperimetric.verify_bound.self_s": (per_op("isoperimetric.verify_bound", "self_s"), "s"),
        "isoperimetric.split_identity.self_s": (per_op("isoperimetric.split_identity", "self_s"), "s"),
        "optimizer.optimize.self_s": (per_op("optimizer.optimize", "self_s"), "s"),
        "optimizer.objective.calls": (per_op("optimizer.objective", "calls"), "count"),
        "optimizer.objective.self_s": (per_op("optimizer.objective", "self_s"), "s"),
        "optimizer.accepted_ratio": (ratio(iterations, objective_in_optimize), "ratio"),
        "cli.main.self_s": (per_op("cli.main", "self_s"), "s"),
        "op.self_s": (per_op("op", "self_s"), "s"),
        "sampling.generate_s": (generate_s, "s"),
        "import_s": (import_s, "s"),
        "trace.op_ms": (1e3 * statistics.fmean(traced.latencies), "ms"),
        "trace.overhead_ms": (traced_ms - plain_ms, "ms"),
        "trace.overhead_share": (ratio(traced_ms - plain_ms, plain_ms), "ratio"),
    }


# -- reporting ----------------------------------------------------------


def report(args, metrics: dict, run: Run, notes: list[str], separated: bool = True) -> None:
    """Human-readable table, failures with replay commands, then the JSON
    line.  The run is correct when no operation failed and the workloads
    kept their layers apart."""
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"operations {run.attempted} (failed {len(run.failures)})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g}  {unit}")
    print(f"  {'error_rate':40s} {len(run.failures) / run.attempted:14.6g}  ratio")
    for note in notes:
        print(f"  {note}")
    for index, label, error in run.failures[:20]:
        print(f"FAILED workload={args.workload} seed={args.seed} op={index} ({label}): {error}\n"
              f"  replay: python3 bench/run.py --workload {args.workload} --seed {args.seed} "
              f"--replay {index}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures and separated,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_package()
    import tracer as tracing
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix=f"{args.workload}-") as tmp:
        t0 = perf_counter()
        ops = workloads.make_ops(args.workload, args.seed, Path(tmp))
        generate_s = perf_counter() - t0
        if args.setup_probe:
            calibration_s = statistics.median(calibrate("python") for _ in range(5))
            print(json.dumps({"import_s": import_s, "generate_s": generate_s,
                              "calibration_s": calibration_s}))
            return 0

        if args.replay is not None:
            op = ops[args.replay]
            latency, error, info = execute(op)
            print(f"op {op.index} ({op.label}): {latency * 1e3:.3f} ms, "
                  f"{'FAILED: ' + error if error else 'ok'}")
            print(json.dumps(op.inputs))
            return 1 if error else 0

        # Warm-up: operation 0 runs once, checked but untimed, so lazy
        # imports and first-call costs stay out of the measurement.
        block = workloads.BLOCK[args.workload]
        cal_kind = CALIBRATION[args.workload]
        warm = Run()
        _, error, _ = execute(ops[0])
        warm.attempted = 1
        if error:
            warm.failures.append((0, ops[0].label, error))

        if args.trace == 0:
            run = loop(ops, block, args.seconds, Run(), cal_kind)
            setup = setup_probe_seconds(args.workload, args.seed)
            metrics = end_to_end(run, setup)
            unscaled = ", ".join(f"{k} {v:.6g}" for k, (v, _) in timings(run, run.latencies).items())
            notes = [
                f"latency samples {len(run.latencies)} in {run.blocks} blocks; "
                f"set-up probes {len(setup)} (median of fresh processes)",
                f"unscaled: {unscaled}; reference loop median "
                f"{statistics.median(run.calibration) * 1e3:.4g} ms "
                f"(CAL_REF_S {CAL_REF_S[cal_kind] * 1e3:.4g} ms)",
            ]
            report(args, metrics, Run.merged(warm, run), notes)
            return 0

        plain = loop(ops, block, args.seconds / 2, Run(), cal_kind)
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            traced = loop(ops, block, args.seconds / 2, Run(), cal_kind, tracer=tracer)
        metrics = per_layer(tracer, plain, traced, import_s, generate_s)
        spans = OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans)
        shoots = metrics["oracle.propagate.calls"][0]
        integrates = metrics["shape.integrate.calls"][0]
        separated = {
            "verify": shoots > 0,
            "analyze": shoots == 0 and integrates > 0,
            "optimize": shoots == 0 and integrates == 0,
        }[args.workload]
        notes = [
            f"traced operations {len(traced.latencies)}, plain {len(plain.latencies)}; "
            f"{len(tracer.spans)} spans in {spans.relative_to(ROOT)}",
            f"layer separation {'holds' if separated else 'VIOLATED'}: "
            f"oracle.propagate.calls={shoots:.6g} (0 on analyze and optimize), "
            f"shape.integrate.calls={integrates:.6g} (0 on optimize)",
        ]
        report(args, metrics, Run.merged(warm, plain, traced), notes, separated)
        return 0


if __name__ == "__main__":
    sys.exit(main())
