"""Seeded inputs, timed operations and correctness checks of the three workloads.

Every workload is a list of operations generated from one seed before
timing starts.  An operation is a zero-argument call (the part that is
timed) plus a check that judges its outcome against references the
benchmark computes itself (see ``reference.py``) and returns an error
message, or None when the outcome is correct.

* ``verify`` -- ``twistrod verify --n 1`` per operation: shooting
  (``oracle.propagate`` and the scan-and-brentq search) dominates.
* ``analyze`` -- ``twistrod analyze --spec`` per operation on generated
  rod files: adaptive quadrature driven by scalar ``ShapeFunction``
  callbacks dominates, and nothing shoots.
* ``optimize`` -- ``optimize`` or ``brute_force_segments`` per operation:
  profile construction and validation dominate; nothing integrates
  adaptively and nothing shoots.

Operations come in shuffled blocks with a fixed composition, so every
run sees the same mix of profile kinds, laws and panel counts however
far it gets, and different seeds differ only in the random values.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import reference as ref
import twistrod.cli as cli
import twistrod.optimizer as opt
from twistrod.sampling import LAW_ALPHAS, Lcg64, random_areas
from twistrod.shape import CrossSectionLaw

WORKLOADS = ("verify", "analyze", "optimize")

REL_TOL = 1e-10

# Pool sizes.  verify and optimize hold enough distinct inputs for a
# 30 s run at the parent commit's speed.  analyze writes one file per
# rod, and creating files is slow and erratic here, so its pool is two
# blocks (96 rods) that a run cycles through; the CLI keeps nothing
# between calls, so a repeated rod costs the same as a new one.
VERIFY_POOL = 4096
ANALYZE_BLOCKS = 2
OPTIMIZE_BLOCKS = 160

# analyze block: 6 constant rods plus 21 piecewise and 21 sampled rods
# whose panel counts are log-uniformly spaced from 1 to 128.  The counts
# are the same in every block and for every seed, so the cost mix, which
# sets the latency percentiles, does not change with the seed; only the
# profiles' values do.
ANALYZE_CONSTANT = 6
PANEL_COUNTS = [round(128 ** (j / 20)) for j in range(21)]

# Cross-section law coefficients of the SI-scale share: a thin-walled
# tube (n = 1, alpha = r**2 / 2 in m**2), the solid circle (n = 2) and a
# strip of fixed width bent about its weak axis (n = 3, 1/(12 b**2)).
SI_ALPHAS = {1: 2e-4, 2: 1.0 / (4.0 * math.pi), 3: 8.3}

# Brute-force grid sizes chosen so that one call costs about as much as
# one ``optimize`` call.  An odd grid puts a point on the 2-panel
# barycentre; for 3 panels no grid point is the barycentre, so the
# optimum must lie within one cell of it.
BRUTE_GRID = {2: 121, 3: 17}


@dataclass
class Op:
    """One operation: ``call`` is timed, ``check`` judges its outcome.

    ``check`` returns (error message or None, info); info carries
    figures the traced run aggregates (iterations, oracle disagreement).
    """

    index: int
    label: str
    call: Callable[[], object]
    check: Callable[[object], tuple[str | None, dict]]
    inputs: dict = field(default_factory=dict)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``twistrod.cli.main`` in process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_report(outcome) -> tuple[str | None, dict | None]:
    rc, out, err = outcome
    if rc != 0:
        return f"exit code {rc}: {err.strip()[-300:]}", None
    try:
        return None, json.loads(out)
    except json.JSONDecodeError as exc:
        return f"unparsable report: {exc}", None


def _shuffle(rng: Lcg64, items: list) -> list:
    for i in range(len(items) - 1, 0, -1):
        j = rng.integer(0, i)
        items[i], items[j] = items[j], items[i]
    return items


# -- verify -----------------------------------------------------------


def _check_verify(outcome) -> tuple[str | None, dict]:
    error, report = _cli_report(outcome)
    if error:
        return error, {}
    worst = max(
        report["suites"]["torque_vs_oracle"]["max_disagreement"],
        report["suites"]["anisotropic_reduction"]["max_disagreement"],
    )
    if report.get("pass") is not True:
        return f"verify report does not pass: {json.dumps(report['suites'])[:300]}", {}
    return None, {"max_rel_err": worst}


def verify_ops(seed: int, workdir: Path) -> list[Op]:
    # The CLI uses seeds s, s+1 and s+2 for its three suites, so
    # operation seeds step by 3 to keep every suite stream distinct.
    base = Lcg64(seed).integer(0, 1 << 30)
    ops = []
    for i in range(VERIFY_POOL):
        argv = ["verify", "--n", "1", "--seed", str(base + 3 * i)]
        ops.append(
            Op(i, f"verify seed {base + 3 * i}", lambda a=argv: run_cli(a), _check_verify, {"argv": argv})
        )
    return ops


# -- analyze ----------------------------------------------------------


def _rod_doc(rng: Lcg64, kind: str, panels: int, n: int, anisotropic: bool, si: bool) -> dict:
    if si:
        E = 2e11
        J = rng.log_uniform(5e-9, 2e-8)
        L = rng.log_uniform(0.5, 5.0)
        alpha = SI_ALPHAS[n]
    else:
        E = rng.log_uniform(0.5, 2.0)
        J = rng.log_uniform(0.5, 2.0)
        L = rng.log_uniform(0.5, 2.0)
        alpha = LAW_ALPHAS[n]
    if kind == "constant":
        shape = {"kind": "constant", "L": L, "values": [rng.log_uniform(0.25, 4.0)]}
    elif kind == "piecewise":
        widths = [rng.log_uniform(0.5, 2.0) for _ in range(panels)]
        total = sum(widths)
        bp = [0.0]
        for w in widths[:-1]:
            bp.append(bp[-1] + L * w / total)
        bp.append(L)
        values = [rng.log_uniform(0.25, 4.0) for _ in range(panels)]
        shape = {"kind": "piecewise", "L": L, "values": values, "breakpoints": bp}
    else:
        # samples of a smooth profile: a log-space random walk with steps
        # of at most 10%, kept inside [0.25, 4]
        values = [rng.log_uniform(0.5, 2.0)]
        for _ in range(panels):
            values.append(min(4.0, max(0.25, values[-1] * rng.log_uniform(1 / 1.1, 1.1))))
        shape = {"kind": "sampled", "L": L, "values": values}
    doc = {"E": E, "shape": shape, "law": {"n": n, "alpha": alpha}}
    if anisotropic:
        r = rng.log_uniform(0.5, 2.0)
        doc["Jy"], doc["Jz"] = J * r, J / r
    else:
        doc["J_ref"] = J
    return doc


def _analyze_block(rng: Lcg64) -> list[dict]:
    layout = [("constant", 1)] * ANALYZE_CONSTANT
    layout += [(kind, k) for kind in ("piecewise", "sampled") for k in PANEL_COUNTS]
    docs = [
        _rod_doc(rng, kind, panels, 1 + b % 3, b % 4 == 3, b % 5 == 4)
        for b, (kind, panels) in enumerate(layout)
    ]
    return _shuffle(rng, docs)


def check_analyze(doc: dict, outcome) -> tuple[str | None, dict]:
    """Compare an ``analyze`` report with the exact panel sums of ``doc``."""
    error, report = _cli_report(outcome)
    if error:
        return error, {}
    checks = [
        ("M_star", report["M_star"], ref.critical_torque(doc)),
        ("volume", report["volume"], ref.volume(doc)),
        ("M_bound", report["M_bound"], ref.rod_bound(doc)),
    ]
    for what, got, want in checks:
        if not ref.rel_diff(got, want) <= REL_TOL:
            return f"{what} {got!r} differs from exact {want!r} by {ref.rel_diff(got, want):.2e}", {}
    if not report["ratio"] <= 1.0 + REL_TOL:
        return f"bound ratio {report['ratio']!r} exceeds 1", {}
    return None, {}


def analyze_ops(seed: int, workdir: Path) -> list[Op]:
    rng = Lcg64(seed)
    docs = [doc for _ in range(ANALYZE_BLOCKS) for doc in _analyze_block(rng)]
    ops = []
    for i, doc in enumerate(docs):
        path = workdir / f"rod{i:04d}.json"
        path.write_text(json.dumps(doc))
        argv = ["analyze", "--spec", str(path)]
        label = f"analyze {doc['shape']['kind']} {len(ref.panels(doc['shape']))} panels"
        ops.append(
            Op(
                i,
                label,
                lambda a=argv: run_cli(a),
                lambda out, d=doc: check_analyze(d, out),
                {"rod": doc, "spec": str(path)},
            )
        )
    return ops


# -- optimize ---------------------------------------------------------


def check_optimize(p: dict, trace) -> tuple[str | None, dict]:
    if not trace.converged:
        return f"did not converge (gap {trace.final_gap:.3e})", {}
    areas = [float(a) for a in trace.final.areas]
    h = p["L"] / len(areas)
    residual = abs(h * sum(areas) - p["V"]) / p["V"]
    if not residual <= REL_TOL:
        return f"volume residual {residual:.2e}", {}
    exact = ref.panel_torque(p["E"], p["n"], p["alpha"], areas, p["L"])
    if not ref.rel_diff(trace.final.M_star, exact) <= REL_TOL:
        return f"M_star {trace.final.M_star!r} differs from exact {exact!r}", {}
    cap = ref.bound(p["E"], p["n"], p["alpha"], p["V"], p["L"])
    if not trace.final.M_star <= cap * (1.0 + REL_TOL):
        return f"M_star {trace.final.M_star!r} exceeds the bound {cap!r}", {}
    return None, {"iterations": len(trace.iterates) - 1}


def check_brute_force(p: dict, best) -> tuple[str | None, dict]:
    k = p["segments"]
    split = [float(a) * p["L"] / k for a in best.panel_values]
    off = max(abs(s - p["V"] / k) for s in split) / p["V"]
    allowed = 1e-12 if k == 2 else 1.0 / p["grid"]
    if not off <= allowed:
        return f"optimum {split} is {off:.2e} of V from the barycentre", {}
    return None, {}


def _problem(rng: Lcg64, n: int) -> dict:
    return {
        "V": rng.log_uniform(0.5, 2.0),
        "L": rng.log_uniform(0.5, 2.0),
        "E": rng.log_uniform(0.5, 2.0),
        "n": n,
        "alpha": LAW_ALPHAS[n],
    }


def optimize_ops(seed: int, workdir: Path) -> list[Op]:
    rng = Lcg64(seed)
    problems = []
    for _ in range(OPTIMIZE_BLOCKS):
        block = []
        for n in (1, 2, 3):
            for k in (4, 16, 64):
                block.append({**_problem(rng, n), "kind": "optimize", "segments": k,
                              "areas": random_areas(rng, k)})
            for k in (2, 3):
                block.append({**_problem(rng, n), "kind": "brute_force", "segments": k,
                              "grid": BRUTE_GRID[k]})
        problems.extend(_shuffle(rng, block))
    ops = []
    for i, p in enumerate(problems):
        law = CrossSectionLaw(p["n"], p["alpha"])
        if p["kind"] == "optimize":
            def call(p=p, law=law):
                return opt.optimize(
                    opt.OptimizationProblem.from_areas(p["areas"], p["V"], p["L"], law, p["E"])
                )
            check = lambda out, p=p: check_optimize(p, out)
        else:
            def call(p=p, law=law):
                return opt.brute_force_segments(p["V"], p["L"], law, p["E"], p["segments"], p["grid"])
            check = lambda out, p=p: check_brute_force(p, out)
        label = f"{p['kind']} {p['segments']} segments n={p['n']}"
        ops.append(Op(i, label, call, check, {"problem": p}))
    return ops


MAKERS = {"verify": verify_ops, "analyze": analyze_ops, "optimize": optimize_ops}

# Operations per block.  A timed loop ends on a block boundary, so every
# run holds whole blocks, each with the same composition.
BLOCK = {"verify": 1, "analyze": ANALYZE_CONSTANT + 2 * len(PANEL_COUNTS), "optimize": 15}


def make_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The operation pool of ``workload`` for ``seed``; writes input files
    (analyze only) into ``workdir``."""
    return MAKERS[workload](seed, workdir)
