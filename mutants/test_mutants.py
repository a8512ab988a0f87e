"""Mutation suite: every one-line mutation listed here must fail tier-1.

Each case copies ``src/``, ``tests/``, ``bench/`` (whose tracer a tier-1
test reads) and ``pyproject.toml`` into a temporary directory, applies one (file, old text, new text) mutation to
the copy and runs the tier-1 suite there, stopping at its first failure.
The case passes when tier-1 fails.  A mutant that survives needs a test
that exercises the mutated check from both sides; it is never dropped
from the list.  Run from the repository root:

    python3 -m pytest mutants -q

It is kept out of tier-1 (``pyproject.toml`` collects ``tests`` only):
each case runs tier-1 once, a few seconds on two cores.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--continue-on-collection-errors"]

MUTANTS = [
    # the two-branch logarithm of the reciprocal panel integral, each branch alone
    ("transform.py", "log_ratio = np.where(near, np.log1p(d / f0), np.log(ratio))",
     "log_ratio = np.log1p(d / f0)", "reciprocal-log1p-only"),
    ("transform.py", "log_ratio = np.where(near, np.log1p(d / f0), np.log(ratio))",
     "log_ratio = np.log(ratio)", "reciprocal-log-only"),
    # the oracle confirms every root against det S
    ("oracle.py", "if det[below + 1] > 1e-6 * det_scale[i]:", "if det[below + 1] > math.inf:",
     "no-determinant-confirmation"),
    # the quadrature's error estimate is floored at roundoff
    ("shape.py", "return value, np.maximum(error, floor)", "return value, error", "no-roundoff-floor"),
    ("optimizer.py", "GAP_CONVERGED = 1e-3", "GAP_CONVERGED = 1e-1", "GAP_CONVERGED"),
    ("oracle.py", "PROBE_RATIO = 1.4", "PROBE_RATIO = 4.0", "PROBE_RATIO"),
    ("oracle.py", "_NEVILLE_POINTS = 6", "_NEVILLE_POINTS = 2", "_NEVILLE_POINTS"),
    ("oracle.py", "BRENT_ITERATIONS = 100", "BRENT_ITERATIONS = 3", "BRENT_ITERATIONS"),
    ("oracle.py", "MIN_STEPS = 16", "MIN_STEPS = 2", "MIN_STEPS"),
    ("shape.py", "MIN_RELATIVE_STIFFNESS = 1e-9", "MIN_RELATIVE_STIFFNESS = 1e-12",
     "MIN_RELATIVE_STIFFNESS"),
    # five thresholds, each loosened and each tightened 100-fold
    ("cli.py", "ORACLE_TOLERANCE = 1e-6", "ORACLE_TOLERANCE = 1e-2", "ORACLE_TOLERANCE-loose"),
    ("cli.py", "ORACLE_TOLERANCE = 1e-6", "ORACLE_TOLERANCE = 1e-8", "ORACLE_TOLERANCE-tight"),
    ("cli.py", "BOUND_TOLERANCE = 1e-10", "BOUND_TOLERANCE = 1e-3", "BOUND_TOLERANCE-loose"),
    ("cli.py", "BOUND_TOLERANCE = 1e-10", "BOUND_TOLERANCE = 1e-12", "BOUND_TOLERANCE-tight"),
    ("greenhill.py", "ENDPOINT_TOL = 1e-8", "ENDPOINT_TOL = 1e-2", "ENDPOINT_TOL-loose"),
    ("greenhill.py", "ENDPOINT_TOL = 1e-8", "ENDPOINT_TOL = 1e-10", "ENDPOINT_TOL-tight"),
    ("optimizer.py", "VOLUME_TOL = 1e-10", "VOLUME_TOL = 1e-3", "VOLUME_TOL-loose"),
    ("optimizer.py", "VOLUME_TOL = 1e-10", "VOLUME_TOL = 1e-12", "VOLUME_TOL-tight"),
    ("isoperimetric.py", "CONJUGATE_TOL = 1e-12", "CONJUGATE_TOL = 1e-3", "CONJUGATE_TOL-loose"),
    ("isoperimetric.py", "CONJUGATE_TOL = 1e-12", "CONJUGATE_TOL = 1e-14", "CONJUGATE_TOL-tight"),
    # oracle steps shared evenly among each rod's panels instead of given to each
    ("oracle.py", "counts = np.full(left.size, steps)",
     "counts = np.repeat(np.maximum(1, steps // sizes), sizes)", "even-split-steps"),
    # a rod of a stacked grid: the panels that pad its row take no steps, the
    # probes that pad it are no probes, and its phase is summed from the left
    ("oracle.py", "StepGrid(poly[:, rows], np.where(own, counts[rows], 0))", "StepGrid(poly[:, rows], counts[rows])",
     "padding-panels-given-steps"),
    ("oracle.py", "return np.where(probe < np.array(count)[:, None], x, np.nan)", "return x",
     "padded-probe-read-as-real"),
    ("oracle.py", "np.cumsum(c * np.arctan2(omega, 1.0 + a), axis=-1)[..., -1]",
     "(c * np.arctan2(omega, 1.0 + a)).sum(axis=-1)", "phase-summed-pairwise"),
    # the kernel's omega = 0 guard: the sum c I where M = 0, and beta's finite divisor
    ("oracle.py", "f[1] = np.where(identity, c, f[1] / np.where(identity, 1.0, a + 1j * omega))",
     "f[1] = f[1] / np.where(identity, 1.0, a + 1j * omega)", "no-zero-torque-sum"),
    ("oracle.py", "omega = np.where(double, 1.0, omega)", "omega = omega", "no-finite-beta-divisor"),
    # the phase that places the roots: each panel's angle times its count,
    # every multiple of 2 pi it passes over a probe interval, and the
    # interpolated zero taken within a quarter of the tolerance, from each side
    ("oracle.py", "np.cumsum(c * np.arctan2(omega, 1.0 + a), axis=-1)",
     "np.cumsum(np.arctan2(omega, 1.0 + a), axis=-1)", "phase-without-counts"),
    ("oracle.py", "turn, e = 2.0 * math.pi * k,", "turn, e = 2.0 * math.pi * (k + 1),",
     "phase-zero-one-turn-late"),
    ("oracle.py", "range(int(turns[i - 1]) + 1, int(turns[i]) + 1)", "range(int(turns[i]), int(turns[i]) + 1)",
     "one-root-per-interval"),
    ("oracle.py", "error <= e / 4", "True", "interpolated-zero-always-taken"),
    ("oracle.py", "error <= e / 4", "False", "interpolated-zero-never-taken"),
    # the one shot confirms each root as an upward trace crossing and holds
    # no other upward crossing
    ("oracle.py", "if not t[below] < 0.0 <= t[below + 2]:", "if False:", "no-trace-sign-check"),
    ("oracle.py", "if crossings != len(roots):", "if False:", "no-crossing-count-check"),
    # main builds the parser of the command it runs alone, hands arguments
    # that parser leaves over to the full parser, and gives the full parser
    # an empty argv
    ("cli.py", "if argv and argv[0] in COMMANDS:", "if False:", "command-dispatch-off"),
    ("cli.py", "if args is None or extras:", "if args is None:", "leftover-arguments-ignored"),
    ("cli.py", "if args is None or extras:", "if extras:", "empty-argv-unguarded"),
    # a --steps the oracle would refuse is an input error, shooting or not
    ("cli.py", "if steps < oracle.MIN_STEPS:", "if False:", "steps-unchecked"),
    # malformed input: a spec that is no JSON object, a law exponent with a
    # fraction, a NaN or negative optimizer tolerance
    ("cli.py", "if not isinstance(doc, dict):", "if False:", "no-top-level-object-check"),
    ("shape.py", 'n=json_whole_number(n, "section-law exponent")', "n=int(n)", "fractional-law-exponent"),
    ("optimizer.py", "if not tol >= 0.0:", "if False:", "no-tol-check"),
    # one rule for a number read from JSON: no bool, no string (a string is
    # taken by float() and by numpy), a list for a list of numbers, no
    # integer too large for a float; and no bool law exponent in the library
    ("shape.py", "return issubclass(cls, (int, float)) and not issubclass(cls, bool)",
     "return issubclass(cls, (int, float))", "json-bool-is-a-number"),
    ("shape.py", "return issubclass(cls, (int, float)) and not", "return issubclass(cls, (int, float, str)) and not",
     "json-string-is-a-number"),
    ("shape.py", "if isinstance(value, list) and all(", "if all(", "json-numbers-without-a-list"),
    ("shape.py", "return float(value)\n        except OverflowError:", "return float(value)\n        except ZeroDivisionError:",
     "json-number-overflow-uncaught"),
    ("shape.py", "return np.array(value, dtype=float)\n        except OverflowError:",
     "return np.array(value, dtype=float)\n        except ZeroDivisionError:", "json-numbers-overflow-uncaught"),
    ("shape.py", "if self.n not in (1, 2, 3) or isinstance(self.n, bool):", "if self.n not in (1, 2, 3):",
     "law-exponent-bool"),
    # a random optimizer start draws at most MAX_RANDOM_SEGMENTS areas
    ("cli.py", "if segments > MAX_RANDOM_SEGMENTS:", "if False:", "random-start-uncapped"),
]


def run_tier1(tmp_path: Path, mutation: tuple[str, str, str] | None = None) -> subprocess.CompletedProcess:
    """Tier-1 on a copy of the package, with ``mutation`` applied to the copy."""
    copy = tmp_path / "repo"
    for part in ("src", "tests", "bench"):
        shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "pyproject.toml", copy)
    if mutation is not None:
        name, old, new = mutation
        path = copy / "src" / "twistrod" / name
        text = path.read_text()
        assert text.count(old) == 1, f"{name}: the text to mutate is not there exactly once: {old!r}"
        path.write_text(text.replace(old, new))
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(TIER1, cwd=copy, env=env, capture_output=True, text=True, timeout=600)


def test_unmutated_copy_passes(tmp_path):
    result = run_tier1(tmp_path)
    assert result.returncode == 0, result.stdout[-3000:]


@pytest.mark.parametrize("name, old, new", [m[:3] for m in MUTANTS], ids=[m[3] for m in MUTANTS])
def test_mutant_fails_tier1(tmp_path, name, old, new):
    result = run_tier1(tmp_path, (name, old, new))
    assert result.returncode == 1, f"mutant survived tier-1:\n{result.stdout[-3000:]}"
