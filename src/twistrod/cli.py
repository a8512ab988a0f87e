"""Command-line interface: analyze a rod, optimize a shape, cross-verify.

Exit codes: 0 success, 1 verification failure, 2 malformed input,
3 numerical failure, 4 optimizer did not converge.

All output is machine-readable: one JSON report on stdout for
``analyze`` and ``verify``, JSON lines for ``optimize``; mode-shape
samples go to CSV.  Reports echo the fully resolved input, so a run can
be reproduced from its report alone.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import anisotropic as aniso
from . import isoperimetric as iso
from . import optimizer as opt
from . import oracle
from .errors import EigenvalueConsistencyError, QuadratureError, RootSearchError
from .greenhill import critical_torque_constant, critical_torque_value, mode_shape
from .sampling import (
    Lcg64,
    law_for_exponent,
    random_anisotropic_spec,
    random_areas,
    random_piecewise_shape,
    random_rod_spec,
)
from .shape import CrossSectionLaw, RodSpec, ShapeFunction, area_profile
from .transform import physical_length

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERIC_ERROR = 3
EXIT_NOT_CONVERGED = 4

ORACLE_TOLERANCE = 1e-6
BOUND_TOLERANCE = 1e-10


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"input file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None


def _parse_rod(doc: dict) -> tuple[RodSpec, aniso.AnisotropicRodSpec | None, dict]:
    """Resolve a rod document into an isotropic spec (reducing anisotropic
    input) plus the original anisotropic spec when present, and the echo."""
    for key in ("E", "shape", "law"):
        if key not in doc:
            raise ValueError(f"rod spec missing required field '{key}'")
    shape = ShapeFunction.from_dict(doc["shape"])
    law = CrossSectionLaw.from_dict(doc["law"])
    E = float(doc["E"])
    echo: dict = {"E": E, "shape": shape.to_dict(), "law": law.to_dict()}

    if "Jy" in doc or "Jz" in doc:
        if not ("Jy" in doc and "Jz" in doc):
            raise ValueError("anisotropic spec needs both 'Jy' and 'Jz'")
        if "J_ref" in doc:
            raise ValueError("give either 'J_ref' or the pair 'Jy'/'Jz', not both")
        section = aniso.AnisotropicSection(Jy=float(doc["Jy"]), Jz=float(doc["Jz"]))
        aspec = aniso.AnisotropicRodSpec(E=E, section=section, shape=shape, law=law)
        spec = aniso.reduce_to_isotropic(aspec)
        echo.update({"Jy": section.Jy, "Jz": section.Jz, "J_effective": spec.J_ref})
        return spec, aspec, echo
    if "J_ref" not in doc:
        raise ValueError("rod spec missing 'J_ref' (or the pair 'Jy'/'Jz')")
    spec = RodSpec(E=E, J_ref=float(doc["J_ref"]), shape=shape, law=law)
    echo["J_ref"] = spec.J_ref
    return spec, None, echo


def cmd_analyze(args: argparse.Namespace) -> int:
    """One rod's report: the equivalent length l, M* as Greenhill's torque
    at l, and its isoperimetric bound.  The buckling mode is built only to
    be written to ``--out``, as ``mode_shape`` at M*; an anisotropic rod's
    mode is then mapped back to physical deflections
    (``anisotropic.mode_to_anisotropic``)."""
    doc = _load_json(args.spec)
    spec, aspec, echo = _parse_rod(doc)

    l = physical_length(spec.shape)
    m_star = critical_torque_constant(spec.E, spec.J_ref, l)
    profile = area_profile(spec)

    mode_csv = None
    if args.out:
        mode = mode_shape(spec, m_star)
        if aspec is not None:
            mode = aniso.mode_to_anisotropic(mode, aspec.section.k)
        mode.to_csv(args.out)
        mode_csv = str(Path(args.out))

    report = {
        "input": echo,
        **iso._bound_report(spec, profile, m_star).to_dict(),
        "l_physical": l,
        "volume": profile.volume,
        "mode_index": 1,
        "mode_csv": mode_csv,
    }
    if args.oracle:
        if aspec is not None:
            m_oracle = aniso.first_root_anisotropic(aspec, steps=args.steps)
        else:
            m_oracle = oracle.critical_torque_oracle(spec, steps=args.steps)
        report["oracle"] = {
            "M": m_oracle,
            "disagreement": abs(m_oracle - m_star) / m_star,
        }
    print(json.dumps(report, indent=2))
    return EXIT_OK


def _segment_count(value) -> int:
    """The panel count read from JSON: an integer, or a float without a fraction."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"'segments' must be a whole number, got {value!r}")


def cmd_optimize(args: argparse.Namespace) -> int:
    doc = _load_json(args.spec)
    for key in ("V", "L", "E", "law"):
        if key not in doc:
            raise ValueError(f"optimization problem missing required field '{key}'")
    law = CrossSectionLaw.from_dict(doc["law"])
    init_areas = None
    if "init" in doc:
        try:
            init_areas = [float(a) for a in doc["init"]]
        except TypeError:
            raise ValueError(f"'init' must be a list of areas, got {doc['init']!r}") from None
    # without a stated count, the panels are the start's, or 8 for a random start
    default_segments = 8 if init_areas is None else len(init_areas)
    segments = args.segments
    if segments is None:
        segments = _segment_count(doc.get("segments", default_segments))
    if init_areas is None:
        init_areas = random_areas(Lcg64(args.seed), segments)
    elif len(init_areas) != segments:
        raise ValueError(
            f"'init' has {len(init_areas)} entries but the problem has {segments} segments"
        )

    problem = opt.OptimizationProblem.from_areas(
        init_areas, V_target=float(doc["V"]), L=float(doc["L"]), law=law, E=float(doc["E"])
    )
    trace = opt.optimize(problem, max_iters=args.max_iters, tol=args.tol)
    print(trace.to_json_lines())
    bound = iso.upper_bound(problem.E, law, problem.V_target, problem.L)
    print(
        json.dumps(
            {
                "converged": trace.converged,
                "iterations": len(trace.iterates) - 1,
                "final_gap": trace.final_gap,
                "final_M_star": trace.final.M_star,
                "M_bound": bound,
            }
        )
    )
    return EXIT_OK if trace.converged else EXIT_NOT_CONVERGED


def _suite(disagreements: list[tuple[float, dict]], tolerance: float) -> dict:
    """Report of one verify suite from each case's disagreement and the
    labels a failure of it reports."""
    worst = 0.0
    failures = []
    for case, (d, labels) in enumerate(disagreements):
        worst = max(worst, d)
        if d > tolerance:
            failures.append({"case": case, "disagreement": d, **labels})
    return {
        "cases": len(disagreements),
        "max_disagreement": worst,
        "tolerance": tolerance,
        "pass": not failures,
        "failures": failures,
    }


def _isoperimetric_case(spec: RodSpec, theta_override: bool) -> tuple[float, dict]:
    exponent = spec.law.n
    profile = area_profile(spec)
    report = iso._bound_report(spec, profile, critical_torque_value(spec))
    violation = max(0.0, report.ratio - 1.0)
    theta = 1.0 / (exponent + 1.0) if theta_override else None
    residuals = iso.split_identity_residuals(profile, exponent, theta)
    return max(violation, *residuals), {"n": exponent}


def cmd_verify(args: argparse.Namespace) -> int:
    """Three suites of ``args.n`` seeded cases each: the closed form against
    the shooting oracle, the isoperimetric bound with its split identity,
    and the anisotropic reduction against the unreduced shooting.  Every
    case is drawn first; the oracle roots of both shooting suites are then
    found together (:func:`~twistrod.oracle.first_roots`)."""
    n = args.n
    if n < 0:
        raise ValueError(f"--n must be at least 0, got {n}")
    rng = Lcg64(args.seed)
    rods = [random_rod_spec(rng) for _ in range(n)]
    rng = Lcg64(args.seed + 1)
    bound_cases = [
        RodSpec(E=1.0, J_ref=1.0, shape=random_piecewise_shape(rng), law=law_for_exponent(1 + case % 3))
        for case in range(n)
    ]
    rng = Lcg64(args.seed + 2)
    anisotropic = [random_anisotropic_spec(rng) for _ in range(n)]
    shot = oracle.first_roots(
        [(s.shape, s.E, s.J_ref, s.J_ref) for s in rods]
        + [(a.shape, a.E, a.section.Jy, a.section.Jz) for a in anisotropic],
        steps=args.steps,
    )
    exact = [critical_torque_value(s) for s in rods]
    exact += [critical_torque_value(aniso.reduce_to_isotropic(a)) for a in anisotropic]
    disagreements = [(abs(m - e) / e, {}) for m, e in zip(shot, exact)]
    suites = {
        "torque_vs_oracle": _suite(disagreements[:n], ORACLE_TOLERANCE),
        "isoperimetric_bound": _suite(
            [_isoperimetric_case(spec, args.inject_wrong_exponent) for spec in bound_cases],
            BOUND_TOLERANCE,
        ),
        "anisotropic_reduction": _suite(disagreements[n:], ORACLE_TOLERANCE),
    }
    all_pass = all(s["pass"] for s in suites.values())
    print(
        json.dumps(
            {
                "seed": args.seed,
                "n": args.n,
                "steps": args.steps,
                "suites": suites,
                "pass": all_pass,
            },
            indent=2,
        )
    )
    return EXIT_OK if all_pass else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistrod",
        description="Critical twist-buckling torque of variable-cross-section rods: "
        "exact value, shooting cross-check, isoperimetric bound, shape optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="Analyze one rod spec (JSON report).")
    p_analyze.add_argument("--spec", required=True, help="Rod spec JSON file.")
    p_analyze.add_argument("--out", help="Write the buckling-mode samples to this CSV.")
    p_analyze.add_argument(
        "--oracle", action="store_true", help="Also run the shooting eigensolver."
    )
    p_analyze.add_argument(
        "--steps", type=int, default=oracle.DEFAULT_STEPS, help="RK4 steps per panel."
    )
    p_analyze.set_defaults(func=cmd_analyze)

    p_opt = sub.add_parser("optimize", help="Run the fixed-volume shape optimizer.")
    p_opt.add_argument("--spec", required=True, help="Problem JSON file.")
    p_opt.add_argument("--segments", type=int, help="Override the panel count.")
    p_opt.add_argument("--max-iters", type=int, default=1000)
    p_opt.add_argument("--tol", type=float, default=1e-10)
    p_opt.add_argument(
        "--seed", type=int, default=1, help="Seed for the random start when 'init' is absent."
    )
    p_opt.set_defaults(func=cmd_optimize)

    p_verify = sub.add_parser("verify", help="Cross-validation suites on random cases.")
    p_verify.add_argument("--n", type=int, default=50, help="Cases per suite.")
    p_verify.add_argument("--seed", type=int, default=2024)
    p_verify.add_argument("--steps", type=int, default=oracle.DEFAULT_STEPS, help="RK4 steps per panel.")
    p_verify.add_argument(
        "--inject-wrong-exponent", action="store_true", help=argparse.SUPPRESS
    )
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (QuadratureError, RootSearchError, EigenvalueConsistencyError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
