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
from .errors import ConvergenceError, EigenvalueConsistencyError, QuadratureError, RootSearchError
from .greenhill import critical_torque, critical_torque_value
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
    doc = _load_json(args.spec)
    spec, aspec, echo = _parse_rod(doc)

    result = (
        aniso.critical_torque(aspec) if aspec is not None else critical_torque(spec)
    )
    profile = area_profile(spec)
    report_bound = iso._bound_report(spec, profile, result.M_crit)

    mode_csv = None
    if args.out:
        result.mode.to_csv(args.out)
        mode_csv = str(Path(args.out))

    report = {
        "input": echo,
        "M_star": result.M_crit,
        "M_bound": report_bound.M_bound,
        "ratio": report_bound.ratio,
        "equality_gap": report_bound.equality_gap,
        "l_physical": physical_length(spec.shape),
        "volume": profile.volume,
        "mode_index": result.mode_index,
        "mode_csv": mode_csv,
    }
    if args.oracle:
        if aspec is not None:
            m_oracle = aniso.first_root_anisotropic(aspec, steps=args.steps)
        else:
            m_oracle = oracle.critical_torque_oracle(spec, steps=args.steps)
        report["oracle"] = {
            "M": m_oracle,
            "disagreement": abs(m_oracle - result.M_crit) / result.M_crit,
        }
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_optimize(args: argparse.Namespace) -> int:
    doc = _load_json(args.spec)
    for key in ("V", "L", "E", "law"):
        if key not in doc:
            raise ValueError(f"optimization problem missing required field '{key}'")
    law = CrossSectionLaw.from_dict(doc["law"])
    segments = args.segments if args.segments is not None else int(doc.get("segments", 8))
    if "init" in doc:
        init_areas = doc["init"]
        if len(init_areas) != segments:
            raise ValueError(
                f"'init' has {len(init_areas)} entries but the problem has {segments} segments"
            )
    else:
        init_areas = random_areas(Lcg64(args.seed), segments)

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


def _suite(n: int, tolerance: float, check) -> dict:
    """Report of one verify suite: ``check(case)`` returns the disagreement
    of case ``case`` and the labels a failure of it reports."""
    worst = 0.0
    failures = []
    for case in range(n):
        d, labels = check(case)
        worst = max(worst, d)
        if d > tolerance:
            failures.append({"case": case, "disagreement": d, **labels})
    return {
        "cases": n,
        "max_disagreement": worst,
        "tolerance": tolerance,
        "pass": not failures,
        "failures": failures,
    }


def _suite_torque_vs_oracle(seed: int, n: int, steps: int) -> dict:
    rng = Lcg64(seed)

    def check(case: int) -> tuple[float, dict]:
        spec = random_rod_spec(rng)
        m_exact = critical_torque_value(spec)
        m_oracle = oracle.critical_torque_oracle(spec, steps=steps)
        return abs(m_oracle - m_exact) / m_exact, {}

    return _suite(n, ORACLE_TOLERANCE, check)


def _suite_isoperimetric(seed: int, n: int, theta_override: bool) -> dict:
    rng = Lcg64(seed)

    def check(case: int) -> tuple[float, dict]:
        exponent = 1 + case % 3
        spec = RodSpec(
            E=1.0,
            J_ref=1.0,
            shape=random_piecewise_shape(rng),
            law=law_for_exponent(exponent),
        )
        profile = area_profile(spec)
        report = iso._bound_report(spec, profile, critical_torque_value(spec))
        violation = max(0.0, report.ratio - 1.0)

        theta = 1.0 / (exponent + 1.0) if theta_override else None
        residuals = iso.split_identity_residuals(profile, exponent, theta)
        return max(violation, *residuals), {"n": exponent}

    return _suite(n, BOUND_TOLERANCE, check)


def _suite_anisotropic(seed: int, n: int, steps: int) -> dict:
    rng = Lcg64(seed)

    def check(case: int) -> tuple[float, dict]:
        aspec = random_anisotropic_spec(rng)
        m_reduced = critical_torque_value(aniso.reduce_to_isotropic(aspec))
        m_shot = aniso.first_root_anisotropic(aspec, steps=steps)
        return abs(m_shot - m_reduced) / m_reduced, {}

    return _suite(n, ORACLE_TOLERANCE, check)


def cmd_verify(args: argparse.Namespace) -> int:
    suites = {
        "torque_vs_oracle": _suite_torque_vs_oracle(args.seed, args.n, args.steps),
        "isoperimetric_bound": _suite_isoperimetric(
            args.seed + 1, args.n, args.inject_wrong_exponent
        ),
        "anisotropic_reduction": _suite_anisotropic(args.seed + 2, args.n, args.steps),
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
    p_analyze.add_argument("--steps", type=int, default=4096, help="Shooting steps.")
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
    p_verify.add_argument("--steps", type=int, default=4096)
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
    except (QuadratureError, RootSearchError, EigenvalueConsistencyError, ConvergenceError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR


if __name__ == "__main__":
    sys.exit(main())
