"""Command-line interface: analyze a rod, optimize a shape, cross-verify.

Exit codes: 0 success, 1 verification failure, 2 malformed input,
3 numerical failure, 4 optimizer did not converge.

All output is machine-readable: one JSON report on stdout for
``analyze`` and ``verify``, JSON lines for ``optimize``; mode-shape
samples go to CSV.  Reports echo the fully resolved input, so a run can
be reproduced from its report alone.  Malformed input (a spec that is
no JSON object, a file that cannot be read or written, a field of the
wrong type) exits 2 with an ``input error:`` line, never a traceback.

``COMMANDS`` maps each command to its help, the function that adds its
arguments and its handler.  ``main`` builds a fresh parser on every
call: the parser of the command it runs alone, the one the full parser
would build as that command's subparser, without the ``twistrod``
parser around it.  Building the full parser cost about as much as the
library work of an ``analyze``.  Help, no command, an unknown one and
arguments the command does not take get the full parser, and its help
or usage error.
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
from .greenhill import _critical_torques, critical_torque_constant, mode_shape
from .sampling import Lcg64, random_anisotropic_spec, random_areas, random_rod_spec
from .shape import (
    CrossSectionLaw,
    RodSpec,
    ShapeFunction,
    area_profile,
    json_number,
    json_numbers,
    json_whole_number,
)
from .transform import physical_length

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERIC_ERROR = 3
EXIT_NOT_CONVERGED = 4

ORACLE_TOLERANCE = 1e-6
BOUND_TOLERANCE = 1e-10
# most panels of a random start; 'init' may give more
MAX_RANDOM_SEGMENTS = 2**16


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"input file not found: {path}") from None
    except OSError as exc:
        raise ValueError(f"cannot read input file {path}: {exc.strerror}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: the top level must be a JSON object, not {json.dumps(doc)[:40]}")
    return doc


def _parse_rod(doc: dict) -> tuple[RodSpec, aniso.AnisotropicRodSpec | None, dict]:
    """Resolve a rod document into an isotropic spec (reducing anisotropic
    input) plus the original anisotropic spec when present, and the echo."""
    for key in ("E", "shape", "law"):
        if key not in doc:
            raise ValueError(f"rod spec missing required field '{key}'")
    shape = ShapeFunction.from_dict(doc["shape"])
    law = CrossSectionLaw.from_dict(doc["law"])
    E = json_number(doc["E"], "'E'")
    echo: dict = {"E": E, "shape": shape.to_dict(), "law": law.to_dict()}

    if "Jy" in doc or "Jz" in doc:
        if not ("Jy" in doc and "Jz" in doc):
            raise ValueError("anisotropic spec needs both 'Jy' and 'Jz'")
        if "J_ref" in doc:
            raise ValueError("give either 'J_ref' or the pair 'Jy'/'Jz', not both")
        section = aniso.AnisotropicSection(
            Jy=json_number(doc["Jy"], "'Jy'"), Jz=json_number(doc["Jz"], "'Jz'")
        )
        aspec = aniso.AnisotropicRodSpec(E=E, section=section, shape=shape, law=law)
        spec = aniso.reduce_to_isotropic(aspec)
        echo.update({"Jy": section.Jy, "Jz": section.Jz, "J_effective": spec.J_ref})
        return spec, aspec, echo
    if "J_ref" not in doc:
        raise ValueError("rod spec missing 'J_ref' (or the pair 'Jy'/'Jz')")
    spec = RodSpec(E=E, J_ref=json_number(doc["J_ref"], "'J_ref'"), shape=shape, law=law)
    echo["J_ref"] = spec.J_ref
    return spec, None, echo


def cmd_analyze(args: argparse.Namespace) -> int:
    """One rod's report: the equivalent length l, M* as Greenhill's torque
    at l, and its isoperimetric bound.  The buckling mode is built only to
    be written to ``--out``, as ``mode_shape`` at M*; an anisotropic rod's
    mode is then mapped back to physical deflections
    (``anisotropic.mode_to_anisotropic``)."""
    _check_steps(args.steps)
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
        try:
            mode.to_csv(args.out)
        except OSError as exc:
            raise ValueError(f"cannot write --out {args.out}: {exc.strerror}") from None
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
            "steps": args.steps,
        }
    print(json.dumps(report, indent=2))
    return EXIT_OK


def cmd_optimize(args: argparse.Namespace) -> int:
    doc = _load_json(args.spec)
    for key in ("V", "L", "E", "law"):
        if key not in doc:
            raise ValueError(f"optimization problem missing required field '{key}'")
    law = CrossSectionLaw.from_dict(doc["law"])
    init_areas = json_numbers(doc["init"], "'init'") if "init" in doc else None
    # without a stated count, the panels are the start's, or 8 for a random start
    default_segments = 8 if init_areas is None else len(init_areas)
    segments = args.segments
    if segments is None:
        segments = json_whole_number(doc.get("segments", default_segments), "'segments'")
    if init_areas is None:
        if segments > MAX_RANDOM_SEGMENTS:
            raise ValueError(
                f"a random start takes at most {MAX_RANDOM_SEGMENTS} segments, got {segments};"
                " give 'init' for more"
            )
        init_areas = random_areas(Lcg64(args.seed), segments)
    elif len(init_areas) != segments:
        raise ValueError(
            f"'init' has {len(init_areas)} entries but the problem has {segments} segments"
        )

    problem = opt.OptimizationProblem.from_areas(
        init_areas,
        V_target=json_number(doc["V"], "'V'"),
        L=json_number(doc["L"], "'L'"),
        law=law,
        E=json_number(doc["E"], "'E'"),
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


def _check_steps(steps: int) -> None:
    """Refuse a ``--steps`` the oracle would refuse, whether or not it shoots."""
    if steps < oracle.MIN_STEPS:
        raise ValueError(f"--steps must be at least {oracle.MIN_STEPS}, got {steps}")


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


def _isoperimetric_case(spec: RodSpec, m_star: float, theta_override: bool) -> tuple[float, dict]:
    """One bound case: the bound's violation by the rod's critical torque
    ``m_star`` and the split identities' residuals, the worst of them."""
    exponent = spec.law.n
    profile = area_profile(spec)
    report = iso._bound_report(spec, profile, m_star)
    violation = max(0.0, report.ratio - 1.0)
    theta = 1.0 / (exponent + 1.0) if theta_override else None
    residuals = iso.split_identity_residuals(profile, theta=theta)
    return max(violation, *residuals), {"n": exponent}


def cmd_verify(args: argparse.Namespace) -> int:
    """Three suites of ``args.n`` seeded cases each: the closed form against
    the shooting oracle, the isoperimetric bound with its split identity,
    and the anisotropic reduction against the unreduced shooting.  Every
    case is drawn first.  The oracle roots of both shooting suites are then
    found together (:func:`~twistrod.oracle.first_roots`), and the
    closed-form torques of every rod drawn, the shooting rods, the
    anisotropic reductions and the bound rods, in one pass over their
    panel tables (``greenhill._critical_torques``)."""
    n = args.n
    if n < 0:
        raise ValueError(f"--n must be at least 0, got {n}")
    _check_steps(args.steps)
    rng = Lcg64(args.seed)
    rods = [random_rod_spec(rng) for _ in range(n)]
    rng = Lcg64(args.seed + 1)
    bound_cases = [random_rod_spec(rng, 1 + case % 3) for case in range(n)]
    rng = Lcg64(args.seed + 2)
    anisotropic = [random_anisotropic_spec(rng) for _ in range(n)]
    shot = oracle.first_roots(
        [(s.shape, s.E, s.J_ref, s.J_ref) for s in rods]
        + [(a.shape, a.E, a.section.Jy, a.section.Jz) for a in anisotropic],
        steps=args.steps,
    )
    exact = _critical_torques(rods + [aniso.reduce_to_isotropic(a) for a in anisotropic] + bound_cases)
    disagreements = [(abs(m - e) / e, {}) for m, e in zip(shot, exact)]
    bound = [
        _isoperimetric_case(spec, m_star, args.inject_wrong_exponent)
        for spec, m_star in zip(bound_cases, exact[2 * n :])
    ]
    suites = {
        "torque_vs_oracle": _suite(disagreements[:n], ORACLE_TOLERANCE),
        "isoperimetric_bound": _suite(bound, BOUND_TOLERANCE),
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


def _analyze_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", required=True, help="Rod spec JSON file.")
    parser.add_argument("--out", help="Write the buckling-mode samples to this CSV.")
    parser.add_argument(
        "--oracle", action="store_true", help="Also run the shooting eigensolver."
    )
    parser.add_argument(
        "--steps", type=int, default=oracle.DEFAULT_STEPS, help="RK4 steps per panel."
    )


def _optimize_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--spec", required=True, help="Problem JSON file.")
    parser.add_argument("--segments", type=int, help="Override the panel count.")
    parser.add_argument("--max-iters", type=int, default=1000)
    parser.add_argument("--tol", type=float, default=1e-10)
    parser.add_argument(
        "--seed", type=int, default=1, help="Seed for the random start when 'init' is absent."
    )


def _verify_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=50, help="Cases per suite.")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--steps", type=int, default=oracle.DEFAULT_STEPS, help="RK4 steps per panel.")
    parser.add_argument(
        "--inject-wrong-exponent", action="store_true", help=argparse.SUPPRESS
    )


# Each command's help, the function that adds its arguments, and its handler.
COMMANDS = {
    "analyze": ("Analyze one rod spec (JSON report).", _analyze_arguments, cmd_analyze),
    "optimize": ("Run the fixed-volume shape optimizer.", _optimize_arguments, cmd_optimize),
    "verify": ("Cross-validation suites on random cases.", _verify_arguments, cmd_verify),
}


def _command_parser(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """``parser`` with the arguments and the handler of command ``name``."""
    _, add_arguments, handler = COMMANDS[name]
    add_arguments(parser)
    parser.set_defaults(func=handler)
    return parser


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """A fresh parser of ``command`` alone, the one the full parser builds
    as its subparser (prog ``twistrod <command>``), or the full parser,
    with a subparser for every command, when ``command`` is None."""
    if command is not None:
        return _command_parser(argparse.ArgumentParser(prog=f"twistrod {command}"), command)
    parser = argparse.ArgumentParser(
        prog="twistrod",
        description="Critical twist-buckling torque of variable-cross-section rods: "
        "exact value, shooting cross-check, isoperimetric bound, shape optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in COMMANDS.items():
        _command_parser(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run the command named by ``argv[0]`` (``sys.argv[1:]`` when ``argv``
    is None) with the parser of that command alone.  Any other first word
    (none, ``-h``, ``--``, an unknown one), or arguments the command's
    parser leaves over, get the full parser, which parses ``argv`` and
    prints its help or usage error."""
    if argv is None:
        argv = sys.argv[1:]
    args, extras = None, argv
    if argv and argv[0] in COMMANDS:
        args, extras = build_parser(argv[0]).parse_known_args(argv[1:])
    if args is None or extras:
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
