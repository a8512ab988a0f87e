"""Command-line surface: reports, exit codes, determinism."""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np
import pytest

import twistrod.anisotropic as aniso
import twistrod.cli as cli
import twistrod.greenhill as greenhill
import twistrod.isoperimetric as iso
import twistrod.oracle as oracle
from twistrod.cli import main
from twistrod.errors import EigenvalueConsistencyError, QuadratureError, RootSearchError
from twistrod.shape import CrossSectionLaw, RodSpec, ShapeFunction
from twistrod.transform import CoordinateMap

CONSTANT_ROD = {
    "E": 1.0,
    "J_ref": 1.0,
    "shape": {"kind": "constant", "L": 1.0, "values": [1.0]},
    "law": {"n": 1, "alpha": 1.0},
}

PIECEWISE_ROD = {
    "E": 1.0,
    "J_ref": 1.0,
    "shape": {
        "kind": "piecewise",
        "L": 1.0,
        "values": [1.0, 2.0],
        "breakpoints": [0.0, 0.5, 1.0],
    },
    "law": {"n": 1, "alpha": 1.0},
}

ANISO_ROD = {
    "E": 1.0,
    "Jy": 4.0,
    "Jz": 1.0,
    "shape": {"kind": "constant", "L": 1.0, "values": [1.0]},
    "law": {"n": 2, "alpha": 0.07957747154594767},
}

PROBLEM = {
    "V": 2.0,
    "L": 1.0,
    "E": 1.0,
    "law": {"n": 1, "alpha": 1.0},
    "segments": 2,
    "init": [1.0, 3.0],
}


SAMPLED_ROD = {**CONSTANT_ROD, "shape": {"kind": "sampled", "L": 1.0, "values": [1.0, 1.5, 1.2]}}


def write(tmp_path, name: str, doc: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def with_shape(rod: dict, **fields) -> dict:
    return {**rod, "shape": {**rod["shape"], **fields}}


def spec_argv(command: str, doc, *options: str):
    """argv of ``command`` on a spec file holding ``doc``, for a ``tmp_path``."""
    return lambda tmp_path: [command, "--spec", write(tmp_path, "spec.json", doc), *options]


# Where a number belongs: a null, a boolean, a list, an object, a string
# and an integer too large for a float.  Put in the place of 1.0, true
# and "1.0" would each read as a valid 1.0 if they were taken for numbers.
NOT_NUMBERS = {"null": None, "true": True, "list": [1.0], "object": {}, "string": "1.0", "400-digits": 10**400}


def with_entry(numbers: list, bad) -> list:
    """``numbers`` with ``bad`` in the place of 1.0."""
    return [bad if x == 1.0 else x for x in numbers]


MALFORMED_INPUT = {
    **{f"{command}-top-level-{name}": spec_argv(command, doc)
       for command in ("analyze", "optimize")
       for name, doc in (("null", None), ("number", 5), ("list", [1]))},
    **{f"{command}-spec-is-a-directory": (lambda tmp_path, c=command: [c, "--spec", str(tmp_path)])
       for command in ("analyze", "optimize")},
    "analyze-out-in-missing-directory": lambda tmp_path: [
        "analyze", "--spec", write(tmp_path, "rod.json", CONSTANT_ROD),
        "--out", str(tmp_path / "no" / "mode.csv"),
    ],
    **{f"analyze-{key}-{name}": spec_argv("analyze", {**rod, key: bad})
       for key, rod in (("E", CONSTANT_ROD), ("J_ref", CONSTANT_ROD), ("Jy", ANISO_ROD), ("Jz", ANISO_ROD))
       for name, bad in NOT_NUMBERS.items()},
    **{f"analyze-{key}-{name}": spec_argv("analyze", {**CONSTANT_ROD, "law": {"n": 1, "alpha": 1.0, key: bad}})
       for key in ("n", "alpha") for name, bad in NOT_NUMBERS.items()},
    **{f"analyze-{rod['shape']['kind']}-L-{name}": spec_argv("analyze", with_shape(rod, L=bad))
       for rod in (CONSTANT_ROD, PIECEWISE_ROD, SAMPLED_ROD) for name, bad in NOT_NUMBERS.items()},
    # every entry of a list of numbers follows the rule of a single number
    **{f"analyze-{rod['shape']['kind']}-value-{name}": spec_argv(
        "analyze", with_shape(rod, values=with_entry(rod["shape"]["values"], bad)))
       for rod in (CONSTANT_ROD, PIECEWISE_ROD, SAMPLED_ROD) for name, bad in NOT_NUMBERS.items()},
    **{f"analyze-breakpoint-{name}": spec_argv(
        "analyze", with_shape(PIECEWISE_ROD, breakpoints=with_entry(PIECEWISE_ROD["shape"]["breakpoints"], bad)))
       for name, bad in NOT_NUMBERS.items()},
    **{f"analyze-{rod['shape']['kind']}-values-not-a-list": spec_argv("analyze", with_shape(rod, values=5))
       for rod in (CONSTANT_ROD, PIECEWISE_ROD, SAMPLED_ROD)},
    "analyze-breakpoints-object": spec_argv("analyze", with_shape(PIECEWISE_ROD, breakpoints={})),
    **{f"optimize-{key}-{name}": spec_argv("optimize", {**PROBLEM, key: bad})
       for key in ("V", "L", "E", "segments") for name, bad in NOT_NUMBERS.items()},
    **{f"optimize-init-{name}": spec_argv("optimize", {**PROBLEM, "init": with_entry(PROBLEM["init"], bad)})
       for name, bad in NOT_NUMBERS.items()},
    # a string is no list of areas, though its characters read as [1.0, 3.0]
    "optimize-init-not-a-list": spec_argv("optimize", {**PROBLEM, "init": "13"}),
    # a NaN gain test never stops the ascent, a negative tol accepts losses
    **{f"optimize-tol-{tol}": spec_argv("optimize", PROBLEM, "--tol", tol) for tol in ("nan", "-1")},
}


def run_cli(argv, capsys, entry=main) -> tuple:
    """Exit code, stdout and stderr of ``entry(argv)``, argparse's exits included."""
    try:
        code = entry(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_constant_rod_report(self, tmp_path, capsys):
        spec = write(tmp_path, "rod.json", CONSTANT_ROD)
        assert main(["analyze", "--spec", spec]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["M_star"] == pytest.approx(2.0 * math.pi, rel=1e-12)
        assert report["ratio"] == pytest.approx(1.0, abs=1e-10)
        assert report["l_physical"] == pytest.approx(1.0, rel=1e-12)
        assert "oracle" not in report  # only present with --oracle
        assert report["input"]["E"] == 1.0

    def test_piecewise_with_oracle(self, tmp_path, capsys):
        spec = write(tmp_path, "rod.json", PIECEWISE_ROD)
        assert main(["analyze", "--spec", spec, "--oracle"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["M_star"] == pytest.approx(8.0 * math.pi / 3.0, rel=1e-12)
        assert report["M_bound"] == pytest.approx(3.0 * math.pi, rel=1e-12)
        assert report["ratio"] == pytest.approx(8.0 / 9.0, rel=1e-12)
        assert report["oracle"]["disagreement"] <= 1e-8

    def test_one_area_profile_per_rod(self, tmp_path, capsys, monkeypatch):
        calls = []
        original = iso.area_profile

        def counting(spec):
            calls.append(spec)
            return original(spec)

        monkeypatch.setattr(cli, "area_profile", counting)
        monkeypatch.setattr(iso, "area_profile", counting)
        spec = write(tmp_path, "rod.json", PIECEWISE_ROD)
        assert main(["analyze", "--spec", spec]) == 0
        assert len(calls) == 1
        calls.clear()
        assert main(["verify", "--n", "3"]) == 0
        assert len(calls) == 3
        capsys.readouterr()

    def test_one_critical_torque_per_analyze(self, tmp_path, capsys, monkeypatch):
        # l and M* come from one coordinate map per rod
        builds = []
        original = CoordinateMap.build.__func__

        def counting(cls, shape):
            builds.append(shape)
            return original(cls, shape)

        monkeypatch.setattr(CoordinateMap, "build", classmethod(counting))
        for name, rod in (("rod.json", PIECEWISE_ROD), ("aniso.json", ANISO_ROD)):
            builds.clear()
            assert main(["analyze", "--spec", write(tmp_path, name, rod)]) == 0
            report = json.loads(capsys.readouterr().out)
            assert len(builds) == 1
            spec = cli._parse_rod(rod)[0]
            assert report["M_star"] == greenhill.critical_torque_value(spec)
            assert report["l_physical"] == CoordinateMap.build(spec.shape).l

    def test_mode_built_only_for_out(self, tmp_path, capsys, monkeypatch):
        calls = []
        original = cli.mode_shape

        def counting(spec, M):
            calls.append(M)
            return original(spec, M)

        monkeypatch.setattr(cli, "mode_shape", counting)
        for name, rod in (("rod.json", PIECEWISE_ROD), ("aniso.json", ANISO_ROD)):
            spec = write(tmp_path, name, rod)
            calls.clear()
            assert main(["analyze", "--spec", spec]) == 0
            assert calls == []
            report = json.loads(capsys.readouterr().out)
            assert main(["analyze", "--spec", spec, "--out", str(tmp_path / "mode.csv")]) == 0
            assert calls == [report["M_star"]]
            capsys.readouterr()

    def test_mode_csv_is_the_critical_torque_mode(self, tmp_path, capsys):
        sampled = {"kind": "sampled", "L": 1.7, "values": [1.0, 2.5, 0.4, 1.2]}
        rods = [
            PIECEWISE_ROD,
            {**PIECEWISE_ROD, "shape": sampled, "J_ref": 0.3},
            ANISO_ROD,
            {**ANISO_ROD, "shape": sampled, "Jy": 0.2, "Jz": 1.3},
        ]
        for rod in rods:
            out, expected = tmp_path / "mode.csv", tmp_path / "expected.csv"
            assert main(["analyze", "--spec", write(tmp_path, "rod.json", rod), "--out", str(out)]) == 0
            capsys.readouterr()
            shape = ShapeFunction.from_dict(rod["shape"])
            law = CrossSectionLaw.from_dict(rod["law"])
            if "Jy" in rod:
                section = aniso.AnisotropicSection(Jy=rod["Jy"], Jz=rod["Jz"])
                aspec = aniso.AnisotropicRodSpec(E=rod["E"], section=section, shape=shape, law=law)
                mode = greenhill.critical_torque(aniso.reduce_to_isotropic(aspec)).mode
                aniso.mode_to_anisotropic(mode, aspec.section.k).to_csv(expected)
            else:
                spec = RodSpec(E=rod["E"], J_ref=rod["J_ref"], shape=shape, law=law)
                greenhill.critical_torque(spec).mode.to_csv(expected)
            assert out.read_bytes() == expected.read_bytes()

    def test_mode_csv_written(self, tmp_path, capsys):
        spec = write(tmp_path, "rod.json", CONSTANT_ROD)
        out = tmp_path / "mode.csv"
        assert main(["analyze", "--spec", spec, "--out", str(out)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode_csv"] == str(out)
        assert out.read_text().startswith("x,y,z\n")

    def test_anisotropic_spec(self, tmp_path, capsys):
        spec = write(tmp_path, "rod.json", ANISO_ROD)
        assert main(["analyze", "--spec", spec, "--oracle", "--steps", "1024"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["input"]["J_effective"] == pytest.approx(2.0)
        assert report["M_star"] == pytest.approx(4.0 * math.pi, rel=1e-12)
        assert report["oracle"]["disagreement"] <= 1e-6

    def test_missing_file_is_input_error(self, capsys):
        assert main(["analyze", "--spec", "no-such-file.json"]) == 2
        assert "input error" in capsys.readouterr().err

    def test_malformed_json_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"E": 1.0,')
        assert main(["analyze", "--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_field_is_input_error(self, tmp_path, capsys):
        doc = dict(CONSTANT_ROD)
        del doc["law"]
        spec = write(tmp_path, "rod.json", doc)
        assert main(["analyze", "--spec", spec]) == 2
        assert "law" in capsys.readouterr().err

    def test_conflicting_inertia_fields(self, tmp_path, capsys):
        doc = dict(ANISO_ROD)
        doc["J_ref"] = 1.0
        spec = write(tmp_path, "rod.json", doc)
        assert main(["analyze", "--spec", spec]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({k: v for k, v in ANISO_ROD.items() if k != "Jz"}, "needs both 'Jy' and 'Jz'"),
            ({k: v for k, v in CONSTANT_ROD.items() if k != "J_ref"}, "missing 'J_ref'"),
        ],
    )
    def test_incomplete_inertia_is_input_error(self, tmp_path, capsys, doc, message):
        assert main(["analyze", "--spec", write(tmp_path, "rod.json", doc)]) == 2
        assert message in capsys.readouterr().err

    def test_sampled_shape_kind(self, tmp_path, capsys):
        doc = dict(CONSTANT_ROD)
        doc["shape"] = {"kind": "sampled", "L": 1.0, "values": [1.0, 1.5, 2.0, 1.5, 1.0]}
        spec = write(tmp_path, "rod.json", doc)
        assert main(["analyze", "--spec", spec, "--oracle", "--steps", "1024"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["oracle"]["disagreement"] <= 1e-6
        assert report["ratio"] < 1.0


@pytest.mark.parametrize("argv", MALFORMED_INPUT.values(), ids=MALFORMED_INPUT.keys())
def test_malformed_input_is_input_error(tmp_path, capsys, argv):
    # exit 1 means a failed verification: malformed input exits 2, never
    # with a traceback
    assert main(argv(tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


class TestLawExponent:
    @pytest.mark.parametrize("n", [1.5, True, "2", None])
    def test_not_a_whole_number_is_input_error(self, tmp_path, capsys, n):
        spec = write(tmp_path, "rod.json", {**CONSTANT_ROD, "law": {"n": n, "alpha": 1.0}})
        assert main(["analyze", "--spec", spec]) == 2
        captured = capsys.readouterr()
        assert f"input error: section-law exponent must be a whole number, got {n!r}" in captured.err
        assert captured.out == ""

    def test_whole_float_is_the_integer(self, tmp_path, capsys):
        law = {"n": 2, "alpha": 1.0}
        assert main(["analyze", "--spec", write(tmp_path, "int.json", {**CONSTANT_ROD, "law": law})]) == 0
        as_int = capsys.readouterr().out
        spec = write(tmp_path, "float.json", {**CONSTANT_ROD, "law": {**law, "n": 2.0}})
        assert main(["analyze", "--spec", spec]) == 0
        assert capsys.readouterr().out == as_int


class TestOptimize:
    def test_two_segment_problem(self, tmp_path, capsys):
        spec = write(tmp_path, "prob.json", PROBLEM)
        assert main(["optimize", "--spec", spec]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        final = json.loads(lines[-1])
        assert final["converged"] is True
        assert final["final_gap"] <= 1e-3
        assert final["final_M_star"] == pytest.approx(4.0 * math.pi, rel=1e-6)
        first = json.loads(lines[0])
        assert set(first) == {"iteration", "M_star", "gap", "volume_residual"}

    def test_constant_init_converges_at_zero(self, tmp_path, capsys):
        doc = dict(PROBLEM)
        doc["init"] = [2.0, 2.0]
        spec = write(tmp_path, "prob.json", doc)
        assert main(["optimize", "--spec", spec]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        final = json.loads(lines[-1])
        assert final["iterations"] == 0
        assert final["final_gap"] == 0.0

    def test_random_init_deterministic(self, tmp_path, capsys):
        doc = {k: v for k, v in PROBLEM.items() if k != "init"}
        spec = write(tmp_path, "prob.json", doc)
        argv = ["optimize", "--spec", spec, "--segments", "8", "--seed", "7"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        assert json.loads(first.strip().split("\n")[-1])["converged"] is True

    @pytest.mark.parametrize("key", ["V", "L", "E", "law"])
    def test_missing_field_is_input_error(self, tmp_path, capsys, key):
        doc = {k: v for k, v in PROBLEM.items() if k != key}
        assert main(["optimize", "--spec", write(tmp_path, "prob.json", doc)]) == 2
        assert f"missing required field '{key}'" in capsys.readouterr().err

    def test_init_length_mismatch(self, tmp_path, capsys):
        doc = dict(PROBLEM)
        doc["segments"] = 3
        spec = write(tmp_path, "prob.json", doc)
        assert main(["optimize", "--spec", spec]) == 2
        capsys.readouterr()

    def test_segments_default_to_init_length(self, tmp_path, capsys):
        # four init entries and no stated count: a four-panel problem, not 8
        doc = {k: v for k, v in PROBLEM.items() if k != "segments"}
        doc["init"] = [1.0, 3.0, 2.0, 1.5]
        spec = write(tmp_path, "prob.json", doc)
        assert main(["optimize", "--spec", spec]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert json.loads(lines[-1])["converged"] is True
        stated = write(tmp_path, "stated.json", {**doc, "segments": 4})
        assert main(["optimize", "--spec", stated]) == 0
        assert capsys.readouterr().out.strip().split("\n") == lines
        # an explicit count that disagrees with init is still malformed
        assert main(["optimize", "--spec", spec, "--segments", "8"]) == 2
        assert "4 entries but the problem has 8 segments" in capsys.readouterr().err

    @pytest.mark.parametrize("init", [3, None, {"a": 1.0}, [1.0, {"a": 1.0}]])
    def test_init_not_a_list_of_areas_is_input_error(self, tmp_path, capsys, init):
        spec = write(tmp_path, "prob.json", {**PROBLEM, "init": init})
        assert main(["optimize", "--spec", spec]) == 2
        assert "input error" in capsys.readouterr().err

    def test_segments_default_to_8_without_init(self, tmp_path, capsys):
        doc = {k: v for k, v in PROBLEM.items() if k not in ("init", "segments")}
        spec = write(tmp_path, "prob.json", doc)
        assert main(["optimize", "--spec", spec, "--seed", "7"]) == 0
        default = capsys.readouterr().out
        assert main(["optimize", "--spec", spec, "--seed", "7", "--segments", "8"]) == 0
        assert capsys.readouterr().out == default

    @pytest.mark.parametrize("stated", ["--segments", "segments"])
    def test_random_start_takes_at_most_2_16_panels(self, tmp_path, capsys, monkeypatch, stated):
        # one panel more is an input error, raised before any area is drawn
        doc = {k: v for k, v in PROBLEM.items() if k not in ("init", "segments")}
        drawn = []
        random_areas = cli.random_areas
        monkeypatch.setattr(cli, "random_areas", lambda rng, k: drawn.append(k) or random_areas(rng, k))
        for count, code in ((2**16, 4), (2**16 + 1, 2)):
            argv = ["optimize", "--max-iters", "0", "--spec"]
            if stated == "segments":
                argv += [write(tmp_path, "prob.json", {**doc, "segments": count})]
            else:
                argv += [write(tmp_path, "prob.json", doc), "--segments", str(count)]
            assert main(argv) == code
            captured = capsys.readouterr()
            if code == 2:
                assert captured.err == (
                    "input error: a random start takes at most 65536 segments, got 65537;"
                    " give 'init' for more\n"
                )
                assert captured.out == ""
        assert drawn == [2**16]

    def test_init_has_no_panel_cap(self, tmp_path, capsys):
        doc = {**PROBLEM, "init": [2.0] * (2**16 + 1), "segments": 2**16 + 1}
        assert main(["optimize", "--max-iters", "0", "--spec", write(tmp_path, "prob.json", doc)]) == 0
        final = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert final["final_gap"] == 0.0

    def test_iteration_starved_run_exits_nonconverged(self, tmp_path, capsys):
        spec = write(tmp_path, "prob.json", PROBLEM)
        assert main(["optimize", "--spec", spec, "--max-iters", "1"]) == 4
        lines = capsys.readouterr().out.strip().split("\n")
        final = json.loads(lines[-1])
        assert final["converged"] is False
        assert final["final_gap"] > 1e-3  # trace still emitted

    @pytest.mark.parametrize("key", ["V", "L", "E"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_parameter_is_input_error(self, tmp_path, capsys, key, bad):
        doc = dict(PROBLEM)
        doc[key] = bad  # json.dumps writes NaN / Infinity, which json.loads reads
        spec = write(tmp_path, "prob.json", doc)
        assert main(["optimize", "--spec", spec]) == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("segments", ["0", "-3"])
    def test_no_segments_is_input_error(self, tmp_path, capsys, segments):
        doc = {k: v for k, v in PROBLEM.items() if k != "init"}
        spec = write(tmp_path, "prob.json", doc)
        assert main(["optimize", "--spec", spec, "--segments", segments]) == 2
        assert "input error" in capsys.readouterr().err

    @pytest.mark.parametrize("segments", [None, 2.7, "8", True])
    def test_segments_not_a_whole_number_is_input_error(self, tmp_path, capsys, segments):
        doc = {k: v for k, v in PROBLEM.items() if k != "init"}
        spec = write(tmp_path, "prob.json", {**doc, "segments": segments})
        assert main(["optimize", "--spec", spec]) == 2
        captured = capsys.readouterr()
        assert "input error: 'segments' must be a whole number" in captured.err
        assert captured.out == ""

    def test_segments_as_whole_float_count(self, tmp_path, capsys):
        assert main(["optimize", "--spec", write(tmp_path, "int.json", PROBLEM)]) == 0
        as_int = capsys.readouterr().out
        spec = write(tmp_path, "float.json", {**PROBLEM, "segments": 2.0})
        assert main(["optimize", "--spec", spec]) == 0
        assert capsys.readouterr().out == as_int

    @pytest.mark.parametrize(
        "doc",
        [
            {**PROBLEM, "E": 1e308, "init": [1.0, 2.0, 3.0], "segments": 3},  # torque overflows
            {**PROBLEM, "V": 1e120, "law": {"n": 3, "alpha": 1.0}},  # compliance underflows
            {**PROBLEM, "V": 1e-120, "law": {"n": 3, "alpha": 1.0}},  # torque underflows
        ],
    )
    def test_torque_out_of_range_is_input_error(self, tmp_path, capsys, doc):
        assert main(["optimize", "--spec", write(tmp_path, "prob.json", doc)]) == 2
        captured = capsys.readouterr()
        assert "input error: torque of the starting profile" in captured.err
        for token in ("Infinity", "NaN"):
            assert token not in captured.out

    def test_tiny_volume_converges(self, tmp_path, capsys):
        # n h A**(-n-1) overflows at these areas, but the torque is finite
        # and the trial step reach * (A_min / A)**(n + 1) cannot overflow
        doc = {"V": 1e-80, "L": 1, "E": 1, "law": {"n": 3, "alpha": 1}, "init": [1, 2, 3]}
        assert main(["optimize", "--spec", write(tmp_path, "prob.json", doc)]) == 0
        captured = capsys.readouterr()
        final = json.loads(captured.out.strip().split("\n")[-1])
        assert final["converged"] is True and final["iterations"] > 0
        assert final["final_gap"] <= 1e-3
        assert final["final_M_star"] == pytest.approx(final["M_bound"], rel=1e-6)
        assert captured.err == ""

    def test_bound_whose_factors_overflow_is_finite(self, tmp_path, capsys):
        # V**n overflows a float, the bound 2 pi E alpha (V/L)**n / L does not
        doc = {"V": 1e200, "L": 1e200, "E": 1, "law": {"n": 2, "alpha": 1}, "init": [1, 2, 3]}
        assert main(["optimize", "--spec", write(tmp_path, "prob.json", doc)]) == 0
        final = json.loads(capsys.readouterr().out.strip().split("\n")[-1])
        assert final["converged"] is True
        assert math.isfinite(final["M_bound"]) and final["M_bound"] > 0.0
        assert final["final_M_star"] == pytest.approx(final["M_bound"], rel=1e-6)

    @pytest.mark.parametrize(
        "init, message",
        [
            ([1.0, math.inf], "panel areas must be finite, got inf"),
            ([math.nan, 1.0], "panel areas must be finite, got nan"),
            ([1.0, 1e308, 1e308], "the sum of the panel areas overflows"),
        ],
    )
    def test_nonfinite_init_is_named_input_error(self, tmp_path, capsys, init, message):
        doc = {**PROBLEM, "init": init, "segments": len(init)}
        assert main(["optimize", "--spec", write(tmp_path, "prob.json", doc)]) == 2
        captured = capsys.readouterr()
        assert f"input error: {message}" in captured.err
        assert captured.out == ""

    def test_unreachable_volume_is_input_error(self, tmp_path, capsys):
        doc = {**PROBLEM, "V": 1e300, "init": [1e-10, 1e-10]}
        assert main(["optimize", "--spec", write(tmp_path, "prob.json", doc)]) == 2
        captured = capsys.readouterr()
        assert "input error: the target volume 1e+300 cannot be reached" in captured.err
        assert captured.out == ""

    def test_empty_init_is_input_error(self, tmp_path, capsys):
        doc = {**PROBLEM, "segments": 0, "init": []}
        spec = write(tmp_path, "prob.json", doc)
        assert main(["optimize", "--spec", spec]) == 2
        assert "input error" in capsys.readouterr().err

    def test_negative_max_iters_is_input_error(self, tmp_path, capsys):
        spec = write(tmp_path, "prob.json", PROBLEM)
        assert main(["optimize", "--spec", spec, "--max-iters", "-1"]) == 2
        captured = capsys.readouterr()
        assert "input error" in captured.err and captured.out == ""


class TestNumericFailureExit:
    def test_numeric_errors_map_to_exit_3(self, tmp_path, capsys, monkeypatch):
        from twistrod.errors import RootSearchError
        import twistrod.cli as cli_module

        def boom(*args, **kwargs):
            raise RootSearchError("no eigenvalue bracketed")

        monkeypatch.setattr(cli_module.oracle, "critical_torque_oracle", boom)
        spec = write(tmp_path, "rod.json", CONSTANT_ROD)
        assert main(["analyze", "--spec", spec, "--oracle"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_unconfirmed_oracle_root_exits_3(self, tmp_path, capsys, monkeypatch):
        # a kernel whose trace crosses zero upward at M = 5, where det S is
        # 1: the crossing is no eigenvalue and must not be reported
        def unconfirmable(grid, M):
            half_trace = 0.5 * (np.asarray(M, dtype=float) - 5.0)
            ones = np.ones_like(half_trace)
            rows = [np.stack([half_trace, -ones], -1), np.stack([ones, half_trace], -1)]
            return np.stack(rows, -2)

        monkeypatch.setattr(cli.oracle, "propagate", unconfirmable)
        spec = write(tmp_path, "rod.json", CONSTANT_ROD)
        assert main(["analyze", "--spec", spec, "--oracle"]) == 3
        assert "not an eigenvalue" in capsys.readouterr().err


class TestVerify:
    def test_small_run_passes_and_is_deterministic(self, capsys):
        argv = ["verify", "--n", "3", "--seed", "42", "--steps", "1024"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        report = json.loads(first)
        assert report["pass"] is True
        suites = report["suites"]
        assert set(suites) == {
            "torque_vs_oracle",
            "isoperimetric_bound",
            "anisotropic_reduction",
        }
        assert suites["torque_vs_oracle"]["max_disagreement"] <= 1e-6
        assert suites["isoperimetric_bound"]["max_disagreement"] <= 1e-10
        assert suites["anisotropic_reduction"]["max_disagreement"] <= 1e-6

    def test_no_cases_pass(self, capsys):
        assert main(["verify", "--n", "0"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is True
        assert [s["cases"] for s in report["suites"].values()] == [0, 0, 0]

    def test_negative_count_is_input_error(self, capsys):
        assert main(["verify", "--n", "-3"]) == 2
        captured = capsys.readouterr()
        assert "input error" in captured.err and captured.out == ""

    def test_injected_wrong_exponent_fails(self, capsys):
        argv = [
            "verify", "--n", "2", "--seed", "42", "--steps", "1024",
            "--inject-wrong-exponent",
        ]
        assert main(argv) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["pass"] is False
        failing = report["suites"]["isoperimetric_bound"]
        assert failing["pass"] is False
        assert failing["failures"]  # offending cases are listed

    def test_shooting_suites_share_kernel_calls(self, capsys, monkeypatch):
        # the rods of both shooting suites are searched together, and the
        # phase places their roots before the one kernel call: each rod's row
        # holds its probes PROBE_RATIO apart through the first above its
        # root r, then r - e/2, r and r + e/2, e = (tol + RTOL) times that
        # probe, padded with its last
        calls = []
        propagate = cli.oracle.propagate

        def counting(grid, M):
            calls.append(np.array(M, dtype=float))
            return propagate(grid, M)

        monkeypatch.setattr(cli.oracle, "propagate", counting)
        for n in (1, 10):
            calls.clear()
            assert main(["verify", "--n", str(n), "--seed", "2024"]) == 0
            assert json.loads(capsys.readouterr().out)["pass"] is True
            (M,) = calls
            assert M.shape[0] == 2 * n
            for row in M:
                ratios = row[1:] / row[:-1]
                start = int(np.argmax(ratios < 1.0)) + 1
                root, e = row[start + 1], (oracle.DEFAULT_TOL + oracle.RTOL) * row[start - 1]
                assert ratios[: start - 1] == pytest.approx(oracle.PROBE_RATIO, rel=1e-12)
                assert row[start - 2] < root <= row[start - 1]
                assert row[start:].tolist() == [root - e / 2, root] + [root + e / 2] * (row.size - start - 2)


class TestVerifyThresholds:
    """Each suite's tolerance, exercised from both sides by a disagreement
    injected into its witness."""

    @pytest.mark.parametrize("factor, code", [(1.0 + 2e-6, 1), (1.0 + 5e-7, 0)])
    def test_oracle_tolerance(self, capsys, monkeypatch, factor, code):
        first_roots = cli.oracle.first_roots
        monkeypatch.setattr(
            cli.oracle, "first_roots", lambda *a, **k: [m * factor for m in first_roots(*a, **k)]
        )
        assert main(["verify", "--n", "2", "--seed", "5"]) == code
        suites = json.loads(capsys.readouterr().out)["suites"]
        for name in ("torque_vs_oracle", "anisotropic_reduction"):
            assert suites[name]["pass"] is (code == 0)
        assert suites["isoperimetric_bound"]["pass"] is True

    @pytest.mark.parametrize("offset, code", [(2e-10, 1), (5e-11, 0)])
    def test_bound_tolerance(self, capsys, monkeypatch, offset, code):
        residuals = iso.split_identity_residuals
        monkeypatch.setattr(
            iso, "split_identity_residuals", lambda *a, **k: tuple(r + offset for r in residuals(*a, **k))
        )
        assert main(["verify", "--n", "2", "--seed", "5"]) == code
        suites = json.loads(capsys.readouterr().out)["suites"]
        assert suites["isoperimetric_bound"]["pass"] is (code == 0)
        assert suites["torque_vs_oracle"]["pass"] is True


def test_step_defaults_are_the_oracle_default():
    parser = cli.build_parser()
    for argv in (["analyze", "--spec", "rod.json"], ["verify"]):
        assert parser.parse_args(argv).steps == oracle.DEFAULT_STEPS
        assert cli.build_parser(argv[0]).parse_args(argv[1:]).steps == oracle.DEFAULT_STEPS


@pytest.mark.parametrize("command", ["analyze", "verify"])
@pytest.mark.parametrize("shoots", [False, True], ids=["no-shooting", "shooting"])
def test_steps_below_oracle_minimum_is_input_error(tmp_path, capsys, command, shoots):
    # refused before any work, whether or not the run would shoot
    if command == "analyze":
        argv = ["analyze", "--spec", write(tmp_path, "rod.json", CONSTANT_ROD)] + ["--oracle"] * shoots
    else:
        argv = ["verify", "--n", str(int(shoots))]
    # accepted: verify may then fail its tolerance (exit 1), it does not refuse
    assert main(argv + ["--steps", str(oracle.MIN_STEPS)]) in (0, 1)
    assert json.loads(capsys.readouterr().out)
    assert main(argv + ["--steps", str(oracle.MIN_STEPS - 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"input error: --steps must be at least {oracle.MIN_STEPS}, got {oracle.MIN_STEPS - 1}\n"


def test_steps_checked_before_the_spec_is_read(capsys):
    assert main(["analyze", "--spec", "no-such-file.json", "--steps", "-5"]) == 2
    assert "--steps must be at least" in capsys.readouterr().err


# Help, usage errors and the success and input-error paths of each
# command; {rod}, {problem}, {missing} and {out} name files in tmp_path.
PARSER_BATTERY = [
    [], ["-h"], ["--help"], ["-h", "verify"], ["bogus"], ["anal"],
    ["analyze", "-h"], ["optimize", "-h"], ["verify", "-h"],
    ["verify", "--bogus"], ["optimize", "--spec", "{problem}", "--bogus"], ["verify", "--n", "0", "extra"],
    ["--", "verify", "--n", "0"], ["analyze"], ["optimize"], ["verify", "--n", "x"], ["verify", "--n"],
    ["analyze", "--steps", "x", "--spec", "{rod}"],
    ["analyze", "--spec", "{rod}"], ["analyze", "--spec", "{rod}", "--oracle", "--out", "{out}"],
    ["analyze", "--spec", "{missing}"],
    ["optimize", "--spec", "{problem}"], ["optimize", "--spec", "{missing}"],
    ["verify", "--n", "1"], ["verify", "--n", "-1"],
    # where the command's parser alone and the full parser could part:
    # "--", "-", "--opt=value", an abbreviation, the command word repeated,
    # an option without its value and an unknown short option
    ["verify", "--", "--n"], ["verify", "--n", "0", "--"], ["verify", "--n", "0", "-"],
    ["verify", "--n=0"], ["verify", "--se", "3", "--n", "0"],
    ["verify", "verify"], ["analyze", "--spec"], ["analyze", "--spec", "{rod}", "-x"],
]


def full_parser_main(argv) -> int:
    """``main`` as the full parser runs it: ``build_parser().parse_args``,
    then the handler, with ``main``'s exit codes for its errors."""
    args = cli.build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return cli.EXIT_INPUT_ERROR
    except (QuadratureError, RootSearchError, EigenvalueConsistencyError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return cli.EXIT_NUMERIC_ERROR


class TestParserPerCommand:
    """``main`` builds the parser of the command it runs, and only that."""

    @pytest.mark.parametrize(
        "argv", PARSER_BATTERY, ids=[" ".join(a) or "no-arguments" for a in PARSER_BATTERY]
    )
    def test_output_is_the_full_parsers(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        files = {
            "rod": write(tmp_path, "rod.json", PIECEWISE_ROD),
            "problem": write(tmp_path, "prob.json", PROBLEM),
            "missing": str(tmp_path / "missing.json"),
            "out": str(tmp_path / "mode.csv"),
        }
        argv = [word.format(**files) for word in argv]
        assert run_cli(argv, capsys) == run_cli(argv, capsys, full_parser_main)

    @staticmethod
    def parsers_built(monkeypatch) -> list:
        """A list that collects the prog of each ArgumentParser built from
        here on; a subparser's is ``twistrod <command>``."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        return built

    @pytest.mark.parametrize(
        "argv, added",
        [
            (["analyze", "--spec", "no-such-file.json"], []),
            (["optimize", "--spec", "no-such-file.json"], []),
            (["verify", "--n", "0"], []),
            (["--", "verify", "--n", "0"], ["analyze", "optimize", "verify"]),
            (["-h"], ["analyze", "optimize", "verify"]),
            (["bogus"], ["analyze", "optimize", "verify"]),
            (["verify", "--n", "0", "extra"], ["analyze", "optimize", "verify"]),
        ],
    )
    def test_subparsers_added(self, capsys, monkeypatch, argv, added):
        # a well-formed command run builds its own parser and nothing else;
        # the full parser is the twistrod parser and one subparser per
        # command, built after the command's own parser when that leaves
        # arguments over
        built = self.parsers_built(monkeypatch)
        run_cli(argv, capsys)
        expected = [f"twistrod {argv[0]}"] if argv[0] in cli.COMMANDS else []
        if added:
            expected += ["twistrod"] + [f"twistrod {name}" for name in added]
        assert built == expected

    def test_fresh_parser_per_call(self, capsys, monkeypatch):
        built = self.parsers_built(monkeypatch)
        for _ in range(2):
            assert run_cli(["verify", "--n", "0"], capsys)[0] == 0
        assert built == ["twistrod verify"] * 2

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        # the console script of pyproject.toml calls main() with no argv
        monkeypatch.setattr(sys, "argv", ["twistrod", "verify", "--n", "0", "--seed", "7"])
        assert main() == 0
        report = json.loads(capsys.readouterr().out)
        assert (report["seed"], report["n"]) == (7, 0)
