"""Command-line surface: reports, exit codes, determinism."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

import twistrod.anisotropic as aniso
import twistrod.cli as cli
import twistrod.greenhill as greenhill
import twistrod.isoperimetric as iso
import twistrod.oracle as oracle
from twistrod.cli import main
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


def write(tmp_path, name: str, doc: dict) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


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

    def test_sampled_shape_kind(self, tmp_path, capsys):
        doc = dict(CONSTANT_ROD)
        doc["shape"] = {"kind": "sampled", "L": 1.0, "values": [1.0, 1.5, 2.0, 1.5, 1.0]}
        spec = write(tmp_path, "rod.json", doc)
        assert main(["analyze", "--spec", spec, "--oracle", "--steps", "1024"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["oracle"]["disagreement"] <= 1e-6
        assert report["ratio"] < 1.0


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
        # the rods of both shooting suites are searched together: each kernel
        # call serves every rod still searching (one call per rod and round
        # before)
        calls = []
        propagate = cli.oracle.propagate

        def counting(grid, M):
            calls.append(np.shape(M))
            return propagate(grid, M)

        monkeypatch.setattr(cli.oracle, "propagate", counting)
        for n, most in ((1, 5), (10, 8)):
            calls.clear()
            assert main(["verify", "--n", str(n), "--seed", "2024"]) == 0
            assert json.loads(capsys.readouterr().out)["pass"] is True
            assert len(calls) <= most and calls[0] == (2 * n, oracle.SCAN_BLOCK)


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
            iso, "split_identity_residuals", lambda *a: tuple(r + offset for r in residuals(*a))
        )
        assert main(["verify", "--n", "2", "--seed", "5"]) == code
        suites = json.loads(capsys.readouterr().out)["suites"]
        assert suites["isoperimetric_bound"]["pass"] is (code == 0)
        assert suites["torque_vs_oracle"]["pass"] is True


def test_step_defaults_are_the_oracle_default():
    parser = cli.build_parser()
    for argv in (["analyze", "--spec", "rod.json"], ["verify"]):
        assert parser.parse_args(argv).steps == oracle.DEFAULT_STEPS
