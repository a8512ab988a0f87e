"""Tests of the benchmark itself: references, determinism, failure
accounting and a smoke run of every workload.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import twistrod.cli  # noqa: E402
import twistrod.oracle  # noqa: E402
import workloads  # noqa: E402
from twistrod.shape import ShapeFunction  # noqa: E402

README_ROD = {
    "E": 1.0,
    "J_ref": 1.0,
    "shape": {"kind": "piecewise", "L": 1.0, "values": [1.0, 2.0], "breakpoints": [0.0, 0.5, 1.0]},
    "law": {"n": 1, "alpha": 1.0},
}


def spec_metrics() -> tuple[list[str], list[str]]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in doc["end_to_end"]], [m["name"] for m in doc["per_layer"]]


class TestReference:
    def test_readme_example(self):
        assert ref.critical_torque(README_ROD) == pytest.approx(8 * math.pi / 3, rel=1e-15)
        ratio = ref.critical_torque(README_ROD) / ref.rod_bound(README_ROD)
        assert ratio == pytest.approx(8 / 9, rel=1e-15)

    @pytest.mark.parametrize("f1", [3.0, 1.0 + 1e-9, 1.0])
    def test_linear_panel_against_midpoint_sum(self, f1):
        doc = {"E": 1.0, "J_ref": 1.0, "law": {"n": 2, "alpha": 1.0},
               "shape": {"kind": "sampled", "L": 2.0, "values": [1.0, f1]}}
        m = 200_000
        ts = [(j + 0.5) / m for j in range(m)]
        fs = [1.0 + (f1 - 1.0) * t for t in ts]
        compliance = 2.0 * sum(1.0 / f for f in fs) / m
        volume = 2.0 * sum(math.sqrt(f) for f in fs) / m
        assert ref.critical_torque(doc) == pytest.approx(2 * math.pi / compliance, rel=1e-9)
        assert ref.volume(doc) == pytest.approx(volume, rel=1e-9)

    def test_anisotropic_uses_geometric_mean(self):
        doc = {**README_ROD, "Jy": 4.0, "Jz": 1.0}
        del doc["J_ref"]
        assert ref.critical_torque(doc) == pytest.approx(2 * ref.critical_torque(README_ROD))


class TestInputs:
    @staticmethod
    def inputs(workload: str, seed: int, workdir: Path) -> list[str]:
        workdir.mkdir()
        ops = workloads.make_ops(workload, seed, workdir)
        # analyze inputs also name their (per-directory) spec file
        return [json.dumps({k: v for k, v in op.inputs.items() if k != "spec"}) for op in ops]

    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_same_seed_same_inputs(self, workload, tmp_path):
        first = self.inputs(workload, 7, tmp_path / "a")
        assert first == self.inputs(workload, 7, tmp_path / "b")
        assert first != self.inputs(workload, 8, tmp_path / "c")

    def test_analyze_files_hold_the_checked_rods(self, tmp_path):
        for op in workloads.make_ops("analyze", 2, tmp_path):
            assert json.loads(Path(op.inputs["spec"]).read_text()) == op.inputs["rod"]

    def test_analyze_blocks_cover_every_kind_and_law(self, tmp_path):
        ops = workloads.make_ops("analyze", 3, tmp_path)
        block = [op.inputs["rod"] for op in ops[: len(ops) // workloads.ANALYZE_BLOCKS]]
        assert {d["shape"]["kind"] for d in block} == {"constant", "piecewise", "sampled"}
        assert {d["law"]["n"] for d in block} == {1, 2, 3}
        assert any("Jy" in d for d in block) and any(d["E"] == 2e11 for d in block)
        panels = [len(ref.panels(d["shape"])) for d in block]
        assert min(panels) == 1 and max(panels) > 100


class TestFailureAccounting:
    def test_malformed_input_is_a_failed_operation(self, tmp_path):
        ops = workloads.make_ops("analyze", 5, tmp_path)[:4]
        bad = dict(ops[2].inputs["rod"], E=-1.0)
        Path(ops[2].inputs["spec"]).write_text(json.dumps(bad))
        result = run.Run()
        for op in ops:
            run.loop([op], 1, 0.0, result, "mixed")
        assert result.attempted == 4
        assert [index for index, _, _ in result.failures] == [2]
        assert "exit code 2" in result.failures[0][2]

    def test_raising_operation_is_a_failed_operation(self):
        def boom():
            raise RuntimeError("boom")

        op = workloads.Op(0, "raises", boom, lambda out: (None, {}))
        latency, error, _ = run.execute(op)
        assert error and "RuntimeError: boom" in error

    def test_wrong_result_is_a_failed_operation(self):
        doc = README_ROD
        report = {"M_star": 8 * math.pi / 3 * (1 + 1e-8), "volume": 1.5, "M_bound": 3 * math.pi,
                  "ratio": 8 / 9}
        error, _ = workloads.check_analyze(doc, (0, json.dumps(report), ""))
        assert error and error.startswith("M_star")

    def test_broken_layer_separation_is_not_correct(self, capsys):
        args = run.parse_args(["--workload", "optimize", "--seed", "1", "--seconds", "1"])
        result = run.Run()
        result.attempted = 3
        run.report(args, {}, result, [], separated=False)
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["correct"] is False and out["failed"] == 0


def test_instrument_counts_and_restores():
    def current():
        return (twistrod.oracle.propagate, ShapeFunction.__dict__["evaluate"],
                ShapeFunction.__dict__["piecewise"], twistrod.cli.main)

    before = current()
    t = tracing.Tracer()
    with tracing.instrument(t):
        shape = ShapeFunction.piecewise([0.0, 0.5, 1.0], [1.0, 2.0])
        assert shape(0.25) == 1.0 and shape.evaluate(0.75) == 2.0
        assert workloads.run_cli(["analyze", "--spec", "missing.json"])[0] == 2
    assert current() == before
    assert t.stat("shape.construct").calls == 1
    # the __call__ alias counts as evaluate; _validate evaluates once more
    assert t.stat("shape.evaluate").calls == 3
    assert [name for _, name, *_ in t.spans] == ["cli.main"]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke(workload):
    e2e, layers = spec_metrics()
    plain = bench("--workload", workload, "--seed", "1", "--seconds", "0.05", "--trace", "0")
    assert plain.returncode == 0, plain.stderr
    result = json.loads(plain.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert sorted(result["metrics"]) == sorted(e2e)
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = bench("--workload", workload, "--seed", "1", "--seconds", "0.05", "--trace", "1")
    assert traced.returncode == 0, traced.stderr
    result = json.loads(traced.stdout.strip().splitlines()[-1])
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert sorted(metrics) == sorted(layers)
    # layer separation: only verify shoots, optimize never integrates
    assert (metrics["oracle.propagate.calls"] > 0) == (workload == "verify")
    assert (metrics["shape.integrate.calls"] == 0) == (workload == "optimize")


def test_replay_one_operation():
    out = bench("--workload", "optimize", "--seed", "3", "--replay", "5")
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("op 5 ")


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "analyze", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
