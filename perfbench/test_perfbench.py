"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

Each workload runs once at the tiny size, traced and untraced; the gate is
checked with planted wrong values.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import run
import tracing
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END.items())
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.LAYER_METRICS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed
    }
    if workload == "commands":
        assert "known failure: disc defect-rounding: exit 2: error: line 241" in proc.stdout
        assert "known failure: disc defect-auto3d: exit 3: budget exceeded" in proc.stdout
    if trace:
        assert result["metrics"]["generators.rows_per_disc"]["value"] == 2


def test_bare_directory_fails_without_result():
    bare = run.ROOT / run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("presets", 0, cwd=bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture
def refs():
    sys.path.insert(0, str(run.ROOT / "src"))
    return gate.References()


def test_planted_wrong_scan_value_fails(refs):
    op = next(op for op in workloads.command_ops(3, "tiny") if op.name == "scan-lattice d=2")
    rc, out, err, _ = run.run_in_process(op)
    assert gate.check(refs, op, rc, out, err, gate.PassState()).status == "ok"
    vector = out.strip().splitlines()[-1].split(",")[2]  # the max row names its vector
    refs.lattice[workloads.lattice_key(16, map(int, vector.split("|")))] = "1/3"
    verdict = gate.check(refs, op, rc, out, err, gate.PassState())
    assert verdict.status == "failed" and f"D*({vector})" in verdict.message and "recorded 1/3" in verdict.message


def _preset_op(name="halton-2-3"):
    return next(op for op in workloads.preset_ops(0, "tiny") if op.name == f"experiment {name}")


def test_planted_wrong_table_value_fails(refs):
    op = _preset_op()
    recorded = refs.cli[op.key]["stdout"]
    row = recorded.splitlines()[1]
    planted = recorded.replace(row, row.replace(row.split(",")[3], "1/7"))
    verdict = gate.check(refs, op, 0, planted, "", gate.PassState())
    assert verdict.status == "failed" and "N=16" in verdict.message
    assert gate.check(refs, op, 0, recorded, "", gate.PassState()).status == "ok"


def test_bracket_reference_accepts_tighter_results(refs):
    op = _preset_op("hammersley-lattice")
    recorded = refs.cli[op.key]["stdout"]
    header, row = recorded.splitlines()
    cols = row.split(",")
    lo, hi = gate.Fraction(cols[4]), gate.Fraction(cols[5])

    def table(mode, value="", new_lo="", new_hi=""):
        return f"{header}\n{cols[0]},star,{mode},{value},{new_lo},{new_hi},{','.join(cols[6:])}\n"

    inside = table("exact", (lo + hi) / 2)
    narrower = table("bracketed", "", (lo + hi) / 2, hi)
    outside = table("exact", hi + 1 / gate.Fraction(10**9))
    state = gate.PassState()
    assert gate.check(refs, op, 0, inside, "", state).status == "ok"
    assert gate.check(refs, op, 0, narrower, "", state).status == "ok"
    assert gate.check(refs, op, 0, outside, "", state).status == "failed"


def test_known_failure_must_fail_the_recorded_way(refs):
    op = next(op for op in workloads.command_ops(0, "tiny") if op.name == "disc defect-auto3d")
    ref = refs.cli[op.key]
    assert gate.check(refs, op, ref["exit"], "", ref["stderr"], gate.PassState()).status == "known-failure"
    assert gate.check(refs, op, 1, "", "Traceback\n", gate.PassState()).status == "failed"
    fixed = json.dumps({"kind": "star", "mode": "exact", "N": 48, "d": 3, "value": "1/10", "resolution": None})
    assert gate.check(refs, op, 0, fixed, "", gate.PassState()).status == "unchecked"


def test_tracer_restores_every_wrapped_name():
    sys.path.insert(0, str(run.ROOT / "src"))
    import lowdisc.cli  # noqa: F401  loads every module of the package
    from lowdisc.algebra import FixedPointReal
    from lowdisc.generators import PointSet

    modules = [m for name, m in sys.modules.items() if name == "lowdisc" or name.startswith("lowdisc.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    rows, from_fraction = vars(PointSet)["rows"], vars(FixedPointReal)["from_fraction"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert lowdisc.cli.compute_discrepancy is not before[("lowdisc.cli", "compute_discrepancy")]
        assert lowdisc.discrepancy.star_disc_2d_sweep is not before[("lowdisc.discrepancy", "star_disc_2d_sweep")]
    finally:
        tracer.remove()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after == before
    assert vars(PointSet)["rows"] is rows and vars(FixedPointReal)["from_fraction"] is from_fraction
