"""Self-tests of the benchmark, on every workload shrunk to a tiny grid.

    python3 -m pytest -q perfbench/selftest.py

They check that every metric named in BENCHMARK.json is printed with its
unit, that traced spans nest (self time >= 0, every child inside its parent)
and that two identical runs give identical accuracy and step counts.  The
file name keeps it out of the default test collection, so the library's own
suite does not pay for it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import pytest  # noqa: E402

import bench  # noqa: E402
from spans import Span, nesting_problems  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "case_ref": replace(WORKLOADS["case_ref"], dims=(12, 12, 6), max_inner=2),
    "cohort_sim": replace(
        WORKLOADS["cohort_sim"], dims=(12, 12, 6), n_cases=3, max_outer=3, max_inner=3
    ),
    "fit_disk": replace(WORKLOADS["fit_disk"], dims=(12, 12, 6), n_cases=2),
}
SPEC = bench.load_spec(ROOT)
LAYER_NAMES = [m["name"] for m in SPEC["per_layer"]]
COUNTS = (
    "pipeline.outer_iters",
    "registration.inner_steps",
    "registration.lr_drops",
    "objective.loss_and_gradient.calls",
    "_kernels.warp3d.calls",
    "_kernels.match_terms.bytes_computed",
    "_kernels.adam_update.bytes_computed",
    "signal_model.irls_fit_volume.calls",
    "io.bytes_read",
    "io.bytes_written",
)


def measure(tmp_path, name, trace, seed=3):
    return bench.measure(tmp_path, TINY[name], seed, 0.0, trace, 0.1, LAYER_NAMES)


def test_tiny_workloads_cover_every_spec_workload():
    assert sorted(TINY) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_printed_with_its_unit(tmp_path, name, trace):
    result = measure(tmp_path, name, trace)
    lines = bench.render(SPEC, result)
    out = json.loads(lines[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True, result["problems"]
    assert out["failed"] == 0 and out["attempted"] >= 1
    defs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(out["metrics"]) == [m["name"] for m in defs]
    for m in defs:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
        assert any(line.startswith(f"{m['name']} ") and line.endswith(f" {m['unit']}")
                   for line in lines[:-1])
    if not trace:
        assert all(out["metrics"][m["name"]]["value"] > 0 for m in defs)


@pytest.mark.parametrize("name", sorted(TINY))
def test_spans_nest(tmp_path, name):
    measure(tmp_path, name, True)
    path = tmp_path / ".bench_build" / "perfbench" / f"spans-{name}-3.jsonl"
    spans = [Span(**json.loads(line)) for line in path.read_text().splitlines()]
    assert spans and nesting_problems(spans) == []
    assert any(s.run.startswith("unit-") and s.parent is None for s in spans)


def test_nesting_check_catches_a_child_outside_its_parent():
    spans = [Span(0, "a", "unit-1", None, 0.0, 1.0), Span(1, "b", "unit-1", 0, 0.2, 1.5)]
    assert len(nesting_problems(spans)) == 2  # outside the parent, and parent self time < 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_identical_runs_repeat_accuracy_and_counts(tmp_path, name):
    plain = measure(tmp_path / "a", name, False)
    first = measure(tmp_path / "b", name, True)
    second = measure(tmp_path / "c", name, True)
    assert plain["accuracy"] and plain["accuracy"] == first["accuracy"] == second["accuracy"]
    for key in COUNTS:
        assert first["per_layer"][key] == second["per_layer"][key], key


def test_failed_unit_is_counted_and_the_run_goes_on(tmp_path, monkeypatch):
    import dwimoco.cli

    def broken(argv):
        raise RuntimeError("diverged")

    monkeypatch.setattr(dwimoco.cli, "main", broken)
    result = measure(tmp_path, "fit_disk", False)
    out = json.loads(bench.render(SPEC, result)[-1])
    assert out["correct"] is False
    assert out["attempted"] == out["failed"] == 4
    assert "RuntimeError: diverged" in result["problems"][0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "case_ref", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
