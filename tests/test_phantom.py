import importlib.util
import sys
from pathlib import Path

import numpy as np

from dwimoco import phantom


def _perfbench_workloads(monkeypatch):
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the module body runs
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_perfbench_simulates_a_case_with_the_phantom_recipe(monkeypatch):
    # perfbench/workloads.py keeps its own copy of the recipe; a change to
    # phantom.simulate_case must reach the benchmark's ground truth too
    spec = phantom.PhantomSpec(dims=(12, 12, 6), noise_sigma=0.02, motion_amplitude=2.0, seed=3)
    _maps, roi, clean, moved, fields = phantom.simulate_case(spec)
    b_clean, b_moved, b_roi, b_fields = _perfbench_workloads(monkeypatch).simulate_case(spec)
    np.testing.assert_array_equal(b_roi.data, roi.data)
    for mine, theirs in ((clean, b_clean), (moved, b_moved)):
        assert theirs.bvalues == mine.bvalues
        for a, b in zip(mine.volumes, theirs.volumes, strict=True):
            assert b.data.tobytes() == a.data.tobytes()
    assert any(np.any(f.data != 0.0) for f in fields)
    for a, b in zip(fields, b_fields, strict=True):
        assert b.data.tobytes() == a.data.tobytes()
