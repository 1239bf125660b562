import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dwimoco import phantom
from dwimoco.volume import DisplacementField


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
    # phantom.simulate_case must reach the benchmark's ground truth too, on
    # one-cycle modes and on the two-cycle modes of the benchmark's grid
    workloads = _perfbench_workloads(monkeypatch)
    for dims in ((12, 12, 6), (96, 96, 16)):
        spec = phantom.PhantomSpec(dims=dims, noise_sigma=0.02, motion_amplitude=2.0, seed=3)
        _maps, roi, clean, moved, fields = phantom.simulate_case(spec)
        b_clean, b_moved, b_roi, b_fields = workloads.simulate_case(spec)
        np.testing.assert_array_equal(b_roi.data, roi.data)
        for mine, theirs in ((clean, b_clean), (moved, b_moved)):
            assert theirs.bvalues == mine.bvalues
            for a, b in zip(mine.volumes, theirs.volumes, strict=True):
                assert b.data.tobytes() == a.data.tobytes()
        assert any(np.any(f.data != 0.0) for f in fields)
        for a, b in zip(fields, b_fields, strict=True):
            assert b.data.tobytes() == a.data.tobytes()


def _full_grid_field(dims, amplitude, rng):
    """Oracle: the field with every mode's sine over the whole grid and the
    magnitude from the field-sized (u * u).sum(axis=-1)."""
    if amplitude == 0.0:
        return DisplacementField.zero(dims)
    max_cycles = [max(1, int(n / phantom.MOTION_SMOOTHNESS)) for n in dims]
    grids = [np.arange(n, dtype=np.float64) / n for n in dims]
    xg = grids[0][:, None, None]
    yg = grids[1][None, :, None]
    zg = grids[2][None, None, :]
    u = np.zeros(tuple(dims) + (3,), dtype=np.float64)
    for c, t_std in enumerate((0.6, 0.6, 1.0)):
        u[..., c] += float(rng.normal(0.0, t_std))
        for _ in range(2):
            f = [int(rng.integers(0, m + 1)) for m in max_cycles]
            if all(v == 0 for v in f):
                f[int(rng.integers(0, 3))] = 1
            amp = float(rng.normal(0.0, 0.4))
            phase = float(rng.uniform(0.0, 2.0 * np.pi))
            u[..., c] += amp * np.sin(2.0 * np.pi * (f[0] * xg + f[1] * yg + f[2] * zg) + phase)
    mag = np.sqrt((u * u).sum(axis=-1)).max()
    if mag > 0:
        u *= amplitude / mag
    return DisplacementField(u)


@pytest.mark.parametrize(
    "dims",
    [(96, 96, 16), (128, 128, 40), (150, 97, 33), (24, 24, 8), (20, 20, 8)],
    ids=lambda dims: "x".join(map(str, dims)),
)
def test_smooth_random_field_has_the_bits_of_the_full_grid_formula(dims):
    # seed 0 runs at amplitude 0; the others at amplitudes from 0.25 to 5
    for seed in range(21):
        amplitude = 0.25 * seed
        mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        field = phantom._smooth_random_field(dims, amplitude, mine)
        oracle = _full_grid_field(dims, amplitude, theirs)
        assert field.data.tobytes() == oracle.data.tobytes(), (dims, seed)
        # the same draws, in the same order
        assert mine.random() == theirs.random(), (dims, seed)


def test_simulate_case_has_the_bits_of_the_full_grid_fields(monkeypatch):
    spec = phantom.PhantomSpec(dims=(96, 96, 16), noise_sigma=0.02, motion_amplitude=3.0, seed=5)
    mine = phantom.simulate_case(spec)
    monkeypatch.setattr(phantom, "_smooth_random_field", _full_grid_field)
    theirs = phantom.simulate_case(spec)
    _maps, roi, clean, moved, fields = mine
    _b_maps, b_roi, b_clean, b_moved, b_fields = theirs
    assert roi.data.tobytes() == b_roi.data.tobytes()
    for series, b_series in ((clean, b_clean), (moved, b_moved)):
        for a, b in zip(series.volumes, b_series.volumes, strict=True):
            assert a.data.tobytes() == b.data.tobytes()
    for a, b in zip(fields, b_fields, strict=True):
        assert a.data.tobytes() == b.data.tobytes()


def test_smooth_random_field_peak_stays_below_the_field_and_3_5_images():
    dims = (96, 96, 16)
    image_bytes = int(np.prod(dims)) * 8
    rng = np.random.default_rng(7)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        field = phantom._smooth_random_field(dims, 3.0, rng)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the full-grid formula's (u * u) and its sum peak at the field plus 4 images
    bound = field.data.nbytes + 3.5 * image_bytes
    assert peak < bound, (peak, bound)


@pytest.mark.parametrize(
    "change, message",
    [
        ({"noise_sigma": -0.1}, "noise_sigma must be finite and >= 0"),
        ({"noise_sigma": np.nan}, "noise_sigma must be finite and >= 0"),
        ({"motion_amplitude": np.nan}, "motion_amplitude must be finite and >= 0"),
        ({"motion_amplitude": np.inf}, "motion_amplitude must be finite and >= 0"),
        ({"lung_adc": np.nan}, "lung_adc must be finite and >= 0"),
        ({"bvalues": (50.0, 100.0)}, "first b-value must be 0"),
    ],
    ids=[
        "noise_negative",
        "noise_nan",
        "motion_amplitude_nan",
        "motion_amplitude_inf",
        "lung_adc_nan",
        "bvalues_without_b0",
    ],
)
def test_phantom_spec_rejects_an_invalid_value(change, message):
    with pytest.raises(ValueError, match=message):
        phantom.PhantomSpec(dims=(12, 12, 6), **change)
