import json

import numpy as np
import pytest

from dwimoco import cli
from dwimoco import io as dio
from dwimoco.maturity import CohortPoint, SaturationFit
from dwimoco.volume import BValueSeries, DisplacementField, RoiMask, ScalarVolume


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_read_volume_rejects_non_finite_payload(tmp_path, bad):
    dio.write_volume(ScalarVolume(np.ones((3, 2, 2))), tmp_path / "vol")
    raw = tmp_path / "vol.raw"
    flat = np.frombuffer(raw.read_bytes(), dtype="<f4").copy()
    flat[4] = bad
    raw.write_bytes(flat.tobytes())
    with pytest.raises(dio.ContainerError, match="non-finite"):
        dio.read_volume(tmp_path / "vol")


def _set_volume_entry(value):
    def edit(manifest, _case):
        manifest["volumes"][1] = value

    return edit


def _set_bvalue(value, entry=1):
    def edit(manifest, _case):
        manifest["volumes"][entry]["bvalue"] = value

    return edit


def _set_ga(value):
    def edit(manifest, _case):
        manifest["ga_weeks"] = value

    return edit


def _empty_roi(_manifest, case):
    dio.write_mask(RoiMask(np.zeros((4, 3, 2), dtype=bool)), case / "roi")


def _negative_signal(_manifest, case):
    raw = case / "b50.raw"
    flat = np.frombuffer(raw.read_bytes(), dtype="<f4").copy()
    flat[3] = -0.5
    raw.write_bytes(flat.tobytes())


def _write_small_case(tmp_path, ga_weeks=30.0):
    """A 4x3x2 case at b = 0, 50, 100 under tmp_path/c; returns its manifest path."""
    vols = tuple(ScalarVolume(np.full((4, 3, 2), s)) for s in (1.0, 0.9, 0.8))
    roi = RoiMask(np.ones((4, 3, 2), dtype=bool))
    series = BValueSeries((0.0, 50.0, 100.0), vols)
    return dio.write_case(series, roi, ga_weeks, "c", tmp_path / "c")


@pytest.mark.parametrize(
    "edit",
    [
        _set_volume_entry(50.0),
        _set_volume_entry(["bvalue", "path"]),
        _set_bvalue("fifty"),
        _set_bvalue(None),
        _set_ga("thirty"),
        _set_ga("31"),
        _set_ga(True),
        _set_ga(None),
        _set_ga(-5.0),
        _set_ga(0.0),
        _set_bvalue(-50.0),
        _set_bvalue(100.0),
        _set_bvalue(25.0, entry=0),
        _set_bvalue(False, entry=0),
        _negative_signal,
        _empty_roi,
    ],
    ids=[
        "entry_number",
        "entry_list",
        "bvalue_text",
        "bvalue_null",
        "ga_text",
        "ga_numeric_text",
        "ga_bool",
        "ga_null",
        "ga_negative",
        "ga_zero",
        "bvalue_negative",
        "bvalue_duplicate",
        "b0_missing",
        "b0_bool",
        "signal_negative",
        "roi_empty",
    ],
)
def test_malformed_case_raises_manifest_error_and_exits_2(tmp_path, edit):
    path = _write_small_case(tmp_path)
    manifest = json.loads(path.read_text())
    edit(manifest, path.parent)
    path.write_text(json.dumps(manifest))
    with pytest.raises(dio.ManifestError):
        dio.read_case(path)
    assert cli.main(["fit", "--case", str(path), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize(
    "key, value, error",
    [
        ("spacing", "abc", dio.SidecarFormatError),
        ("spacing", [1.0, 1.0], dio.SidecarFormatError),
        ("spacing", None, dio.SidecarFormatError),
        ("spacing", [-1, 1, 1], dio.SidecarFormatError),
        ("spacing", [2, 1, 1], dio.ManifestError),
        ("dims", 5, dio.SidecarFormatError),
        ("dims", None, dio.SidecarFormatError),
        ("dims", [4, 3], dio.SidecarFormatError),
        ("dims", "abc", dio.SidecarFormatError),
        ("dims", [4, 3, True], dio.SidecarFormatError),
        ("components", True, dio.SidecarFormatError),
        ("components", 1.0, dio.SidecarFormatError),
        ("bvalue", 600, dio.ManifestError),
        ("bvalue", True, dio.SidecarFormatError),
        ("bvalue", "fifty", dio.SidecarFormatError),
        ("dtype", "f64le", dio.SidecarFormatError),
        ("order", "z-fastest", dio.SidecarFormatError),
    ],
    ids=[
        "text",
        "two_entries",
        "null",
        "negative",
        "differs_from_b0",
        "dims_int",
        "dims_null",
        "dims_two_entries",
        "dims_text",
        "dims_bool",
        "components_bool",
        "components_float",
        "bvalue_differs_from_manifest",
        "bvalue_bool",
        "bvalue_text",
        "dtype_f64le",
        "order_z_fastest",
    ],
)
def test_bad_sidecar_spacing_is_rejected_and_exits_2(tmp_path, key, value, error):
    path = _write_small_case(tmp_path)
    sidecar = path.parent / "b50.json"
    side = json.loads(sidecar.read_text())
    side[key] = value
    sidecar.write_text(json.dumps(side))
    with pytest.raises(error, match=key):
        dio.read_case(path)
    assert cli.main(["fit", "--case", str(path), "--out", str(tmp_path / "out")]) == 2


def test_raw_one_float_short_is_rejected_and_exits_2(tmp_path):
    path = _write_small_case(tmp_path)
    raw = path.parent / "b50.raw"
    raw.write_bytes(raw.read_bytes()[:-4])
    with pytest.raises(dio.ContainerError, match="raw length mismatch, expected 96 bytes"):
        dio.read_case(path)
    assert cli.main(["fit", "--case", str(path), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize(
    "name, kind",
    [
        ("manifest.json", "directory"),
        ("manifest.json", "not_utf8"),
        ("b50.json", "directory"),
        ("b50.json", "not_utf8"),
        ("b50.raw", "directory"),
        ("config.json", "directory"),
        ("config.json", "not_utf8"),
    ],
    ids=lambda v: v.replace(".", "_"),
)
def test_an_unreadable_input_file_exits_2_and_writes_nothing(tmp_path, capsys, name, kind):
    path = _write_small_case(tmp_path)
    config = path.parent / "config.json"
    config.write_text("{}\n")
    target = path.parent / name
    target.unlink()
    if kind == "directory":
        target.mkdir()
    else:
        target.write_bytes(b"\xff\xfe{}")
    out = tmp_path / "out"
    argv = ["fit", "--case", str(path), "--config", str(config), "--out", str(out)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("ga", [-1.0, 0.0, np.nan], ids=["negative", "zero", "nan"])
def test_write_case_rejects_a_ga_that_read_case_rejects(tmp_path, ga):
    with pytest.raises(ValueError, match="ga_weeks must be finite and > 0"):
        _write_small_case(tmp_path, ga)
    assert not (tmp_path / "c").exists()


def test_write_case_ga_round_trips(tmp_path):
    assert dio.read_case(_write_small_case(tmp_path, 30.0))[2] == 30.0


def test_written_bytes_are_x_fastest_component_blocks(tmp_path):
    nx, ny, nz = 3, 4, 2
    n = nx * ny * nz
    x, y, z = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    # each voxel holds its x-fastest flat index: x + nx*(y + ny*z)
    index = (x + nx * (y + ny * z)).astype(np.float64)
    vol = ScalarVolume(index)
    dio.write_volume(vol, tmp_path / "vol")
    assert (tmp_path / "vol.raw").read_bytes() == np.arange(n, dtype="<f4").tobytes()
    np.testing.assert_array_equal(dio.read_volume(tmp_path / "vol").data, vol.data)
    # component c follows the whole of component c - 1
    field = DisplacementField(np.stack([index + c * n for c in range(3)], axis=-1))
    dio.write_field(field, tmp_path / "field")
    assert (tmp_path / "field.raw").read_bytes() == np.arange(3 * n, dtype="<f4").tobytes()
    np.testing.assert_array_equal(dio.read_field(tmp_path / "field").data, field.data)


def test_field_round_trip_keeps_component_order(tmp_path, rng):
    data = np.stack([np.full((4, 3, 2), c) for c in (1.0, 2.0, 3.0)], axis=-1)
    data += rng.normal(0.0, 0.1, data.shape)
    field = DisplacementField(data.astype(np.float32).astype(np.float64))
    dio.write_field(field, tmp_path / "field")
    np.testing.assert_array_equal(dio.read_field(tmp_path / "field").data, field.data)


def test_mask_round_trip(tmp_path, rng):
    mask = RoiMask(rng.random((5, 4, 3)) > 0.5)
    dio.write_mask(mask, tmp_path / "roi")
    np.testing.assert_array_equal(dio.read_mask(tmp_path / "roi").data, mask.data)


def test_volume_round_trip_keeps_spacing(tmp_path, rng):
    vol = ScalarVolume(rng.random((4, 3, 2)).astype(np.float32), spacing=(1.5, 2.0, 3.25))
    dio.write_volume(vol, tmp_path / "vol")
    back = dio.read_volume(tmp_path / "vol")
    assert back.spacing == (1.5, 2.0, 3.25)
    np.testing.assert_array_equal(back.data, vol.data)


def test_read_case_sorts_reversed_volume_entries(tmp_path, rng):
    bvalues = (0.0, 50.0, 100.0)
    vols = tuple(ScalarVolume(rng.random((4, 3, 2)) + 1.0 - 0.2 * i) for i in range(3))
    roi = RoiMask(np.ones((4, 3, 2), dtype=bool))
    path = dio.write_case(BValueSeries(bvalues, vols), roi, 30.0, "c", tmp_path / "c")
    manifest = json.loads(path.read_text())
    manifest["volumes"].reverse()
    path.write_text(json.dumps(manifest))
    series, _roi, _ga = dio.read_case(path)
    assert series.bvalues == bvalues
    for got, want in zip(series.volumes, vols):
        np.testing.assert_array_equal(got.data, want.data.astype(np.float32))


def test_ga_scatter_curve_starts_at_ga_0_below_1_week(tmp_path):
    # the plot's GA range starts 1 week below the youngest case; the model
    # curve is drawn from GA 0 on, where it starts at ADC 0
    points = [CohortPoint(f"c{i}", ga, 1e-3 * ga) for i, ga in enumerate((0.5, 1.5, 2.5))]
    fit = SaturationFit(3e-3, 0.5, 0.9)
    dio.write_ga_scatter_svg(points, fit, tmp_path / "scatter.svg", "t")
    svg = (tmp_path / "scatter.svg").read_text()
    first = svg.split('<polyline points="')[1].split(" ")[0]
    ax = dio._Axes((-0.5, 3.5), (0.0, 3e-3 * 1.15))
    assert first == f"{dio.fmt(ax.px(0.0))},{dio.fmt(ax.py(0.0))}"
