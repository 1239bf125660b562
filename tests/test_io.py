import json

import numpy as np
import pytest

from dwimoco import cli
from dwimoco import io as dio
from dwimoco.volume import BValueSeries, RoiMask, ScalarVolume


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


def _set_bvalue(value):
    def edit(manifest, _case):
        manifest["volumes"][1]["bvalue"] = value

    return edit


def _set_ga(value):
    def edit(manifest, _case):
        manifest["ga_weeks"] = value

    return edit


def _negative_signal(_manifest, case):
    raw = case / "b50.raw"
    flat = np.frombuffer(raw.read_bytes(), dtype="<f4").copy()
    flat[3] = -0.5
    raw.write_bytes(flat.tobytes())


@pytest.mark.parametrize(
    "edit",
    [
        _set_volume_entry(50.0),
        _set_volume_entry(["bvalue", "path"]),
        _set_bvalue("fifty"),
        _set_bvalue(None),
        _set_ga("thirty"),
        _set_ga(None),
        _set_ga(-5.0),
        _set_ga(0.0),
        _set_bvalue(-50.0),
        _negative_signal,
    ],
    ids=[
        "entry_number",
        "entry_list",
        "bvalue_text",
        "bvalue_null",
        "ga_text",
        "ga_null",
        "ga_negative",
        "ga_zero",
        "bvalue_negative",
        "signal_negative",
    ],
)
def test_malformed_case_raises_manifest_error_and_exits_2(tmp_path, edit):
    vols = tuple(ScalarVolume(np.full((4, 3, 2), s)) for s in (1.0, 0.9, 0.8))
    roi = RoiMask(np.ones((4, 3, 2), dtype=bool))
    path = dio.write_case(BValueSeries((0.0, 50.0, 100.0), vols), roi, 30.0, "c", tmp_path / "c")
    manifest = json.loads(path.read_text())
    edit(manifest, path.parent)
    path.write_text(json.dumps(manifest))
    with pytest.raises(dio.ManifestError):
        dio.read_case(path)
    assert cli.main(["fit", "--case", str(path), "--out", str(tmp_path / "out")]) == 2
