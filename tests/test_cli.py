import csv
import json
import shutil

import numpy as np
import pytest

from dwimoco import cli, pipeline
from dwimoco import io as dio
from dwimoco.phantom import PhantomSpec
from dwimoco.registration import DivergedError

CAPS = ["--max-outer", "2", "--max-inner", "3"]
# keeps a cohort whose invalid config went unnoticed small
SMALL_COHORT = ["--n-cases", "3", "--dims", "12,12,6", *CAPS]


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    root = tmp_path_factory.mktemp("cases")
    for s in (1, 2, 3):
        argv = ["simulate", "--dims", "16,16,8", "--seed", str(s), "--ga", str(20 + 5 * s)]
        assert cli.main(argv + ["--out", str(root / f"sim00{s}")]) == 0
    return root


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_cohort_cases_points_equal_analyze_methods(cases, tmp_path):
    out = tmp_path / "cohort"
    assert cli.main(["cohort", "--cases", str(cases), *CAPS, "--out", str(out)]) == 0
    cfg = cli.pipeline_config(json.loads((out / "effective_config.json").read_text()))
    want = {m: [] for m in pipeline.COHORT_METHODS}
    for manifest in sorted(cases.glob("*/manifest.json")):
        series, roi, ga = dio.read_case(manifest)
        for method, (adc, r2, failure) in pipeline.analyze_methods(series, roi, cfg).items():
            assert failure is None
            want[method].append([manifest.parent.name, dio.fmt(ga), dio.fmt(adc), dio.fmt(r2)])
    for method in pipeline.COHORT_METHODS:
        assert read_rows(out / f"cohort_points_{method}.csv")[1:] == want[method]
    assert read_rows(out / "failures.csv") == [["case_id", "reason"]]


def test_cohort_exits_3_and_lists_failures_when_every_case_diverges(
    cases, tmp_path, monkeypatch
):
    def diverge(*args, **kwargs):
        raise DivergedError("diverged: injected, at step 0", [])

    monkeypatch.setattr(pipeline, "optimize_fields", diverge)
    out = tmp_path / "cohort"
    assert cli.main(["cohort", "--cases", str(cases), *CAPS, "--out", str(out)]) == 3
    assert read_rows(out / "failures.csv") == [["case_id", "reason"]] + [
        [case_id, f"{method}: diverged: injected, at step 0"]
        for case_id in ("sim001", "sim002", "sim003")
        for method in ("no_model_fit", "full")
    ]
    assert not (out / "summary.csv").exists()


def test_cohort_empty_case_directory_exits_2(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert cli.main(["cohort", "--cases", str(empty), "--out", str(tmp_path / "out")]) == 2


def test_fit_non_finite_case_exits_2(cases, tmp_path):
    case = tmp_path / "case"
    shutil.copytree(cases / "sim001", case)
    raw = case / "b0.raw"
    flat = np.frombuffer(raw.read_bytes(), dtype="<f4").copy()
    flat[0] = np.nan
    raw.write_bytes(flat.tobytes())
    argv = ["fit", "--case", str(case / "manifest.json"), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2


def test_default_config_builds_the_library_defaults():
    cfg = cli.load_config(None)
    assert cli.pipeline_config(cfg) == pipeline.PipelineConfig()
    assert cli.phantom_spec(cfg) == PhantomSpec(noise_sigma=0.02, motion_amplitude=3.0)


@pytest.mark.parametrize(
    "command, config, flags",
    [
        ("morph", {"pipeline": {"max_outer_iters": 0}}, []),
        ("morph", {"pipeline": {"max_inner_steps": "abc"}}, []),
        ("morph", {"pipeline": {"floor_eps": 1e-6}}, []),
        ("morph", {}, ["--alpha1", "-1"]),
        ("morph", {}, ["--lr", "nan"]),
        ("morph", {}, ["--lr", "inf"]),
        ("morph", {"pipeline": {"lr_drop_factor": float("nan")}}, []),
        ("morph", {"pipeline": {"plateau_window": -2}}, []),
        ("morph", {"pipeline": {"plateau_rel_tol": float("nan")}}, []),
        ("morph", {"pipeline": {"plateau_rel_tol": -1e-5}}, []),
        ("morph", {"pipeline": {"adc_change_tol": -1}}, []),
        ("morph", {"pipeline": {"adc_change_tol": float("nan")}}, []),
        ("simulate", {}, ["--dims", "16,16,x"]),
        ("simulate", {}, ["--dims", "4,4,4"]),
        ("simulate", {"phantom": {"noise_sigma": -0.1}}, []),
        ("simulate", {}, ["--ga", "-5"]),
        ("simulate", {"phantom": {"ga_weeks": 0}}, []),
        ("cohort", {"cohort": {"n_cases": "x"}}, []),
        ("cohort", {"cohort": {"ga_min": -5.0}}, SMALL_COHORT),
        ("cohort", {"cohort": {"motion_min": 3.0, "motion_max": 1.0}}, SMALL_COHORT),
    ],
    ids=[
        "max_outer_zero",
        "max_inner_text",
        "removed_key",
        "alpha1_negative",
        "lr_nan",
        "lr_inf",
        "lr_drop_factor_nan",
        "plateau_window_negative",
        "plateau_rel_tol_nan",
        "plateau_rel_tol_negative",
        "adc_change_tol_negative",
        "adc_change_tol_nan",
        "dims_text",
        "roi_out_of_bounds",
        "noise_negative",
        "ga_negative",
        "ga_zero",
        "n_cases_text",
        "ga_min_negative",
        "motion_range_reversed",
    ],
)
def test_invalid_config_exits_2_before_writing(cases, tmp_path, command, config, flags):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = [command, "--config", str(config_path), "--out", str(out), *flags]
    if command == "morph":
        argv += ["--case", str(cases / "sim001" / "manifest.json")]
    assert cli.main(argv) == 2
    assert not (out / "effective_config.json").exists()


def test_morph_rerun_from_effective_config_is_byte_identical(tmp_path):
    case = tmp_path / "case"
    assert cli.main(["simulate", "--dims", "16,16,6", "--seed", "4", "--out", str(case)]) == 0
    manifest = str(case / "manifest.json")
    first, second = tmp_path / "first", tmp_path / "second"
    argv = ["morph", "--case", manifest, "--max-outer", "3", "--max-inner", "5"]
    assert cli.main(argv + ["--out", str(first)]) == 0
    config = str(first / "effective_config.json")
    assert cli.main(["morph", "--case", manifest, "--config", config, "--out", str(second)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert sorted(p.name for p in second.iterdir()) == names
    assert {"effective_config.json", "summary.csv", "best_adc.raw"} <= set(names)
    for name in names:
        assert (second / name).read_bytes() == (first / name).read_bytes(), name


def _cohort_failures_with_a_bad_case(cases, tmp_path, edit):
    """Run `cohort --cases` over the three good cases plus sim004 spoiled by
    `edit`; check the good cases keep their points and return failures.csv."""
    root = tmp_path / "cases"
    shutil.copytree(cases, root)
    bad = root / "sim004"
    assert cli.main(["simulate", "--dims", "16,16,8", "--seed", "4", "--out", str(bad)]) == 0
    edit(bad)
    out = tmp_path / "cohort"
    assert cli.main(["cohort", "--cases", str(root), *CAPS, "--out", str(out)]) == 0
    for method in pipeline.COHORT_METHODS:
        points = read_rows(out / f"cohort_points_{method}.csv")[1:]
        assert [r[0] for r in points] == ["sim001", "sim002", "sim003"]
    rows = read_rows(out / "failures.csv")
    assert [r[0] for r in rows[1:]] == ["sim004"]
    return rows


def test_cohort_cases_reports_a_case_with_invalid_ga_and_keeps_the_rest(cases, tmp_path):
    def negative_ga(case):
        manifest = json.loads((case / "manifest.json").read_text())
        manifest["ga_weeks"] = -5.0
        (case / "manifest.json").write_text(json.dumps(manifest))

    rows = _cohort_failures_with_a_bad_case(cases, tmp_path, negative_ga)
    assert "ga_weeks must be > 0" in rows[1][1]


def test_cohort_cases_reports_a_case_with_an_empty_roi_and_keeps_the_rest(cases, tmp_path):
    def empty_roi(case):
        roi = dio.read_mask(case / "roi")
        dio.write_mask(dio.RoiMask(np.zeros(roi.dims, dtype=bool)), case / "roi")

    rows = _cohort_failures_with_a_bad_case(cases, tmp_path, empty_roi)
    assert rows[1][1].startswith("ManifestError(") and "holds no voxel" in rows[1][1]


def test_fit_both_methods_exits_0_with_a_row_each(cases, tmp_path):
    out = tmp_path / "fit"
    argv = ["fit", "--case", str(cases / "sim001" / "manifest.json"), "--method", "both"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    rows = read_rows(out / "roi_summary.csv")
    assert rows[0] == ["method", "roi_mean_adc_mm2s", "curve_adc_mm2s", "curve_r2"]
    assert [r[0] for r in rows[1:]] == ["lls", "irls"]
    for method in ("lls", "irls"):
        assert (out / f"{method}_adc.raw").exists()


def test_morph_exits_3_and_writes_failure_when_registration_diverges(
    cases, tmp_path, monkeypatch
):
    def diverge(*args, **kwargs):
        raise DivergedError("diverged: injected, at step 0", [])

    monkeypatch.setattr(pipeline, "optimize_fields", diverge)
    out = tmp_path / "morph"
    argv = ["morph", "--case", str(cases / "sim001" / "manifest.json"), *CAPS]
    assert cli.main(argv + ["--out", str(out)]) == 3
    assert (out / "failure.txt").read_text() == "diverged: injected, at step 0\n"


def test_one_voxel_thick_case_fits_but_morph_exits_2_before_writing(tmp_path):
    dims = (12, 12, 1)
    bvalues = (0.0, 200.0, 600.0)
    vols = tuple(dio.ScalarVolume(np.full(dims, np.exp(-2e-3 * b))) for b in bvalues)
    mask = np.zeros(dims, dtype=bool)
    mask[4:8, 4:8, 0] = True
    series = dio.BValueSeries(bvalues, vols)
    manifest = str(dio.write_case(series, dio.RoiMask(mask), 30.0, "flat", tmp_path / "flat"))
    assert cli.main(["fit", "--case", manifest, "--out", str(tmp_path / "fit")]) == 0
    out = tmp_path / "morph"
    assert cli.main(["morph", "--case", manifest, *CAPS, "--out", str(out)]) == 2
    assert not out.exists()
