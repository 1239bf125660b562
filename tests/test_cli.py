import csv
import json
import shutil

import numpy as np
import pytest

from dwimoco import cli, phantom, pipeline
from dwimoco import io as dio
from dwimoco.registration import DivergedError

CAPS = ["--max-outer", "2", "--max-inner", "3"]
# keeps a cohort whose invalid config went unnoticed small
SMALL_COHORT = ["--n-cases", "3", "--dims", "12,12,6", *CAPS]
# keeps a simulated case whose invalid config went unnoticed small
SMALL_CASE = ["--dims", "12,12,6"]
NAN = float("nan")


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


def test_cohort_cases_of_one_ga_exits_3_and_lists_each_unfittable_method(tmp_path, capsys):
    root = tmp_path / "cases"
    for s in (1, 2, 3):  # every case at the default GA
        argv = ["simulate", "--dims", "16,16,8", "--seed", str(s)]
        assert cli.main(argv + ["--out", str(root / f"sim00{s}")]) == 0
    out = tmp_path / "cohort"
    assert cli.main(["cohort", "--cases", str(root), *CAPS, "--out", str(out)]) == 3
    assert read_rows(out / "failures.csv") == [["case_id", "reason"]] + [
        ["cohort", f"{method}: gestational ages are all equal"]
        for method in pipeline.COHORT_METHODS
    ]
    assert not (out / "summary.csv").exists()
    assert "Traceback" not in capsys.readouterr().err


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
    assert cli.phantom_spec(cfg) == phantom.PhantomSpec(noise_sigma=0.02, motion_amplitude=3.0)
    specs = cli.cohort_case_specs(cfg)
    assert specs == pipeline.make_cohort_case_specs(38, [96, 96, 16], seed=0)
    assert {s.noise_sigma for s in specs} == {0.02}


# the values of the simulated cases and cohorts that were once config keys
# (with their old defaults); a config that names one exits 2 as unknown
RETIRED_KEYS = {
    "phantom": {
        "lung_adc": 2.5e-3,
        "noise_sigma": 0.02,
        "motion_amplitude": 3.0,
        "bvalues": [0.0, 50.0, 100.0, 200.0, 400.0, 600.0],
    },
    "cohort": {
        "ga_min": 20.0,
        "ga_max": 38.0,
        "sat_adc": 3.2e-3,
        "sat_alpha": 0.07,
        "adc_bio_noise": 1.5e-4,
        "motion_min": 2.0,
        "motion_max": 4.0,
    },
}


@pytest.mark.parametrize(
    "section, key",
    [(section, key) for section, keys in RETIRED_KEYS.items() for key in keys],
    ids=lambda v: v,
)
def test_a_retired_key_is_an_unknown_key(tmp_path, capsys, section, key):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({section: {key: RETIRED_KEYS[section][key]}}))
    command = "simulate" if section == "phantom" else "cohort"
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(config_path), "--out", str(out)]) == 2
    assert f"error: unknown config key '{section}.{key}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, flags",
    [
        ("morph", {"pipeline": {"max_outer_iters": 0}}, []),
        ("morph", {"pipeline": {"max_inner_steps": "abc"}}, []),
        ("morph", {"pipeline": {"floor_eps": 1e-6}}, []),
        # settings that became module constants, at the values they had as keys
        ("morph", {"pipeline": {"lr_drop_factor": 10.0}}, []),
        ("morph", {"pipeline": {"plateau_rel_tol": 1e-5}}, []),
        ("morph", {"pipeline": {"adc_change_tol": 1e-3}}, []),
        ("morph", {"pipeline": {"alpha1": 0.01}}, []),
        ("morph", {"pipeline": {"learning_rate": 0.1}}, []),
        # values of another JSON type than the key's default
        ("morph", {"pipeline": {"max_outer_iters": 2.9}}, []),
        ("morph", {"pipeline": {"max_inner_steps": True}}, []),
        ("simulate", {"seed": 1.7}, SMALL_CASE),
        ("simulate", {}, [*SMALL_CASE, "--seed", "-1"]),
        ("simulate", {"phantom": {"dims": [20.5, 20, 8]}}, []),
        ("morph", {"pipeline": {"plateau_window": -2}}, []),
        ("simulate", {}, ["--dims", "16,16,x"]),
        ("simulate", {}, ["--dims", "4,4,4"]),
        # phantom settings that became module constants, at their old values
        ("simulate", {"phantom": {"background_adc": 1.0e-3}}, SMALL_CASE),
        ("simulate", {"phantom": {"lung_s0": 1.0}}, SMALL_CASE),
        ("simulate", {"phantom": {"background_s0": 0.55}}, SMALL_CASE),
        ("simulate", {"phantom": {"roi_margin": 2.0}}, SMALL_CASE),
        ("simulate", {"phantom": {"boundary_sigma": 1.0}}, SMALL_CASE),
        ("simulate", {"phantom": {"motion_smoothness": 48.0}}, SMALL_CASE),
        ("cohort", {"phantom": {"lung_s0": 1.0}}, SMALL_COHORT),
        ("simulate", {}, ["--ga", "-5"]),
        ("simulate", {"phantom": {"ga_weeks": 0}}, []),
        ("cohort", {"cohort": {"n_cases": "x"}}, []),
        ("cohort", {}, [*SMALL_COHORT, "--workers", "0"]),
        ("cohort", {}, [*SMALL_COHORT, "--workers", "-3"]),
        ("cohort", {}, [*SMALL_COHORT[2:], "--n-cases", "2"]),
        ("cohort", {"cohort": {"n_cases": 1}}, SMALL_COHORT[2:]),
        # keys of values that are no longer settings, at values the library
        # rejects (test_phantom.py, test_pipeline.py): each is an unknown key
        ("simulate", {"phantom": {"noise_sigma": "0.02"}}, SMALL_CASE),
        ("simulate", {"phantom": {"noise_sigma": -0.1}}, []),
        ("simulate", {"phantom": {"noise_sigma": NAN}}, SMALL_CASE),
        ("simulate", {"phantom": {"motion_amplitude": NAN}}, SMALL_CASE),
        ("simulate", {"phantom": {"motion_amplitude": float("inf")}}, SMALL_CASE),
        ("simulate", {"phantom": {"lung_adc": NAN}}, SMALL_CASE),
        ("simulate", {"phantom": {"bvalues": [50, 100]}}, SMALL_CASE),
        ("cohort", {"cohort": {"ga_min": -5.0}}, SMALL_COHORT),
        ("cohort", {"cohort": {"ga_min": 30.0, "ga_max": 30.0}}, SMALL_COHORT),
        ("cohort", {"cohort": {"motion_min": 3.0, "motion_max": 1.0}}, SMALL_COHORT),
        ("cohort", {"cohort": {"sat_adc": NAN}}, SMALL_COHORT),
        ("cohort", {"cohort": {"sat_alpha": -1}}, SMALL_COHORT),
        ("cohort", {"cohort": {"adc_bio_noise": NAN}}, SMALL_COHORT),
    ],
    ids=[
        "max_outer_zero",
        "max_inner_text",
        "removed_key",
        "removed_key_lr_drop_factor",
        "removed_key_plateau_rel_tol",
        "removed_key_adc_change_tol",
        "removed_key_alpha1",
        "removed_key_learning_rate",
        "max_outer_float",
        "max_inner_bool",
        "seed_float",
        "seed_negative",
        "dims_float",
        "plateau_window_negative",
        "dims_text",
        "roi_out_of_bounds",
        "removed_key_background_adc",
        "removed_key_lung_s0",
        "removed_key_background_s0",
        "removed_key_roi_margin",
        "removed_key_boundary_sigma",
        "removed_key_motion_smoothness",
        "removed_key_lung_s0_cohort",
        "ga_negative",
        "ga_zero",
        "n_cases_text",
        "workers_zero",
        "workers_negative",
        "two_cases",
        "one_case",
        "noise_sigma_text",
        "noise_negative",
        "noise_nan",
        "motion_amplitude_nan",
        "motion_amplitude_inf",
        "lung_adc_nan",
        "bvalues_without_b0",
        "ga_min_negative",
        "ga_range_one_point",
        "motion_range_reversed",
        "sat_adc_nan",
        "sat_alpha_negative",
        "adc_bio_noise_nan",
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


@pytest.mark.parametrize(
    "command, flag",
    [
        ("fit", ["--seed", "3"]),
        ("morph", ["--seed", "3"]),
        ("cohort", ["--lung-adc", "1e-4"]),
        ("cohort", ["--motion-amplitude", "9"]),
        # flags of settings that became module constants
        ("morph", ["--alpha1", "0.01"]),
        ("morph", ["--lr", "0.1"]),
        ("simulate", ["--lung-adc", "2.5e-3"]),
        ("simulate", ["--noise-sigma", "0.02"]),
        ("simulate", ["--motion-amplitude", "3"]),
        ("cohort", ["--noise-sigma", "0.02"]),
        ("cohort", ["--motion-min", "2"]),
        ("cohort", ["--motion-max", "4"]),
        # the convergence window is set only by a config file
        ("morph", ["--window", "3"]),
        ("cohort", ["--window", "3"]),
    ],
    ids=[
        "fit_seed",
        "morph_seed",
        "cohort_lung_adc",
        "cohort_motion_amplitude",
        "morph_alpha1",
        "morph_lr",
        "simulate_lung_adc",
        "simulate_noise_sigma",
        "simulate_motion_amplitude",
        "cohort_noise_sigma",
        "cohort_motion_min",
        "cohort_motion_max",
        "morph_window",
        "cohort_window",
    ],
)
def test_a_flag_the_command_does_not_read_is_a_usage_error(cases, tmp_path, command, flag):
    out = tmp_path / "out"
    argv = [command, *flag, "--out", str(out)]
    if command in ("fit", "morph"):
        argv += ["--case", str(cases / "sim001" / "manifest.json")]
    # keeps a run that wrongly takes the flag short
    argv += {"morph": CAPS, "cohort": SMALL_COHORT}.get(command, [])
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "flag",
    [
        ["--seed", "3"],
        ["--dims", "16,16,8"],
        ["--n-cases", "5"],
    ],
    ids=lambda flag: flag[0],
)
def test_cohort_cases_rejects_the_simulation_flags(cases, tmp_path, capsys, flag):
    out = tmp_path / "out"
    argv = ["cohort", "--cases", str(cases), *CAPS, *flag, "--out", str(out)]
    assert cli.main(argv) == 2
    assert f"error: --cases takes no simulation flag, got {flag[0]}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "dims", [[4, 4], [], [8, 8, 8, 8], [1, 8, 8]], ids=["two", "none", "four", "one_plane"]
)
@pytest.mark.parametrize("command", ["simulate", "cohort"])
def test_phantom_dims_that_are_not_three_integers_of_2_or_more_exit_2(
    tmp_path, capsys, command, dims
):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"phantom": {"dims": dims}}))
    out = tmp_path / "out"
    argv = [command, "--config", str(config_path), "--out", str(out)]
    if command == "cohort":
        argv += ["--n-cases", "3", *CAPS]
    assert cli.main(argv) == 2
    section = "phantom" if command == "simulate" else "cohort"
    want = f"error: invalid {section} config: phantom dims must be three integers >= 2, got {dims}"
    assert want in capsys.readouterr().err
    assert not out.exists()


def test_cohort_cases_with_fewer_than_3_cases_exits_2_before_work(
    cases, tmp_path, capsys, monkeypatch
):
    root = tmp_path / "cases"
    for name in ("sim001", "sim002"):
        shutil.copytree(cases / name, root / name)

    def no_analysis(*args, **kwargs):
        raise AssertionError("a cohort of 2 cases was analyzed")

    monkeypatch.setattr(pipeline, "analyze_methods", no_analysis)
    out = tmp_path / "out"
    assert cli.main(["cohort", "--cases", str(root), *CAPS, "--out", str(out)]) == 2
    want = f"error: a cohort needs 3 cases or more, got 2 case manifests under {root}"
    assert want in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["file", "under_file", "dangling_link"])
@pytest.mark.parametrize("command", ["simulate", "fit", "morph", "cohort"])
def test_an_out_that_cannot_be_a_directory_exits_2_before_work(
    cases, tmp_path, capsys, monkeypatch, command, kind
):
    for name in ("cmd_simulate", "cmd_fit", "cmd_morph", "cmd_cohort"):
        monkeypatch.setattr(cli, name, lambda args: pytest.fail(f"{args.command} started"))
    blocker = tmp_path / "f"
    blocker.write_text("keep\n")
    out = {"file": blocker, "under_file": blocker / "sub", "dangling_link": tmp_path / "link"}[kind]
    if kind == "dangling_link":
        out.symlink_to(tmp_path / "nowhere")
    argv = [command, "--out", str(out)]
    if command in ("fit", "morph"):
        argv += ["--case", str(cases / "sim001" / "manifest.json")]
    assert cli.main(argv) == 2
    want = f"error: --out {out} is not a directory and cannot become one"
    assert want in capsys.readouterr().err
    assert blocker.read_text() == "keep\n"
    assert not (tmp_path / "nowhere").exists()


def _assert_same_files(first, second, expected):
    """`first` and `second` hold the same files, byte for byte, among them
    `expected` and effective_config.json."""
    names = sorted(p.name for p in first.iterdir())
    assert sorted(p.name for p in second.iterdir()) == names
    assert {"effective_config.json", *expected} <= set(names)
    for name in names:
        assert (second / name).read_bytes() == (first / name).read_bytes(), name


def test_morph_rerun_from_effective_config_is_byte_identical(tmp_path):
    case = tmp_path / "case"
    assert cli.main(["simulate", "--dims", "16,16,6", "--seed", "4", "--out", str(case)]) == 0
    manifest = str(case / "manifest.json")
    first, second = tmp_path / "first", tmp_path / "second"
    argv = ["morph", "--case", manifest, "--max-outer", "3", "--max-inner", "5"]
    assert cli.main(argv + ["--out", str(first)]) == 0
    config = str(first / "effective_config.json")
    assert cli.main(["morph", "--case", manifest, "--config", config, "--out", str(second)]) == 0
    _assert_same_files(first, second, {"summary.csv", "best_adc.raw"})


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["simulate", "--dims", "16,16,6", "--seed", "4", "--ga", "25"],
            {"manifest.json", "b600.raw", "truth_adc.raw", "truth_field_b600.raw"},
        ),
        (
            ["cohort", "--n-cases", "3", "--dims", "12,12,6", "--seed", "2", *CAPS],
            {"cohort_points_full.csv", "summary.csv", "failures.csv"},
        ),
    ],
    ids=["simulate", "cohort"],
)
def test_rerun_from_effective_config_is_byte_identical(tmp_path, argv, expected):
    first, second = tmp_path / "first", tmp_path / "second"
    assert cli.main(argv + ["--out", str(first)]) == 0
    config = str(first / "effective_config.json")
    assert cli.main([argv[0], "--config", config, "--out", str(second)]) == 0
    _assert_same_files(first, second, expected)


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


def test_one_voxel_thick_case_fits_and_morphs_in_plane(tmp_path, one_slice_case):
    series, roi = one_slice_case
    manifest = str(dio.write_case(series, roi, 30.0, "slice", tmp_path / "slice"))
    assert cli.main(["fit", "--case", manifest, "--out", str(tmp_path / "fit")]) == 0
    out = tmp_path / "morph"
    assert cli.main(["morph", "--case", manifest, *CAPS, "--out", str(out)]) == 0
    fields = [dio.read_field(out / f"best_field_b{b:g}").data for b in series.bvalues]
    assert not any(f[..., 2].any() for f in fields)
    assert any(f[..., :2].any() for f in fields)


def test_close_bvalues_get_their_own_files(tmp_path):
    # '{:g}' names 1000 and 1000.0004 both b1000, so one file overwrote the other
    dims = (12, 12, 6)
    bvalues = (0.0, 200.0, 1000.0, 1000.0004)
    x, y, _z = np.indices(dims)
    s0 = 1.0 + 0.3 * np.sin(x / 2.0) * np.cos(y / 3.0)
    series = dio.BValueSeries(
        bvalues, tuple(dio.ScalarVolume(s0 * np.exp(-2e-3 * b)) for b in bvalues)
    )
    mask = np.zeros(dims, dtype=bool)
    mask[4:8, 4:8, 2:4] = True
    manifest = dio.write_case(series, dio.RoiMask(mask), 30.0, "close", tmp_path / "case")
    back, _roi, _ga = dio.read_case(manifest)
    assert back.bvalues == bvalues
    for got, want in zip(back.volumes, series.volumes):
        np.testing.assert_array_equal(got.data, want.data.astype("<f4"))
    out = tmp_path / "morph"
    assert cli.main(["morph", "--case", str(manifest), *CAPS, "--out", str(out)]) == 0
    names = ["b0", "b200", "b1000", "b1000.0004"]
    for prefix in ("compensated_", "best_field_"):
        written = sorted(p.name for p in out.glob(f"{prefix}b*.json"))
        assert written == sorted(f"{prefix}{n}.json" for n in names)
    for b, name in zip(bvalues, names):
        assert json.loads((out / f"compensated_{name}.json").read_text())["bvalue"] == b


def _constant_case(tmp_path, value):
    """An 8x8x4 case with 2 b-values whose every voxel holds `value`."""
    dims = (8, 8, 4)
    bvalues = (0.0, 500.0)
    vols = tuple(dio.ScalarVolume(np.full(dims, value)) for _ in bvalues)
    mask = np.zeros(dims, dtype=bool)
    mask[2:6, 2:6, 1:3] = True
    series = dio.BValueSeries(bvalues, vols)
    return str(dio.write_case(series, dio.RoiMask(mask), 30.0, "flat", tmp_path / "case"))


@pytest.mark.parametrize("command", ["fit", "morph"])
@pytest.mark.parametrize(
    "value, message",
    [(0.0, "degenerate series"), (1.0, "the ROI-mean decay curve is flat")],
    ids=["all_zero_b0", "flat_roi_curve"],
)
def test_unfittable_case_exits_2_before_writing(tmp_path, capsys, command, value, message):
    manifest = _constant_case(tmp_path, value)
    out = tmp_path / "out"
    caps = CAPS if command == "morph" else []
    assert cli.main([command, "--case", manifest, *caps, "--out", str(out)]) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()
