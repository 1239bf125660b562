"""Command-line entry point: simulate, fit, morph, cohort.

Configuration comes from built-in defaults, optionally overlaid by a JSON
config file (--config), optionally overlaid by explicit flags.  Every run
writes the fully resolved configuration to <out>/effective_config.json;
re-running from that file with the same seed reproduces the outputs
byte-for-byte.  Progress goes to stderr; machine-readable outputs only to
files.  Exit codes: 0 success, 2 usage or input error (nothing is written),
3 numerical failure.

The "pipeline" keys are the loss weights, the optimizer schedule and the
stop rules' caps and windows.  The schedule's drop factor and the stop
rules' tolerances are module constants, not keys
(`registration.LR_DROP_FACTOR`, `registration.PLATEAU_REL_TOL`,
`pipeline.ADC_CHANGE_TOL`); a config that names one exits 2 as an
unknown key.

`cohort` analyzes either simulated cases or a directory of case manifests
through the same `pipeline.run_cohort`, so both sources share one analysis
path.  Next to the cohort report it writes failures.csv with one row per
failed method or case; exit code 3 means no method kept 3 cases.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

from . import io as dio
from .objective import LossWeights
from .phantom import PhantomSpec, apply_synthetic_motion, make_phantom, simulate_series
from .pipeline import (
    PipelineConfig,
    make_cohort_case_specs,
    run_case,
    run_cohort,
    run_simulated_cohort,
)
from .registration import InnerOptConfig
from .signal_model import (
    UndefinedRSquaredError,
    irls_fit,
    irls_fit_volume,
    lls_fit,
    lls_fit_curve,
    roi_mean_signals,
)
from .volume import (
    DegenerateSeriesError,
    GridTooSmallError,
    check_differentiable,
    normalize_series,
)

DEFAULTS = {
    "seed": 0,
    "pipeline": {
        "alpha1": 0.01,
        "alpha2": 1000.0,
        "learning_rate": 0.1,
        "max_inner_steps": 100,
        "plateau_window": 10,
        "max_outer_iters": 50,
        "converge_window": 5,
    },
    "phantom": {
        "dims": [96, 96, 16],
        "bvalues": [0.0, 50.0, 100.0, 200.0, 400.0, 600.0],
        "lung_adc": 2.5e-3,
        "background_adc": 1.0e-3,
        "lung_s0": 1.0,
        "background_s0": 0.55,
        "roi_margin": 2.0,
        "boundary_sigma": 1.0,
        "noise_sigma": 0.02,
        "motion_amplitude": 3.0,
        "motion_smoothness": 48.0,
        "ga_weeks": 30.0,
    },
    "cohort": {
        "n_cases": 38,
        "ga_min": 20.0,
        "ga_max": 38.0,
        "sat_adc": 3.2e-3,
        "sat_alpha": 0.07,
        "adc_bio_noise": 1.5e-4,
        "motion_min": 2.0,
        "motion_max": 4.0,
    },
}


class ConfigError(ValueError):
    pass


def _merge_config(base: dict, overlay: dict, path="") -> dict:
    out = dict(base)
    for key, value in overlay.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key '{where}'")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key '{where}' must be an object")
            out[key] = _merge_config(base[key], value, where)
        else:
            out[key] = value
    return out


def load_config(config_path) -> dict:
    cfg = json.loads(json.dumps(DEFAULTS))  # deep copy
    if config_path:
        path = Path(config_path)
        if not path.exists():
            raise ConfigError(f"missing config file {path}")
        try:
            user = json.loads(path.read_text())
        except json.JSONDecodeError as err:
            raise ConfigError(f"malformed config JSON: {err}") from err
        if not isinstance(user, dict):
            raise ConfigError("config must hold a JSON object")
        cfg = _merge_config(cfg, user)
    return cfg


_FLAG_MAP = {
    "seed": (None, "seed"),
    "alpha1": ("pipeline", "alpha1"),
    "alpha2": ("pipeline", "alpha2"),
    "lr": ("pipeline", "learning_rate"),
    "max_inner": ("pipeline", "max_inner_steps"),
    "max_outer": ("pipeline", "max_outer_iters"),
    "window": ("pipeline", "converge_window"),
    "dims": ("phantom", "dims"),
    "lung_adc": ("phantom", "lung_adc"),
    "noise_sigma": ("phantom", "noise_sigma"),
    "motion_amplitude": ("phantom", "motion_amplitude"),
    "ga": ("phantom", "ga_weeks"),
    "n_cases": ("cohort", "n_cases"),
    "motion_min": ("cohort", "motion_min"),
    "motion_max": ("cohort", "motion_max"),
}


def resolve_config(args) -> dict:
    cfg = load_config(getattr(args, "config", None))
    for flag, (section, key) in _FLAG_MAP.items():
        value = getattr(args, flag, None)
        if value is None:
            continue
        if flag == "dims":
            try:
                value = [int(v) for v in value.split(",")]
            except ValueError:
                value = []
            if len(value) != 3:
                raise ConfigError("--dims needs three comma-separated integers")
        if section is None:
            cfg[key] = value
        else:
            cfg[section][key] = value
    return cfg


def echo_config(cfg: dict, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "effective_config.json").write_text(
        json.dumps(cfg, sort_keys=True, indent=2) + "\n"
    )


def pipeline_config(cfg: dict) -> PipelineConfig:
    """The PipelineConfig of a resolved config; ConfigError if a value is invalid."""
    p = cfg["pipeline"]
    try:
        return PipelineConfig(
            weights=LossWeights(p["alpha1"], p["alpha2"]),
            inner=InnerOptConfig(
                learning_rate=p["learning_rate"],
                max_inner_steps=int(p["max_inner_steps"]),
                plateau_window=int(p["plateau_window"]),
            ),
            max_outer_iters=int(p["max_outer_iters"]),
            converge_window=int(p["converge_window"]),
        )
    except (ValueError, TypeError) as err:
        raise ConfigError(f"invalid pipeline config: {err}") from err


def phantom_spec(cfg: dict) -> PhantomSpec:
    """The PhantomSpec of a resolved config; ConfigError if a value is invalid."""
    ph = cfg["phantom"]
    try:
        return PhantomSpec(
            dims=tuple(int(d) for d in ph["dims"]),
            bvalues=tuple(float(b) for b in ph["bvalues"]),
            lung_adc=float(ph["lung_adc"]),
            background_adc=float(ph["background_adc"]),
            lung_s0=float(ph["lung_s0"]),
            background_s0=float(ph["background_s0"]),
            roi_margin=float(ph["roi_margin"]),
            boundary_sigma=float(ph["boundary_sigma"]),
            noise_sigma=float(ph["noise_sigma"]),
            motion_amplitude=float(ph["motion_amplitude"]),
            motion_smoothness=float(ph["motion_smoothness"]),
            seed=int(cfg["seed"]),
        )
    except (ValueError, TypeError) as err:
        raise ConfigError(f"invalid phantom config: {err}") from err


def cohort_case_specs(cfg: dict) -> list:
    """The simulated cohort's case specs of a resolved config; ConfigError if a
    value is invalid."""
    co = cfg["cohort"]
    spec = phantom_spec(cfg)
    try:
        return make_cohort_case_specs(
            n_cases=int(co["n_cases"]),
            dims=spec.dims,
            ga_range=(float(co["ga_min"]), float(co["ga_max"])),
            sat_adc=float(co["sat_adc"]),
            sat_alpha=float(co["sat_alpha"]),
            adc_bio_noise=float(co["adc_bio_noise"]),
            noise_sigma=spec.noise_sigma,
            motion_range=(float(co["motion_min"]), float(co["motion_max"])),
            seed=spec.seed,
            base_phantom=spec,
        )
    except (ValueError, TypeError) as err:
        raise ConfigError(f"invalid cohort config: {err}") from err


def case_ga_weeks(cfg: dict) -> float:
    """phantom.ga_weeks of a resolved config; ConfigError unless it is > 0."""
    ga = cfg["phantom"]["ga_weeks"]
    try:
        ga = float(ga)
    except (ValueError, TypeError) as err:
        raise ConfigError(f"invalid phantom config: ga_weeks must be a number, got {ga!r}") from err
    if not 0.0 < ga < float("inf"):
        raise ConfigError(f"invalid phantom config: ga_weeks must be finite and > 0, got {ga}")
    return ga


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def cmd_simulate(args) -> int:
    cfg = resolve_config(args)
    out = Path(args.out)
    spec = phantom_spec(cfg)
    ga_weeks = case_ga_weeks(cfg)
    seed = spec.seed
    maps, roi = make_phantom(spec)
    series = simulate_series(maps, roi, spec.bvalues, spec.noise_sigma, seed)
    moved, true_fields = apply_synthetic_motion(series, spec, seed + 1)
    echo_config(cfg, out)
    manifest = dio.write_case(moved, roi, ga_weeks, f"sim{seed:03d}", out)
    dio.write_volume(maps.adc, out / "truth_adc")
    dio.write_volume(maps.log_s0, out / "truth_log_s0")
    for b, f in zip(moved.bvalues, true_fields):
        dio.write_field(f, out / f"truth_field_b{b:g}")
    _progress(f"simulate: wrote case to {manifest}")
    return 0


def cmd_fit(args) -> int:
    cfg = resolve_config(args)
    series, roi, _ga = dio.read_case(args.case)
    norm, _scale = normalize_series(series)
    means = roi_mean_signals(norm, roi)
    methods = ("lls", "irls") if args.method == "both" else (args.method,)
    # the curve fits come first: a flat ROI-mean curve stops the run before
    # anything is written
    curves = {
        m: (lls_fit_curve if m == "lls" else irls_fit)(means, norm.bvalues)[1:] for m in methods
    }
    out = Path(args.out)
    echo_config(cfg, out)
    rows = []
    for method in methods:
        maps = lls_fit(norm) if method == "lls" else irls_fit_volume(norm)[0]
        c_adc, c_r2 = curves[method]
        dio.write_volume(maps.adc, out / f"{method}_adc")
        dio.write_volume(maps.log_s0, out / f"{method}_log_s0")
        roi_mean_adc = float(maps.adc.data[roi.data].mean())
        rows.append([method, roi_mean_adc, c_adc, c_r2])
        _progress(f"fit[{method}]: roi-mean ADC {roi_mean_adc:.6g}, curve ADC {c_adc:.6g}")
    dio.write_csv(
        out / "roi_summary.csv",
        ["method", "roi_mean_adc_mm2s", "curve_adc_mm2s", "curve_r2"],
        rows,
    )
    return 0


def cmd_morph(args) -> int:
    cfg = resolve_config(args)
    pcfg = pipeline_config(cfg)
    series, roi, _ga = dio.read_case(args.case)
    check_differentiable(series.dims)
    variant = "full" if pcfg.weights.alpha2 > 0 else "no_model_fit"
    _progress(f"morph[{variant}]: running up to {pcfg.max_outer_iters} iterations")
    # written after the run, so input that run_case rejects leaves no output
    result = run_case(series, roi, pcfg)
    out = Path(args.out)
    echo_config(cfg, out)
    dio.write_case_report(result, out, case_id=Path(args.case).parent.name, variant=variant)
    if result.failed:
        (out / "failure.txt").write_text(f"{result.failure_reason}\n")
        _progress(f"morph: diverged: {result.failure_reason}")
        return 3
    rec = result.best_record
    _progress(
        f"morph: best iteration {result.best_iteration} "
        f"(ADC {rec.roi_mean_adc:.6g}, R2 {rec.roi_r2:.4f}, converged={result.converged})"
    )
    return 0


def _read_case_source(case_dir, name):
    """Cohort case loader for the on-disk case `case_dir/name`; the case id is
    the directory name."""
    series, roi, ga = dio.read_case(Path(case_dir) / name / "manifest.json")
    return name, ga, series, roi


def cmd_cohort(args) -> int:
    cfg = resolve_config(args)
    out = Path(args.out)
    pcfg = pipeline_config(cfg)
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    workers = args.workers

    if args.cases is not None:
        case_dir = Path(args.cases)
        names = sorted(p.parent.name for p in case_dir.glob("*/manifest.json"))
        if not names:
            print(f"error: no case manifests under {case_dir}", file=sys.stderr)
            return 2
        echo_config(cfg, out)
        _progress(f"cohort: analyzing {len(names)} cases from {case_dir} (workers={workers})")
        study = run_cohort(partial(_read_case_source, case_dir), names, pcfg, workers)
    else:
        specs = cohort_case_specs(cfg)
        echo_config(cfg, out)
        _progress(f"cohort: simulating and analyzing {len(specs)} cases (workers={workers})")
        study = run_simulated_cohort(specs, pcfg, workers=workers)

    for case_id, reason in study.failures:
        _progress(f"cohort: case {case_id} failed: {reason}")
    dio.write_csv(out / "failures.csv", ["case_id", "reason"], study.failures)
    if not study.fits:
        print("error: fewer than 3 cases succeeded with every method", file=sys.stderr)
        return 3
    dio.write_cohort_report(study.points, study.fits, out)
    for method in sorted(study.fits):
        _progress(f"cohort[{method}]: ADC-GA R2 = {study.fits[method].r2:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwimoco",
        description="Motion-compensated quantitative DWI analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, phantom=False, pipeline=False, cohort=False):
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="JSON config file (flags override it)")
        p.add_argument("--seed", type=int, help="master RNG seed")
        if phantom:
            p.add_argument("--dims", help="nx,ny,nz (e.g. 96,96,16)")
            p.add_argument("--lung-adc", dest="lung_adc", type=float)
            p.add_argument("--noise-sigma", dest="noise_sigma", type=float)
            p.add_argument("--motion-amplitude", dest="motion_amplitude", type=float)
        if pipeline:
            p.add_argument("--alpha1", type=float, help="smoothness weight")
            p.add_argument("--alpha2", type=float, help="model-fit weight (0 disables)")
            p.add_argument("--lr", type=float, help="inner-loop learning rate (voxels)")
            p.add_argument("--max-inner", dest="max_inner", type=int)
            p.add_argument("--max-outer", dest="max_outer", type=int)
            p.add_argument("--window", type=int, help="convergence window (iterations)")
        if cohort:
            p.add_argument("--n-cases", dest="n_cases", type=int)
            p.add_argument("--motion-min", dest="motion_min", type=float)
            p.add_argument("--motion-max", dest="motion_max", type=float)

    p = sub.add_parser("simulate", help="write a synthetic motion-corrupted case")
    common(p, phantom=True)
    p.add_argument("--ga", type=float, help="gestational age recorded in the manifest")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="decay-model fitting only, no registration")
    common(p)
    p.add_argument("--case", required=True, help="path to a case manifest.json")
    p.add_argument("--method", choices=("lls", "irls", "both"), default="both")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("morph", help="full motion-compensated analysis of one case")
    common(p, pipeline=True)
    p.add_argument("--case", required=True, help="path to a case manifest.json")
    p.set_defaults(func=cmd_morph)

    p = sub.add_parser("cohort", help="three-method comparison over a cohort")
    common(p, phantom=True, pipeline=True, cohort=True)
    p.add_argument("--cases", help="directory of case subdirectories with manifests")
    p.add_argument("--workers", type=int, default=1, help="parallel case workers")
    p.set_defaults(func=cmd_cohort)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        ConfigError,
        dio.ManifestError,
        dio.ContainerError,
        GridTooSmallError,
        DegenerateSeriesError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except UndefinedRSquaredError as err:
        print(f"error: the ROI-mean decay curve is flat: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
