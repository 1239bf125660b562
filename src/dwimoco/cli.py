"""Command-line entry point: simulate, fit, morph, cohort.

Configuration comes from built-in defaults, optionally overlaid by a JSON
config file (--config), optionally overlaid by explicit flags.  One config
file serves every command of a study.  DEFAULTS holds every key, at its
library default if it has one, and fixes its JSON type (`_has_type_of`); a
key DEFAULTS lacks, or a value of another type, exits 2.  Each flag sets one
key (SETTING_FLAGS), parsed as its type, and each command reads, checks and
takes the flags of only these keys (COMMAND_FLAGS):

- simulate: seed, phantom.dims and phantom.ga_weeks; fit: none;
  morph: pipeline.*.
- cohort: pipeline.*, and for a simulated cohort seed, phantom.dims and
  cohort.n_cases.  With --cases their flags (--seed, --dims, --n-cases)
  exit 2.  Fewer than 3 cases exit 2 before any work.

Every run writes the fully resolved configuration to
<out>/effective_config.json; re-running from that file with the same seed
reproduces the outputs byte-for-byte.  Progress goes to stderr;
machine-readable outputs only to files.  Exit codes: 0 success, 2 usage or
input error (nothing is written; argparse raises SystemExit(2) for a usage
error, such as a flag the command does not take), 3 numerical failure.  An
input error includes a --case, --config, manifest, sidecar or .raw path
that is not a regular file, a config, manifest or sidecar that is not UTF-8
JSON, and an --out that is not a directory and cannot become one (a file,
a path under a file, a dangling link), found before any work.  A
case one voxel thick along an axis is valid input: `morph` registers it
with the displacement along that axis held at 0.

The one loss setting is pipeline.alpha2, the model-fit weight (0 is the
registration-only method).  The other loss, schedule, stop-rule and phantom
values are module constants, not keys (`objective.ALPHA1`,
`registration.LEARNING_RATE`, `pipeline.ADC_CHANGE_TOL`,
`phantom.BACKGROUND_ADC` and the others next to them).  A simulated case
has the noise and motion `phantom.STUDY_NOISE_SIGMA` and
`phantom.STUDY_MOTION_AMPLITUDE`, and the lung ADC and b-values of the
`PhantomSpec` defaults; a simulated cohort is the default population of
`pipeline.make_cohort_case_specs`.  A config that names any of these
values exits 2 as an unknown key.

`cohort` analyzes simulated cases or a directory of case manifests through
the same `pipeline.run_cohort`.  Next to the cohort report it writes
failures.csv with one row per failed method or case; exit code 3 means no
method kept 3 cases.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

from . import io as dio
from .maturity import MIN_FIT_POINTS
from .phantom import STUDY_MOTION_AMPLITUDE, STUDY_NOISE_SIGMA, PhantomSpec, simulate_case
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
from .volume import DegenerateSeriesError, normalize_series

DEFAULTS = {
    "seed": PhantomSpec().seed,
    "pipeline": {
        "alpha2": PipelineConfig().alpha2,
        "max_inner_steps": InnerOptConfig().max_inner_steps,
        "plateau_window": InnerOptConfig().plateau_window,
        "max_outer_iters": PipelineConfig().max_outer_iters,
        "converge_window": PipelineConfig().converge_window,
    },
    "phantom": {
        "dims": list(PhantomSpec().dims),
        "ga_weeks": 30.0,
    },
    "cohort": {
        "n_cases": 38,
    },
}


class ConfigError(ValueError):
    pass


def _has_type_of(default, value) -> bool:
    """Whether `value` has the JSON type of a setting whose default is
    `default`: an int takes an integer, a float an integer or a float, a list
    a list of what its first item takes; true and false are neither."""
    if isinstance(value, bool):
        return False
    if isinstance(default, list):
        return isinstance(value, list) and all(_has_type_of(default[0], v) for v in value)
    return isinstance(value, int) or (isinstance(default, float) and isinstance(value, float))


def _kind(default) -> str:
    """The JSON type `_has_type_of` wants for a setting, as an error names it."""
    item = default[0] if isinstance(default, list) else default
    name = "integer" if isinstance(item, int) else "number"
    return f"a list of {name}s" if isinstance(default, list) else f"a JSON {name}"


def _merge_config(base: dict, overlay: dict, path="") -> dict:
    """`overlay` laid over `base`, whose keys and leaf types it must keep."""
    out = dict(base)
    for key, value in overlay.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config key '{where}'")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key '{where}' must be an object")
            out[key] = _merge_config(base[key], value, where)
        elif not _has_type_of(base[key], value):
            raise ConfigError(f"config key '{where}' must be {_kind(base[key])}, got {value!r}")
        else:
            out[key] = value
    return out


def load_config(config_path) -> dict:
    cfg = json.loads(json.dumps(DEFAULTS))  # deep copy
    if config_path:
        path = Path(config_path)
        if not path.is_file():
            raise ConfigError(f"missing config file {path}")
        try:
            user = json.loads(path.read_text())
        except ValueError as err:  # also a file that is not UTF-8
            raise ConfigError(f"malformed config JSON: {err}") from err
        if not isinstance(user, dict):
            raise ConfigError("config must hold a JSON object")
        cfg = _merge_config(cfg, user)
    return cfg


# flag -> (the config key it sets, help); a value parses as the key's type,
# but --dims is parsed in resolve_config, so a malformed one is an input
# error, not a usage error
SETTING_FLAGS = {
    "--seed": ("seed", "master RNG seed"),
    "--dims": ("phantom.dims", "nx,ny,nz (e.g. 96,96,16)"),
    "--ga": ("phantom.ga_weeks", "gestational age recorded in the manifest"),
    "--alpha2": ("pipeline.alpha2", "model-fit weight (0 disables)"),
    "--max-inner": ("pipeline.max_inner_steps", "inner steps per pass"),
    "--max-outer": ("pipeline.max_outer_iters", "outer iterations"),
    "--n-cases": ("cohort.n_cases", "simulated cases"),
}
_PIPELINE_FLAGS = ("--alpha2", "--max-inner", "--max-outer")
# what `cohort` simulates its cases from; `cohort --cases` rejects them
_COHORT_SIMULATION_FLAGS = ("--seed", "--dims", "--n-cases")
COMMAND_FLAGS = {
    "simulate": ("--seed", "--dims", "--ga"),
    "fit": (),
    "morph": _PIPELINE_FLAGS,
    "cohort": _COHORT_SIMULATION_FLAGS + _PIPELINE_FLAGS,
}


def _flag_value(args, flag):
    """The value given for `flag`, or None if it was not given."""
    return getattr(args, SETTING_FLAGS[flag][0], None)


def resolve_config(args) -> dict:
    cfg = load_config(args.config)
    for flag, (key, _help) in SETTING_FLAGS.items():
        value = _flag_value(args, flag)
        if value is None:
            continue
        if flag == "--dims":
            try:
                value = [int(v) for v in value.split(",")]
            except ValueError:
                value = []
            if len(value) != 3:
                raise ConfigError("--dims needs three comma-separated integers")
        section, _, name = key.rpartition(".")
        (cfg[section] if section else cfg)[name] = value
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
            alpha2=p["alpha2"],
            inner=InnerOptConfig(
                max_inner_steps=p["max_inner_steps"],
                plateau_window=p["plateau_window"],
            ),
            max_outer_iters=p["max_outer_iters"],
            converge_window=p["converge_window"],
        )
    except ValueError as err:
        raise ConfigError(f"invalid pipeline config: {err}") from err


def phantom_spec(cfg: dict) -> PhantomSpec:
    """The PhantomSpec of a resolved config; ConfigError if a value is invalid."""
    try:
        return PhantomSpec(
            dims=tuple(cfg["phantom"]["dims"]),
            noise_sigma=STUDY_NOISE_SIGMA,
            motion_amplitude=STUDY_MOTION_AMPLITUDE,
            seed=cfg["seed"],
        )
    except ValueError as err:
        raise ConfigError(f"invalid phantom config: {err}") from err


def cohort_case_specs(cfg: dict) -> list:
    """The simulated cohort's case specs of a resolved config; ConfigError if
    `make_cohort_case_specs` rejects a value."""
    try:
        return make_cohort_case_specs(
            cfg["cohort"]["n_cases"], cfg["phantom"]["dims"], seed=cfg["seed"]
        )
    except ValueError as err:
        raise ConfigError(f"invalid cohort config: {err}") from err


def case_ga_weeks(cfg: dict) -> float:
    """phantom.ga_weeks of a resolved config; ConfigError unless it is > 0."""
    ga = cfg["phantom"]["ga_weeks"]
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
    maps, roi, _clean, moved, true_fields = simulate_case(spec)
    echo_config(cfg, out)
    manifest = dio.write_case(moved, roi, ga_weeks, f"sim{spec.seed:03d}", out)
    dio.write_volume(maps.adc, out / "truth_adc")
    dio.write_volume(maps.log_s0, out / "truth_log_s0")
    for b, f in zip(moved.bvalues, true_fields):
        dio.write_field(f, out / f"truth_field_b{dio.fmt_bvalue(b)}")
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
    variant = "full" if pcfg.alpha2 > 0 else "no_model_fit"
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

    if args.cases is not None:
        given = [f for f in _COHORT_SIMULATION_FLAGS if _flag_value(args, f) is not None]
        if given:
            raise ConfigError(f"--cases takes no simulation flag, got {', '.join(given)}")
        case_dir = Path(args.cases)
        sources = sorted(p.parent.name for p in case_dir.glob("*/manifest.json"))
        found = f"{len(sources)} case manifests under {case_dir}"
        task = f"analyzing {len(sources)} cases from {case_dir}"
        run = partial(run_cohort, partial(_read_case_source, case_dir))
    else:
        sources = cohort_case_specs(cfg)
        found = f"{len(sources)} simulated cases"
        task = f"simulating and analyzing {len(sources)} cases"
        run = run_simulated_cohort
    if len(sources) < MIN_FIT_POINTS:
        raise ConfigError(f"a cohort needs {MIN_FIT_POINTS} cases or more, got {found}")
    echo_config(cfg, out)
    _progress(f"cohort: {task} (workers={args.workers})")
    study = run(sources, pcfg, args.workers)

    for case_id, reason in study.failures:
        _progress(f"cohort: {case_id} failed: {reason}")
    dio.write_csv(out / "failures.csv", ["case_id", "reason"], study.failures)
    if not study.fits:
        print("error: no method's ADC-vs-GA curve could be fit; see failures.csv", file=sys.stderr)
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

    commands = {
        "simulate": (cmd_simulate, "write a synthetic motion-corrupted case"),
        "fit": (cmd_fit, "decay-model fitting only, no registration"),
        "morph": (cmd_morph, "full motion-compensated analysis of one case"),
        "cohort": (cmd_cohort, "three-method comparison over a cohort"),
    }
    subs = {}
    for name, (func, help_text) in commands.items():
        p = subs[name] = sub.add_parser(name, help=help_text)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="JSON config file (flags override it)")
        for flag in COMMAND_FLAGS[name]:
            key, flag_help = SETTING_FLAGS[flag]
            section, _, leaf = key.rpartition(".")
            default = (DEFAULTS[section] if section else DEFAULTS)[leaf]
            kind = str if isinstance(default, list) else type(default)
            p.add_argument(flag, dest=key, type=kind, help=flag_help)
        p.set_defaults(func=func)
    for name in ("fit", "morph"):
        subs[name].add_argument("--case", required=True, help="path to a case manifest.json")
    subs["fit"].add_argument(
        "--method",
        choices=("lls", "irls", "both"),
        default="both",
        help="lls: least squares; irls: robust least-absolute-deviations line (default: both)",
    )
    subs["cohort"].add_argument("--cases", help="directory of case subdirectories with manifests")
    subs["cohort"].add_argument("--workers", type=int, default=1, help="parallel case workers")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the nearest existing path of --out (a dangling link counts) must be
        # a directory, or the run would fail only when it writes, after all
        # its work
        out = Path(args.out)
        if not next(p for p in (out, *out.parents) if p.exists() or p.is_symlink()).is_dir():
            raise ConfigError(f"--out {out} is not a directory and cannot become one")
        return args.func(args)
    except (
        ConfigError,
        dio.ManifestError,
        dio.ContainerError,
        DegenerateSeriesError,
        FileNotFoundError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except UndefinedRSquaredError as err:
        print(f"error: the ROI-mean decay curve is flat: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
