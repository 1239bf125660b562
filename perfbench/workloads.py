"""The benchmark's workloads: inputs from a seed, one timed unit, checks.

Each workload has three parts.  ``setup`` builds the inputs from the seed
(simulated phantoms, cases written to disk, the ground truth kept in
memory) and is repeated so its time can be reported as a median.
``unit`` is the timed body: the same fixed inputs pushed through the
library's public calls once.  ``check`` runs outside the timing and returns
the attempted/failed counts, accuracy against ground truth and every output
problem it found; a case that raised, diverged or failed a check is counted
as failed and the run goes on.

Ground truth is computed here, never taken from the program: the reference
ADC of a case is the IRLS fit of the ROI-mean curve of its motion-free
series, and the true fields come straight from ``phantom``.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dwimoco import cli, io, phantom, pipeline
from dwimoco.registration import InnerOptConfig
from dwimoco.signal_model import irls_fit, roi_mean_signals
from dwimoco.volume import ScalarVolume, warp


@dataclass
class Outcome:
    """What one timed unit left behind for the checks; a unit that could not
    finish sets ``error`` and is not checked."""

    out_dir: Path
    value: object = None
    error: str | None = None


@dataclass
class Verdict:
    attempted: int
    failed: int
    accuracy: dict  # name -> (value, unit)
    counts: dict  # per-unit counts that must repeat exactly
    problems: list


def case_seeds(seed: int, n: int) -> list:
    """n independent phantom seeds drawn from the workload seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n) % (2**31 - 2)]


def simulate_case(spec: phantom.PhantomSpec):
    """Motion-free series, moved series, ROI and true fields of one phantom.

    The recipe of ``dwimoco simulate`` and of the simulated cohort: noise
    from ``spec.seed``, motion from ``spec.seed + 1``.
    """
    maps, roi = phantom.make_phantom(spec)
    clean = phantom.simulate_series(maps, roi, spec.bvalues, spec.noise_sigma, spec.seed)
    moved, true_fields = phantom.apply_synthetic_motion(clean, spec, spec.seed + 1)
    return clean, moved, roi, true_fields


def reference_adc(clean, roi) -> float:
    """IRLS ADC of the ROI-mean decay curve of the motion-free series."""
    _log_s0, adc, _diag = irls_fit(roi_mean_signals(clean, roi), clean.bvalues)
    return adc


def field_epe(recovered, true_fields, roi) -> float:
    """Mean over ROI voxels and b-values of |u(p) + f(p + u(p))|.

    The moved image is clean(p + f(p)) and the compensated one is
    moved(p + u(p)), so this is the motion left after u acts on f.
    """
    errs = []
    for u, f in zip(recovered, true_fields):
        f_at = np.stack(
            [warp(ScalarVolume(f.data[..., c]), u).data for c in range(3)], axis=-1
        )
        r = np.sqrt(((u.data + f_at) ** 2).sum(axis=-1))
        errs.append(float(r[roi.data].mean()))
    return float(np.mean(errs))


def rel_err(value: float, reference: float) -> float:
    return abs(value - reference) / abs(reference)


def _f32(a) -> np.ndarray:
    """What a float32 container stores for a float64 array."""
    return np.asarray(a, dtype=np.float64).astype("<f4").astype(np.float64)


def _same(read_back, in_memory) -> bool:
    return np.array_equal(read_back, _f32(in_memory))


def _read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# case_ref: one on-disk reference case through `dwimoco morph`


@dataclass(frozen=True)
class CaseRef:
    """Fixed work: the plateau and ADC-convergence stops are off, so every
    unit makes (max_outer - 1) * (max_inner + 1) objective evaluations."""

    dims: tuple = (96, 96, 16)
    max_outer: int = 3
    max_inner: int = 5
    noise_sigma: float = 0.02
    motion_amplitude: float = 3.0

    name = "case_ref"
    capture = ("pipeline.run_case",)

    def describe(self) -> str:
        nx, ny, nz = self.dims
        return (
            f"{nx}x{ny}x{nz}, 6 b-values, full method (alpha2=1000), "
            f"{self.max_outer} outer x {self.max_inner} inner, plateau and ADC stops off"
        )

    def setup(self, seed: int, work: Path) -> dict:
        (case_seed,) = case_seeds(seed, 1)
        clean, moved, roi, true_fields = simulate_case(
            phantom.PhantomSpec(
                dims=self.dims,
                noise_sigma=self.noise_sigma,
                motion_amplitude=self.motion_amplitude,
                seed=case_seed,
            )
        )
        manifest = io.write_case(moved, roi, 30.0, "case_ref", work / "case")
        io.read_case(manifest)  # warm-up, and proof the written case reads
        config = work / "morph_config.json"
        config.write_text(
            '{"pipeline": {"max_outer_iters": %d, "max_inner_steps": %d, '
            '"plateau_window": 0, "converge_window": %d}}\n'
            % (self.max_outer, self.max_inner, self.max_outer)
        )
        return {
            "manifest": manifest,
            "config": config,
            "roi": roi,
            "true_fields": true_fields,
            "ref_adc": reference_adc(clean, roi),
        }

    def unit(self, state: dict, out: Path, probe, workers: int) -> Outcome:
        argv = ["morph", "--case", str(state["manifest"]), "--out", str(out),
                "--config", str(state["config"])]
        code = cli.main(argv)
        results = probe.take("pipeline.run_case")
        if code != 0 or len(results) != 1:
            return Outcome(out, None, f"morph exited with {code}")
        return Outcome(out, results[0])

    def attempted(self, state: dict) -> int:
        return 1

    def check(self, state: dict, o: Outcome) -> Verdict:
        result = o.value
        problems = []
        if result.failed:
            problems.append(f"diverged: {result.failure_reason}")
        best = result.best_record
        arrays = [result.best_maps.adc.data, result.best_maps.log_s0.data]
        arrays += [f.data for f in result.best_fields]
        arrays += [v.data for v in result.best_series.volumes]
        scalars = [best.roi_mean_adc, best.roi_r2]
        scalars += [r.loss.total for r in result.records]
        if not all(np.isfinite(a).all() for a in arrays) or not np.isfinite(scalars).all():
            problems.append("non-finite output")
        out = o.out_dir
        if not _same(io.read_volume(out / "best_adc").data, result.best_maps.adc.data):
            problems.append("best_adc differs from the in-memory map")
        if not _same(io.read_volume(out / "best_log_s0").data, result.best_maps.log_s0.data):
            problems.append("best_log_s0 differs from the in-memory map")
        for b, f, v, r in zip(
            result.bvalues,
            result.best_fields,
            result.best_series.volumes,
            result.best_series_resampled.volumes,
        ):
            if not _same(io.read_field(out / f"best_field_b{b:g}").data, f.data):
                problems.append(f"best_field_b{b:g} differs from the in-memory field")
            if not _same(io.read_volume(out / f"compensated_b{b:g}").data, v.data):
                problems.append(f"compensated_b{b:g} differs from the in-memory series")
            if not _same(io.read_volume(out / f"compensated_single_resample_b{b:g}").data, r.data):
                problems.append(f"compensated_single_resample_b{b:g} differs")
        summary = _read_rows(out / "summary.csv")
        if len(summary) != 2 or summary[1][1] != "full":
            problems.append("summary.csv lacks the full-method row")
        elif summary[1][3] != io.fmt(best.roi_mean_adc):
            problems.append("summary.csv best ADC differs from the in-memory result")
        if len(_read_rows(out / "iterations.csv")) != len(result.records) + 1:
            problems.append("iterations.csv row count differs from the records")
        accuracy = {
            "adc_rel_err_full": (rel_err(best.roi_mean_adc, state["ref_adc"]), "ratio"),
            "field_epe_vox": (
                field_epe(result.best_fields, state["true_fields"], state["roi"]), "voxel"
            ),
        }
        counts = {"outer_iters": len(result.records), "best_iteration": result.best_iteration}
        return Verdict(1, 1 if problems else 0, accuracy, counts, problems)


# ---------------------------------------------------------------------------
# cohort_sim: simulated cohort, three methods, worker processes, saturation fit


@dataclass(frozen=True)
class CohortSim:
    """Time to a solution: default plateau and ADC-convergence stops, with
    caps, so step counts vary by case and method."""

    dims: tuple = (20, 20, 8)
    n_cases: int = 4
    max_outer: int = 8
    max_inner: int = 50
    ga_range: tuple = (20.0, 38.0)
    sat_adc: float = 3.2e-3
    sat_alpha: float = 0.07
    adc_bio_noise: float = 1.5e-4
    noise_sigma: float = 0.02
    motion_range: tuple = (2.0, 4.0)

    name = "cohort_sim"
    capture = ()

    def describe(self) -> str:
        nx, ny, nz = self.dims
        return (
            f"{self.n_cases} cases of {nx}x{ny}x{nz}, 3 methods, default plateau and ADC "
            f"stops, caps {self.max_outer} outer x {self.max_inner} inner"
        )

    def pipeline_config(self) -> pipeline.PipelineConfig:
        return pipeline.PipelineConfig(
            inner=InnerOptConfig(max_inner_steps=self.max_inner),
            max_outer_iters=self.max_outer,
        )

    def setup(self, seed: int, work: Path) -> dict:
        specs = pipeline.make_cohort_case_specs(
            n_cases=self.n_cases,
            dims=self.dims,
            ga_range=self.ga_range,
            sat_adc=self.sat_adc,
            sat_alpha=self.sat_alpha,
            adc_bio_noise=self.adc_bio_noise,
            noise_sigma=self.noise_sigma,
            motion_range=self.motion_range,
            seed=seed,
        )
        # The study's own true_points are not filled in, so the truth is
        # re-derived from the specs, simulated as the cohort code does.
        ref = {}
        for s in specs:
            clean, _moved, roi, _fields = simulate_case(
                phantom.PhantomSpec(
                    dims=s.dims,
                    lung_adc=s.true_adc,
                    noise_sigma=s.noise_sigma,
                    motion_amplitude=s.motion_amplitude,
                    seed=s.seed,
                )
            )
            ref[s.case_id] = reference_adc(clean, roi)
        return {"specs": specs, "ref_adc": ref, "config": self.pipeline_config()}

    def unit(self, state: dict, out: Path, probe, workers: int) -> Outcome:
        study = pipeline.run_simulated_cohort(state["specs"], state["config"], workers=workers)
        io.write_cohort_report(study.points, study.fits, out)
        return Outcome(out, study)

    def attempted(self, state: dict) -> int:
        return len(state["specs"]) * len(pipeline.COHORT_METHODS)

    def check(self, state: dict, o: Outcome) -> Verdict:
        specs = state["specs"]
        study = o.value
        problems = [f"case {cid}: {why}" for cid, why in study.failures]
        missing = 0
        errs = {m: [] for m in pipeline.COHORT_METHODS}
        for method in pipeline.COHORT_METHODS:
            by_case = {p.case_id: p for p in study.points[method]}
            for s in specs:
                p = by_case.get(s.case_id)
                if p is None or not (np.isfinite(p.adc) and np.isfinite(p.fit_r2)):
                    missing += 1
                    problems.append(f"case {s.case_id}: no finite {method} point")
                    continue
                errs[method].append(rel_err(p.adc, state["ref_adc"][s.case_id]))
            rows = _read_rows(o.out_dir / f"cohort_points_{method}.csv")[1:]
            want = [
                [p.case_id, io.fmt(p.ga), io.fmt(p.adc), io.fmt(p.fit_r2)]
                for p in sorted(study.points[method], key=lambda p: p.case_id)
            ]
            if rows != want:
                problems.append(f"cohort_points_{method}.csv differs from the in-memory points")
        fit = study.fits.get("full")
        if fit is None or not np.isfinite([fit.adc_sat, fit.alpha, fit.r2]).all():
            problems.append("no finite saturation fit for the full method")
            sat_err = float("nan")
        else:
            sat_err = rel_err(fit.adc_sat, self.sat_adc)
        accuracy = {
            "adc_rel_err_full": (float(np.mean(errs["full"])), "ratio"),
            "adc_rel_err_no_model_fit": (float(np.mean(errs["no_model_fit"])), "ratio"),
            "sat_adc_rel_err_full": (sat_err, "ratio"),
        }
        failed = max(missing, 1 if problems else 0)
        return Verdict(self.attempted(state), failed, accuracy, {}, problems)


# ---------------------------------------------------------------------------
# fit_disk: `dwimoco fit --method both` over on-disk reference-grid cases


@dataclass(frozen=True)
class FitDisk:
    """No registration at all: only signal_model and io do work."""

    dims: tuple = (96, 96, 16)
    n_cases: int = 3
    noise_sigma: float = 0.02
    motion_amplitude: float = 3.0

    name = "fit_disk"
    capture = ("signal_model.lls_fit", "signal_model.irls_fit_volume")

    def describe(self) -> str:
        nx, ny, nz = self.dims
        return f"{self.n_cases} cases of {nx}x{ny}x{nz}, 6 b-values, LLS and IRLS fits"

    def setup(self, seed: int, work: Path) -> dict:
        cases = []
        for i, case_seed in enumerate(case_seeds(seed, self.n_cases)):
            clean, moved, roi, _fields = simulate_case(
                phantom.PhantomSpec(
                    dims=self.dims,
                    noise_sigma=self.noise_sigma,
                    motion_amplitude=self.motion_amplitude,
                    seed=case_seed,
                )
            )
            manifest = io.write_case(moved, roi, 30.0, f"case{i}", work / f"case{i}")
            io.read_case(manifest)  # warm-up, and proof the written case reads
            cases.append({"manifest": manifest, "roi": roi, "ref_adc": reference_adc(clean, roi)})
        return {"cases": cases}

    def unit(self, state: dict, out: Path, probe, workers: int) -> Outcome:
        fitted = []
        for i, case in enumerate(state["cases"]):
            argv = ["fit", "--case", str(case["manifest"]), "--out", str(out / f"case{i}"),
                    "--method", "both"]
            code = cli.main(argv)
            lls = probe.take("signal_model.lls_fit")
            irls = probe.take("signal_model.irls_fit_volume")
            if code != 0 or len(lls) != 1 or len(irls) != 1:
                fitted.append(None)
            else:
                fitted.append({"lls": lls[0], "irls": irls[0][0]})
        return Outcome(out, fitted)

    def attempted(self, state: dict) -> int:
        return 2 * len(state["cases"])

    def check(self, state: dict, o: Outcome) -> Verdict:
        problems = []
        failed = 0
        errs = []
        for i, (case, fitted) in enumerate(zip(state["cases"], o.value)):
            if fitted is None:
                failed += 2
                problems.append(f"case{i}: fit did not complete")
                continue
            out = o.out_dir / f"case{i}"
            rows = {r[0]: r for r in _read_rows(out / "roi_summary.csv")[1:]}
            roi = case["roi"].data
            for method in ("lls", "irls"):
                maps = fitted[method]
                bad = []
                if not (np.isfinite(maps.adc.data).all() and np.isfinite(maps.log_s0.data).all()):
                    bad.append("non-finite map")
                if not _same(io.read_volume(out / f"{method}_adc").data, maps.adc.data):
                    bad.append(f"{method}_adc differs from the in-memory map")
                if not _same(io.read_volume(out / f"{method}_log_s0").data, maps.log_s0.data):
                    bad.append(f"{method}_log_s0 differs from the in-memory map")
                roi_mean = float(maps.adc.data[roi].mean())
                if method not in rows or rows[method][1] != io.fmt(roi_mean):
                    bad.append(f"roi_summary.csv lacks a matching {method} row")
                if bad:
                    failed += 1
                    problems += [f"case{i}: {b}" for b in bad]
                if method == "irls":
                    errs.append(rel_err(roi_mean, case["ref_adc"]))
        accuracy = {"adc_rel_err_irls": (float(np.mean(errs)) if errs else float("nan"), "ratio")}
        return Verdict(self.attempted(state), failed, accuracy, {}, problems)


WORKLOADS = {w.name: w for w in (CaseRef(), CohortSim(), FitDisk())}
