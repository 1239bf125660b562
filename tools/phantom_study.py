"""Score the registration methods against phantom ground truth.

Usage, from anywhere inside the repository:

    python3 tools/phantom_study.py [<ref>]

The fixed phantom set is 8 cases of 48x48x12 with noise 0.02: motion
amplitude 1 and 3, each at phantom seeds 1-4.  Every case runs with
`max_outer_iters=10` and the other settings at the library defaults, and is
scored for three methods: zero fields (record 0 of the run), registration
only (alpha2 = 0) and the full method (alpha2 = 1000).  For each it prints,
per case and as means over the set:

- EPE, the motion left in the ROI after the best-iteration fields, in voxels;
- the relative error of the best-record ADC against the robust L1 fit of
  the motion-free ROI-mean curve;
- the best iteration.

Each source tree runs in its own child process with that tree's `src/` on
the path, and simulates its cases with that tree's `phantom.simulate_case`.
Both import `field_epe`, `reference_adc` and `rel_err` from this checkout's
perfbench/workloads.py, so the metrics are the benchmark's.  With <ref>, the
ref is exported with `git archive` and studied too, in parallel with the
working tree; the ref needs the library calls this script makes
(`simulate_case` returning the motion-free series, `PipelineConfig.alpha2`).
Each child is pinned to one CPU of this process's affinity set before it
imports dwimoco, so its kernels run on one thread; with <ref> the two trees
get different CPUs where there are two.  A tree takes about 1.5 minutes on
one CPU of a 2-vCPU x86 host, so this is a tool to run by hand, not a CI
gate.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
AMPLITUDES = (1.0, 3.0)
SEEDS = (1, 2, 3, 4)
DIMS = (48, 48, 12)
NOISE = 0.02
MAX_OUTER = 10
METHODS = (("no_model_fit", 0.0), ("full", 1000.0))


def study_cases() -> None:
    """Child process: print one JSON line of scores per phantom case."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    from dataclasses import replace

    from workloads import field_epe, reference_adc, rel_err

    from dwimoco import phantom, pipeline
    from dwimoco.volume import DisplacementField

    for amp in AMPLITUDES:
        for seed in SEEDS:
            spec = phantom.PhantomSpec(
                dims=DIMS, noise_sigma=NOISE, motion_amplitude=amp, seed=seed
            )
            _maps, roi, clean, moved, true_fields = phantom.simulate_case(spec)
            ref = reference_adc(clean, roi)
            zero = [DisplacementField.zero(DIMS) for _ in moved.bvalues]
            row = {
                "amp": amp,
                "seed": seed,
                "epe": {"zero": field_epe(zero, true_fields, roi)},
                "adc_err": {},
                "best_iter": {},
            }
            cfg = pipeline.PipelineConfig(max_outer_iters=MAX_OUTER)
            for method, alpha2 in METHODS:
                result = pipeline.run_case(moved, roi, replace(cfg, alpha2=alpha2))
                row["epe"][method] = field_epe(result.best_fields, true_fields, roi)
                row["adc_err"][method] = rel_err(result.best_record.roi_mean_adc, ref)
                row["best_iter"][method] = result.best_iteration
            # record 0 is the input, the same in every method's run
            row["adc_err"]["zero"] = rel_err(result.records[0].roi_mean_adc, ref)
            print(json.dumps(row), flush=True)


def start_child(src: Path, cpu: int) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=str(src / "src"), OMP_NUM_THREADS="1")
    return subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(cpu)],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )


def report(name: str, rows: list) -> None:
    cols = ("zero", "no_model_fit", "full")
    print(f"== {name} ==")
    print(
        "amp seed | EPE (vox): zero  alpha2=0  alpha2=1000 | "
        "ADC rel. err: zero  alpha2=0  alpha2=1000 | best iter: alpha2=0  alpha2=1000"
    )
    for r in rows:
        epe = "  ".join(f"{r['epe'][c]:.4f}" for c in cols)
        err = "  ".join(f"{r['adc_err'][c]:.5f}" for c in cols)
        best = "  ".join(str(r["best_iter"][m]) for m, _ in METHODS)
        print(f"{r['amp']:g} {r['seed']} | {epe} | {err} | {best}")
    epe = "  ".join(f"{sum(r['epe'][c] for r in rows) / len(rows):.4f}" for c in cols)
    err = "  ".join(f"{sum(r['adc_err'][c] for r in rows) / len(rows):.5f}" for c in cols)
    print(f"mean | {epe} | {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", nargs="?", help="git ref to study as well, e.g. HEAD~1")
    parser.add_argument("--child", type=int, metavar="CPU", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child is not None:
        # before dwimoco is imported: its kernels size their thread budget
        # from the CPUs the process may run on
        os.sched_setaffinity(0, {args.child})
        study_cases()
        return 0
    from compare_outputs import export_ref

    with tempfile.TemporaryDirectory(prefix="dwimoco-study-") as tmp:
        trees = [("working tree", ROOT)]
        if args.ref is not None:
            ref_src = Path(tmp)
            export_ref(ROOT, args.ref, ref_src)
            trees.append((args.ref, ref_src))
        cpus = sorted(os.sched_getaffinity(0))
        children = [
            (name, start_child(src, cpus[k % len(cpus)])) for k, (name, src) in enumerate(trees)
        ]
        failed = False
        for name, child in children:
            out, _ = child.communicate()
            if child.returncode != 0:
                print(f"{name}: study exited with {child.returncode}", file=sys.stderr)
                failed = True
                continue
            report(name, [json.loads(line) for line in out.splitlines()])
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
