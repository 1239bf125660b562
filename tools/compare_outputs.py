"""Compare the CLI outputs of this checkout with those of another git ref.

Usage, from anywhere inside the repository:

    python3 tools/compare_outputs.py <ref>

Exports <ref> with `git archive` into a temporary directory, runs the same
fixed set of `dwimoco` commands with each source tree (the working tree of
this checkout and the exported ref), and compares the two output trees with
`diff -rq`.  Standard error of every command is kept next to its outputs,
with the output root replaced by a placeholder so that only the messages
are compared.  Exits 1 if any file differs, 0 if the trees are identical.
It prints each differing file, and under it how far the two copies are
apart: for a `.raw` volume container (float32 little-endian values) the
largest absolute difference, the largest relative one, |a - b| /
max(|a|, |b|) per value, the largest magnitude and how many values differ,
and for a CSV file each line that differs, the ref's line then the work
tree's.

The command set: `simulate` for seeds 1-3 at 24x24x8, seed 4 at 48x48x12
and seed 5 at 96x96x16 (simulate only: the smaller grids draw one cycle per
axis at most, this one the two-cycle motion modes of the benchmark's grid),
`fit`, `morph` with alpha2 = 1000 and with alpha2 = 0,
a longer `morph` (8 outer passes) that stops at a pass returning its
starting fields, a `morph` of the 48x48x12 case, whose kernels are large
enough to run on every thread the process may use (24x24x8 ones stay on
one), a `morph --config` of that case with the settings of the benchmark's
case_ref workload (plateau and ADC stops off), so the config loader runs
too, `cohort --cases`, and a simulated `cohort --n-cases 4 --workers 2`.
Against another ref it is a tool to run by hand, since a change that means
to alter outputs fails it by design; CI runs it against HEAD, where it
checks that the outputs repeat on two copies of the sources.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

import numpy as np

CAPS = ["--max-outer", "3", "--max-inner", "10"]
# the morph config of perfbench's case_ref workload, written to {out}/morph_config.json
MORPH_CONFIG = (
    '{"pipeline": {"max_outer_iters": 3, "max_inner_steps": 5, '
    '"plateau_window": 0, "converge_window": 3}}\n'
)

# (output subdirectory, dwimoco arguments); "{out}" is the output root
COMMANDS = [
    *[
        (
            f"cases/sim00{s}",
            ["simulate", "--dims", "24,24,8", "--seed", str(s), "--ga", str(20 + 5 * s)],
        )
        for s in (1, 2, 3)
    ],
    ("big", ["simulate", "--dims", "48,48,12", "--seed", "4"]),
    ("sim96", ["simulate", "--dims", "96,96,16", "--seed", "5"]),
    ("fit", ["fit", "--case", "{out}/big/manifest.json"]),
    ("morph_big", ["morph", "--case", "{out}/big/manifest.json", *CAPS]),
    (
        "morph_config",
        ["morph", "--case", "{out}/big/manifest.json", "--config", "{out}/morph_config.json"],
    ),
    ("morph", ["morph", "--case", "{out}/cases/sim001/manifest.json", *CAPS]),
    (
        "morph_nomf",
        ["morph", "--case", "{out}/cases/sim001/manifest.json", "--alpha2", "0", *CAPS],
    ),
    (
        "morph_fixed_point",
        [
            "morph", "--case", "{out}/cases/sim001/manifest.json",
            "--max-outer", "8", "--max-inner", "10",
        ],
    ),
    ("cohort_cases", ["cohort", "--cases", "{out}/cases", *CAPS]),
    (
        "cohort_sim",
        ["cohort", "--n-cases", "4", "--workers", "2", "--dims", "20,20,8", "--seed", "3", *CAPS],
    ),
]


def export_ref(repo: Path, ref: str, dest: Path) -> None:
    archive = subprocess.run(
        ["git", "-C", str(repo), "archive", ref], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_commands(src: Path, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src / "src"))
    out.mkdir(parents=True)
    (out / "morph_config.json").write_text(MORPH_CONFIG)
    for sub, argv in COMMANDS:
        target = out / sub
        args = [a.replace("{out}", str(out)) for a in argv] + ["--out", str(target)]
        proc = subprocess.run(
            [sys.executable, "-m", "dwimoco.cli", *args],
            env=env,
            capture_output=True,
            text=True,
        )
        target.mkdir(parents=True, exist_ok=True)
        log = proc.stderr.replace(str(out), "<out>") + f"exit {proc.returncode}\n"
        (target / "stderr.txt").write_text(log)


def raw_difference(ref: Path, work: Path) -> str:
    """The largest absolute and relative difference of two float32 containers,
    their largest magnitude and the count of values that differ."""
    a, b = (np.fromfile(p, dtype="<f4").astype(np.float64) for p in (ref, work))
    if a.shape != b.shape:
        return f"  {a.size} values against {b.size}"
    diff = np.abs(a - b)
    scale = np.maximum(np.abs(a), np.abs(b))
    rel = np.divide(diff, scale, out=np.zeros_like(diff), where=scale > 0)
    return (
        f"  max abs diff {diff.max():.6g}, max rel diff {rel.max():.6g}, "
        f"max |value| {scale.max():.6g}, {np.count_nonzero(diff)} of {a.size} values differ"
    )


def csv_difference(ref: Path, work: Path) -> str:
    """Each line that differs between two CSV files, numbered from 1."""
    lines = []
    pairs = zip_longest(ref.read_text().splitlines(), work.read_text().splitlines())
    for k, (a, b) in enumerate(pairs, start=1):
        if a != b:
            lines += [f"  line {k} ref:  {a}", f"  line {k} work: {b}"]
    return "\n".join(lines)


def describe(diff_output: str) -> str:
    """`diff -rq` output with the size of every .raw or .csv difference."""
    lines = []
    for line in diff_output.splitlines():
        lines.append(line)
        parts = line.split(" ")
        if line.startswith("Files ") and line.endswith(" differ") and len(parts) == 5:
            ref, work = Path(parts[1]), Path(parts[3])
            if ref.suffix == ".raw":
                lines.append(raw_difference(ref, work))
            elif ref.suffix == ".csv":
                lines.append(csv_difference(ref, work))
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="git ref to compare against, e.g. HEAD~1")
    args = parser.parse_args(argv)
    repo = Path(
        subprocess.run(
            ["git", "rev-parse", "--show-toplevel"], check=True, capture_output=True, text=True
        ).stdout.strip()
    )
    with tempfile.TemporaryDirectory(prefix="dwimoco-compare-") as tmp:
        tmp = Path(tmp)
        ref_src = tmp / "ref"
        ref_src.mkdir()
        export_ref(repo, args.ref, ref_src)
        for name, src in (("ref", ref_src), ("work", repo)):
            print(f"running the command set with the {name} tree", file=sys.stderr)
            run_commands(src, tmp / f"out_{name}")
        diff = subprocess.run(
            ["diff", "-rq", str(tmp / "out_ref"), str(tmp / "out_work")],
            capture_output=True,
            text=True,
        )
        if diff.returncode == 0:
            print(f"outputs identical to {args.ref}")
            return 0
        print(describe(diff.stdout).replace(str(tmp), "<tmp>"), end="")
    return 1


if __name__ == "__main__":
    sys.exit(main())
