"""Compare the CLI outputs of this checkout with those of another git ref.

Usage, from anywhere inside the repository:

    python3 tools/compare_outputs.py <ref>

Exports <ref> with `git archive` into a temporary directory, runs the same
fixed set of `dwimoco` commands with each source tree (the working tree of
this checkout and the exported ref), and compares the two output trees with
`diff -rq`.  Standard error of every command is kept next to its outputs,
with the output root replaced by a placeholder so that only the messages
are compared.  Prints the differing files and exits 1 if any differ, 0 if
the trees are identical.

The command set: `simulate` for seeds 1-3 at 24x24x8 and seed 4 at 48x48x12,
`fit --method both`, `morph` with alpha2 = 1000 and with alpha2 = 0,
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
from pathlib import Path

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
    ("fit", ["fit", "--case", "{out}/big/manifest.json", "--method", "both"]),
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
    print(diff.stdout.replace(str(tmp), "<tmp>"), end="")
    return 1


if __name__ == "__main__":
    sys.exit(main())
