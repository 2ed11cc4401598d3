#!/usr/bin/env python3
"""Same-host A/B: run the untraced workloads against several trees.

    python3 perfbench/ab.py --rev 4268d98 --rev 9cd3666 --rev HEAD \\
        --workload fig10-n50-4x4 --seconds 20

Each ``--rev`` is exported offline from the local git history
(``git archive <rev> src``) into ``perfbench/results/trees/<rev>``;
``--src DIR`` adds an already exported ``src/`` directory.  Every tree
runs ``perfbench/run.py --trace 0`` with the same seed, one after the
other on this host, and the end-to-end metrics are printed side by
side.  ``sweep-store`` is skipped on trees without ``repro.store``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TREES = HERE / "results" / "trees"
WORKLOADS = ("fig10-n50-4x4", "fig8-streamit-4x4", "sweep-store")


def export(rev: str) -> Path:
    """``src/`` of ``rev``, extracted once under ``results/trees``."""
    sha = subprocess.run(["git", "rev-parse", "--short", rev], cwd=ROOT,
                         capture_output=True, text=True,
                         check=True).stdout.strip()
    dest = TREES / sha
    if not (dest / "src").is_dir():
        dest.mkdir(parents=True, exist_ok=True)
        archive = subprocess.run(["git", "archive", sha, "src"], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", str(dest)], input=archive,
                       check=True)
    return dest / "src"


def run_one(src: Path, workload: str, seed: int, seconds: float):
    """The result JSON of one run, or None if the tree lacks the
    workload (``run.py`` exits 2)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
         "--src", str(src)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode == 2:
        return None
    if proc.returncode != 0:
        raise SystemExit(f"{src}: {workload} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", action="append", default=[],
                    help="git revision to export and measure")
    ap.add_argument("--src", action="append", default=[], type=Path,
                    help="an exported src/ directory to measure")
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=2011)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)
    trees = [(rev, export(rev)) for rev in args.rev]
    trees += [(str(src), src) for src in args.src]
    if not trees:
        ap.error("give at least one --rev or --src")
    for workload in args.workload or WORKLOADS:
        rows = []
        for name, src in trees:
            res = run_one(src, workload, args.seed, args.seconds)
            rows.append((name, res))
        print(f"\n{workload} (seed {args.seed})")
        metrics = next((r["metrics"] for _, r in rows if r), {})
        print(f"  {'tree':<14}" + "".join(f"{m:>20}" for m in metrics)
              + f"{'failed':>10}")
        for name, res in rows:
            if res is None:
                print(f"  {name:<14}  skipped: workload absent in tree")
                continue
            cells = "".join(f"{res['metrics'][m]['value']:>20.6g}"
                            for m in metrics)
            print(f"  {name:<14}{cells}"
                  f"{res['failed']:>5}/{res['attempted']:<4}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
