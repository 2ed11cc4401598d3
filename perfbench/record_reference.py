"""Record the reference outputs the benchmark checks against.

Panel workloads run the library's own panel runners
(``run_random_experiment`` and ``run_streamit_experiment``) from the
``repro`` package under ``--src`` and keep, per instance label, the
chosen period and each column's energy ``repr`` or failure reason.
``sweep-store`` keeps the cold report of one sweep pass.

    python3 perfbench/record_reference.py --src <checkout>/src \\
        --tree <commit> --workload fig10-n50-4x4

Point ``--src`` at an offline export of an older tree (``git archive``)
to pin the outputs to that tree rather than to the code being measured.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import panels  # noqa: E402
import sweep  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", required=True, help="the tree's src/ directory")
    ap.add_argument("--tree", required=True,
                    help="label of the tree, e.g. its commit id")
    ap.add_argument("--workload", required=True,
                    choices=(*panels.PANEL_WORKLOADS, sweep.SWEEP))
    ap.add_argument("--seed", type=int, default=panels.DEFAULT_PANEL_SEED,
                    help="panel seed, or sweep seed for sweep-store")
    ap.add_argument("--out", help="default: reference/<workload>.json")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    doc = {"workload": args.workload, "seed": args.seed, "tree": args.tree}
    if args.workload == sweep.SWEEP:
        result = sweep.run_pass(args.seed, sweep.default_jobs(),
                                HERE / "results" / "tmp")
        doc["report"] = result["cold"]
        count = result["cold"]["meta"]["processed_instances"]
    else:
        doc["instances"] = panels.library_outputs(args.workload, args.seed)
        count = len(doc["instances"])
    out = Path(args.out or HERE / "reference" / f"{args.workload}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"{count} instances -> {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
