#!/usr/bin/env python3
"""Check that two run_qpt_experiments.py outputs agree in the exact environment.

Compares ``exact_probabilities/seed<N>/`` of two output directories, for
every seed directory the first one has: each ``choi.json`` entry (real and
imaginary parts) and each number in ``report.json`` must agree to within
1e-12.  Booleans, strings and nulls are not numbers here; a number the first
run reports and the second lacks is a failure, and keys only the second has
are ignored.  Sampled environments are not compared, since a change may
move their counts.  Prints each group's largest deviation; exits 1 if one
is above 1e-12, a number is missing, or the first directory has no exact run.

    python scripts/check_exact_agreement.py base_out/ head_out/
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

TOL = 1e-12


def exact_values(run_dir: Path) -> dict[str, np.ndarray]:
    """Every compared number of one exact run, by name."""
    choi = json.loads((run_dir / "choi.json").read_text())
    report = json.loads((run_dir / "report.json").read_text())
    numbers = {
        k: np.array([v])
        for k, v in sorted(report.items())
        if isinstance(v, (int, float)) and not isinstance(v, bool)
    }
    choi_parts = {f"choi.json {part}": np.array(choi[part]) for part in ("re", "im")}
    return {**choi_parts, **numbers}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    args = parser.parse_args()
    runs = sorted((args.base / "exact_probabilities").glob("seed*"))
    if not runs:
        print(f"no exact_probabilities/seed* runs under {args.base}", file=sys.stderr)
        return 1
    failed = False
    for base_run in runs:
        head_run = args.head / base_run.relative_to(args.base)
        base, head = exact_values(base_run), exact_values(head_run)
        for name in base:
            if name not in head:
                failed = True
                print(f"FAIL  {base_run.name} {name}: not a number in {head_run}")
                continue
            dev = float(np.abs(base[name] - head[name]).max())
            ok = dev <= TOL
            failed |= not ok
            print(f"{'ok  ' if ok else 'FAIL'}  {base_run.name} {name}: max deviation {dev:.3e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
