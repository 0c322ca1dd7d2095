#!/usr/bin/env python3
"""Check that fixed-seed experiment outputs agree across two OpenBLAS kernels.

Runs ``run_qpt_experiments.py --seeds 1`` twice, in subprocesses whose
``OPENBLAS_CORETYPE`` is Haswell and then Sandybridge, and compares the two
trees.  Every sampled ``dataset.json`` and every SVG must be byte-identical:
``draw_counts`` rounds onto a 2^-40 grid, so counts do not hang on the
kernel's last bits.  In every other file the text between the numbers must
be identical, and each number must agree within 1e-12; a ``%.12g`` CSV entry
may also differ by one unit of its last printed digit.  Exits 1 on a
mismatch.  Unless numpy's BLAS is an OpenBLAS built with DYNAMIC_ARCH, the
build that picks its kernel at run time, it prints why and exits 0 without
running anything.

    python scripts/check_kernel_portability.py --out kernels/
"""

import argparse
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

KERNELS = ("Haswell", "Sandybridge")
TOL = 1e-12
EXPERIMENTS = Path(__file__).with_name("run_qpt_experiments.py")
_NUMBER = re.compile(r"-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")


def dynamic_arch_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy without mode= (before 1.26), or no BLAS record
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def compare(a: Path, b: Path) -> list[str]:
    """What differs beyond the rules above between the trees ``a`` and ``b``."""
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    if files != sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file()):
        return ["the two runs wrote different files"]
    problems = []
    for rel in files:
        x, y = (a / rel).read_text(), (b / rel).read_text()
        if rel.suffix == ".svg" or rel.name == "dataset.json" and rel.parts[0] != "exact_probabilities":
            if x != y:
                problems.append(f"{rel} is not byte-identical")
            continue
        if _NUMBER.sub("#", x) != _NUMBER.sub("#", y):
            problems.append(f"{rel}: the text between its numbers differs")
            continue
        for u, v in zip(map(float, _NUMBER.findall(x)), map(float, _NUMBER.findall(y))):
            top = max(abs(u), abs(v))
            digit = 10.0 ** (math.floor(math.log10(top)) - 11) if rel.suffix == ".csv" and top else 0.0
            if abs(u - v) > TOL + digit:
                problems.append(f"{rel}: {u!r} and {v!r} differ by more than {TOL}")
                break
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="kernel_portability", type=Path)
    args = parser.parse_args()
    if not dynamic_arch_openblas():
        print("skipped: numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so OPENBLAS_CORETYPE picks no kernel")
        return 0
    trees = [args.out / kernel for kernel in KERNELS]
    for kernel, tree in zip(KERNELS, trees):
        command = [sys.executable, str(EXPERIMENTS), "--seeds", "1", "--out", str(tree)]
        subprocess.run(command, env=dict(os.environ, OPENBLAS_CORETYPE=kernel), check=True)
    problems = compare(*trees)
    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        print(f"{' and '.join(KERNELS)} kernels: counts and SVGs byte-identical, other numbers within {TOL}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
