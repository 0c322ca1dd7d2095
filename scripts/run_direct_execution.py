#!/usr/bin/env python3
"""Execute the SQSCZ circuit directly and tally outcome frequencies.

Runs the clean simulator and the calibrated-noise simulator for the same
shot budget (default 7,168) and prints both histograms side by side.  Each
backend is one ``qpt execute`` writing ``counts.json`` and ``counts.svg``
to ``<out>/clean/`` and ``<out>/noisy/``.  On the clean simulator every
shot lands in 00; under calibrated noise a few percent leak into the other
outcomes, with 11 the rarest.
"""

import argparse
import json
import sys
from pathlib import Path

import choiqpt
from choiqpt import cli

DATA = Path(choiqpt.__file__).parent / "data"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shots", type=cli._positive_int, default=7_168)
    parser.add_argument("--seed", type=cli._seed, default=0)
    parser.add_argument("--out", default="direct_execution", type=Path)
    parser.add_argument("--calib", default=str(DATA / "ibm_perth_tab1.json"))
    args = parser.parse_args()

    counts = {}
    for backend, flags in (("clean", []), ("noisy", ["--calib", args.calib])):
        argv = ["execute", "--circuit", str(DATA / "sqscz_circuit.json"), "--shots",
                str(args.shots), "--seed", str(args.seed), "--out", str(args.out / backend)]
        if code := cli.main(argv + flags):
            sys.exit(code)
        counts[backend] = json.loads((args.out / backend / "counts.json").read_text())["counts"]

    print(f"\n{args.shots} shots per backend (seed {args.seed})\n")
    print(f"{'outcome':<10}{'clean':>10}{'noisy':>10}{'noisy freq':>14}")
    clean, noisy = counts["clean"], counts["noisy"]
    for key in sorted(clean):
        print(f"{key:<10}{clean[key]:>10}{noisy[key]:>10}{noisy[key] / args.shots:>14.5f}")
    print(f"\nartifacts in {args.out}/")


if __name__ == "__main__":
    main()
