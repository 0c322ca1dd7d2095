#!/usr/bin/env python3
"""Execute the SQSCZ circuit directly and tally outcome frequencies.

Runs the clean simulator and the calibrated-noise simulator for the same
shot budget (default 7,168) and prints both histograms side by side.  On
the clean simulator every shot lands in 00; under calibrated noise a few
percent leak into the other outcomes, with 11 the rarest.
"""

import argparse
import importlib.resources
from pathlib import Path

from choiqpt import (
    Circuit,
    circuit_probabilities,
    ga,
    noise_model_from_calibration,
    parse_calibration,
    sample_counts,
)
from choiqpt.viz import svg_counts_bar


def data_file(name: str) -> str:
    return str(importlib.resources.files("choiqpt").joinpath(f"data/{name}"))


def run(circuit, noise, shots, seed):
    confusion = noise.confusion_for(circuit.num_qubits) if noise is not None else None
    return sample_counts(circuit_probabilities(circuit, noise), shots, seed, confusion=confusion)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shots", type=int, default=7_168)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="direct_execution", type=Path)
    parser.add_argument("--calib", default=data_file("ibm_perth_tab1.json"))
    args = parser.parse_args()

    circuit = Circuit(2, (ga("SQSCZ", (0, 1)),))
    noise = noise_model_from_calibration(parse_calibration(args.calib), num_qubits=2)

    clean = run(circuit, None, args.shots, args.seed)
    noisy = run(circuit, noise, args.shots, args.seed)

    print(f"{args.shots} shots per backend (seed {args.seed})\n")
    print(f"{'outcome':<10}{'clean':>10}{'noisy':>10}{'noisy freq':>14}")
    for key in sorted(clean.counts):
        print(
            f"{key:<10}{clean.counts[key]:>10}{noisy.counts[key]:>10}"
            f"{noisy.frequency(key):>14.5f}"
        )

    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "counts_clean.json").write_text(clean.to_json() + "\n")
    (args.out / "counts_noisy.json").write_text(noisy.to_json() + "\n")
    (args.out / "counts_clean.svg").write_text(
        svg_counts_bar(clean.counts, clean.shots, "clean simulator")
    )
    (args.out / "counts_noisy.svg").write_text(
        svg_counts_bar(noisy.counts, noisy.shots, "calibrated noise")
    )
    print(f"\nartifacts in {args.out}/")


if __name__ == "__main__":
    main()
