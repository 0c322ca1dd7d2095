#!/usr/bin/env python3
"""Tomograph the SQSCZ gate in three environments and compare fidelities.

Environments: exact probabilities (no sampling), a clean simulator sampled
at 11,000 shots per setting, and the calibrated-noise simulator sampled at
4,000 shots.  Every run is one ``qpt run`` writing its usual artifacts to
``<out>/<environment>/seed<N>/``; the exact environment runs once, with
the first seed.  ``<out>/summary.json`` maps each environment to its
process fidelities, one per seed.

    python scripts/run_qpt_experiments.py --out results/ --seeds 0 1 2
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
    parser.add_argument("--out", default="qpt_experiments", type=Path)
    parser.add_argument("--seeds", type=cli._seed, nargs="+", default=[0, 1, 2, 3, 4])
    parser.add_argument("--clean-shots", type=cli._positive_int, default=11_000)
    parser.add_argument("--noisy-shots", type=cli._positive_int, default=4_000)
    parser.add_argument("--calib", default=str(DATA / "ibm_perth_tab1.json"))
    args = parser.parse_args()

    environments = [
        ("exact_probabilities", None, ["--exact"], args.seeds[:1]),
        ("clean_simulator", args.clean_shots, [], args.seeds),
        ("calibrated_noise", args.noisy_shots, ["--calib", args.calib], args.seeds),
    ]
    summary = {}
    for env, shots, flags, seeds in environments:
        summary[env] = []
        for seed in seeds:
            run_dir = args.out / env / f"seed{seed}"
            argv = ["run", "--circuit", str(DATA / "sqscz_circuit.json"), "--seed", str(seed)]
            argv += ["--out", str(run_dir), *flags] + (["--shots", str(shots)] if shots else [])
            if code := cli.main(argv):
                sys.exit(code)
            report = json.loads((run_dir / "report.json").read_text())
            summary[env].append(report["process_fidelity"])
    (args.out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")

    print(f"\n{'environment':<28}{'shots':>8}{'runs':>6}{'mean F_P':>12}{'min':>10}{'max':>10}")
    for env, shots, _, _ in environments:
        fids = summary[env]
        print(
            f"{env.replace('_', ' '):<28}{shots or 'exact':>8}{len(fids):>6}"
            f"{sum(fids) / len(fids):>12.5f}{min(fids):>10.5f}{max(fids):>10.5f}"
        )
    print(f"\nartifacts in {args.out}/")


if __name__ == "__main__":
    main()
