"""Command-line front end.

Subcommands::

    qpt gate-check                         verify the gate-library identities
    qpt run --circuit c.json [options]     full process tomography + reports
    qpt execute --circuit c.json [options] run a circuit and histogram counts

Exit codes: 0 success, 1 verification failure, 2 input error.  A run replaces
each artifact in ``--out`` with a new file, so a symlink there is replaced, not
followed.  ``main`` builds its parser once per process, for in-process drivers.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import viz
from .channels import choi_to_chi, choi_to_json, matrix_csv
from .gates import load_circuit, verify_gate_identities
from .linalg import product_labels
from .noise import noise_model_from_calibration, parse_calibration
from .simulator import circuit_probabilities, sample_counts
from .tomography import ReconstructionOptions, qpt


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_noise(args, num_qubits: int):
    if not args.calib:
        return None
    calib = parse_calibration(args.calib)
    return noise_model_from_calibration(
        calib, num_qubits=num_qubits, label=Path(args.calib).name
    )


def cmd_gate_check(args) -> int:
    checks = verify_gate_identities()
    failed = 0
    for chk in checks:
        status = "PASS" if chk.passed else "FAIL"
        failed += not chk.passed
        line = f"{status}  {chk.name}: max deviation {chk.deviation:.3e} (tol {chk.tolerance:.0e})"
        if chk.detail:
            line += f"  [{chk.detail}]"
        print(line)
    print(f"{len(checks) - failed}/{len(checks)} identities verified")
    return 1 if failed else 0


def _write_files(out: str, files: dict[str, str]) -> Path:
    # Each file is written new, not over the old one: ext4 starts writeback when a file
    # truncated to zero is closed, and a temp file renamed over the old one flushes too.
    # Plain os calls take about a third less time per file than Path.unlink and write_text.
    # Every artifact is ASCII, so its UTF-8 bytes are what write_text wrote in any locale.
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)  # once every file is computed, so a failed run makes none
    for name, text in files.items():
        path = os.path.join(out, name)
        try:
            os.unlink(path)
        except FileNotFoundError:
            pass
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            data = memoryview(text.encode())
            while data:  # os.write may write less than it is given
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
    return out


def cmd_run(args) -> int:
    circuit = load_circuit(args.circuit)
    noise = _load_noise(args, circuit.num_qubits)
    options = ReconstructionOptions("linear_inversion" if args.no_cptp else "linear_inversion_then_cptp")
    shots = None if args.exact else args.shots
    result = qpt(circuit, noise=noise, shots=shots, seed=args.seed, options=options)
    labels = product_labels("01", 2 * circuit.num_qubits)  # (input, output) basis states
    chi = choi_to_chi(result.choi)
    files = {
        "dataset.json": result.dataset.to_json() + "\n",
        "choi.json": choi_to_json(result.choi) + "\n",
        "report.json": _json_dumps(result.report_dict()),
        "choi_re.csv": matrix_csv(result.choi.matrix, "re"),
        "choi_im.csv": matrix_csv(result.choi.matrix, "im"),
        "choi_re_city.svg": viz.svg_city(result.choi.matrix.real, labels, "Re C"),
        "choi_im_city.svg": viz.svg_city(result.choi.matrix.imag, labels, "Im C"),
        "chi_re_hinton.svg": viz.svg_hinton(chi.matrix.real, chi.labels, "Re chi"),
        "chi_im_hinton.svg": viz.svg_hinton(chi.matrix.imag, chi.labels, "Im chi"),
    }
    out = _write_files(args.out, files)

    rep = result.report
    print(
        f"process fidelity {rep.process_fidelity:.6f}  "
        f"avg gate fidelity {rep.average_gate_fidelity:.6f}  "
        f"min eig {rep.min_eigenvalue:.2e}  tp dev {rep.tp_deviation:.2e}"
    )
    print(f"outputs written to {out}/")
    return 0


def cmd_execute(args) -> int:
    circuit = load_circuit(args.circuit)
    noise = _load_noise(args, circuit.num_qubits)
    table = sample_counts(circuit_probabilities(circuit, noise), args.shots, args.seed)
    svg = viz.svg_counts_bar(table.counts, table.shots, "Measured outcomes")
    out = _write_files(args.out, {"counts.json": _json_dumps(table.to_dict()), "counts.svg": svg})
    top = max(table.counts, key=table.counts.get)
    print(f"{table.shots} shots; most frequent outcome {top!r} ({table.frequency(top):.4f})")
    print(f"outputs written to {out}/")
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError("shots > 0 required")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be a non-negative integer, got {value}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpt", description="Two-qubit gate simulation and Choi-matrix process tomography"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("gate-check", help="verify gate-library identities").set_defaults(
        func=cmd_gate_check
    )

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--circuit", required=True, help="circuit JSON path")
    common.add_argument("--calib", help="calibration JSON enabling the noise model")
    common.add_argument("--shots", type=_positive_int, default=4000)
    common.add_argument("--seed", type=_seed, default=0)
    common.add_argument("--out", default="qpt_out", help="output directory")

    p_run = sub.add_parser("run", parents=[common], help="run process tomography")
    p_run.add_argument("--exact", action="store_true", help="use exact probabilities, no sampling")
    p_run.add_argument("--no-cptp", action="store_true", help="skip the CPTP projection")
    p_run.set_defaults(func=cmd_run)

    p_exec = sub.add_parser("execute", parents=[common], help="execute a circuit and tally counts")
    p_exec.set_defaults(func=cmd_execute)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, MemoryError) as exc:  # a json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
