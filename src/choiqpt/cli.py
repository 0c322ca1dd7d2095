"""Command-line front end.

Subcommands::

    qpt gate-check                         verify the gate-library identities
    qpt run --circuit c.json [options]     full process tomography + reports
    qpt execute --circuit c.json [options] run a circuit and histogram counts

Exit codes: 0 success, 1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import viz
from .channels import choi_to_chi, choi_to_json, matrix_csv
from .gates import load_circuit, verify_gate_identities
from .noise import noise_model_from_calibration, parse_calibration
from .simulator import circuit_probabilities, sample_counts
from .tomography import ReconstructionOptions, qpt


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _load_noise(args, num_qubits: int):
    if not args.calib:
        return None
    calib = parse_calibration(args.calib)
    return noise_model_from_calibration(
        calib, num_qubits=num_qubits, label=Path(args.calib).name
    )


def _choi_labels(num_qubits: int) -> list[str]:
    # row index encodes (input basis state, output basis state)
    d = 2**num_qubits
    return [
        f"{format(k, f'0{num_qubits}b')}{format(r, f'0{num_qubits}b')}"
        for k in range(d)
        for r in range(d)
    ]


def cmd_gate_check(args) -> int:
    overrides = None
    if args.corrupt:
        from .gates import gate_unitary

        bad = gate_unitary(args.corrupt).copy()
        bad[0, 0] += 1e-3
        overrides = {args.corrupt: bad}
    checks = verify_gate_identities(overrides)
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


def cmd_run(args) -> int:
    circuit = load_circuit(args.circuit)
    noise = _load_noise(args, circuit.num_qubits)
    method = "linear_inversion" if args.no_cptp else "linear_inversion_then_cptp"
    options = ReconstructionOptions(method=method)
    result = qpt(
        circuit,
        noise=noise,
        shots=args.shots,
        seed=args.seed,
        options=options,
        exact=args.exact,
    )
    out = Path(args.out)
    _write(out / "dataset.json", result.dataset.to_json() + "\n")
    _write(out / "choi.json", choi_to_json(result.choi) + "\n")
    report = result.report_dict(shots=None if args.exact else args.shots, seed=args.seed)
    report["method"] = method
    report["exact"] = args.exact
    report["noise"] = noise.label if noise is not None else None
    _write(out / "report.json", _json_dumps(report))

    _write(out / "choi_re.csv", matrix_csv(result.choi.matrix, "re"))
    _write(out / "choi_im.csv", matrix_csv(result.choi.matrix, "im"))

    labels = _choi_labels(circuit.num_qubits)
    _write(out / "choi_re_city.svg", viz.svg_city(result.choi.matrix.real, labels, "Re C"))
    _write(out / "choi_im_city.svg", viz.svg_city(result.choi.matrix.imag, labels, "Im C"))
    chi = choi_to_chi(result.choi)
    _write(out / "chi_re_hinton.svg", viz.svg_hinton(chi.matrix.real, chi.labels, "Re chi"))
    _write(out / "chi_im_hinton.svg", viz.svg_hinton(chi.matrix.imag, chi.labels, "Im chi"))

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
    out = Path(args.out)
    _write(out / "counts.json", table.to_json() + "\n")
    _write(out / "counts.svg", viz.svg_counts_bar(table.counts, table.shots, "Measured outcomes"))
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpt", description="Two-qubit gate simulation and Choi-matrix process tomography"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("gate-check", help="verify gate-library identities")
    p_check.add_argument("--corrupt", metavar="GATE", help=argparse.SUPPRESS)
    p_check.set_defaults(func=cmd_gate_check)

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
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
