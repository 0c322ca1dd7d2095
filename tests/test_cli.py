import json
import os
import shlex
from pathlib import Path

import numpy as np
import pytest

from choiqpt import gates, noise_model_from_calibration, parse_calibration, qpt, simulator, tomography, viz
from choiqpt.channels import choi_from_unitary, choi_to_chi, choi_to_json, is_cptp
from choiqpt.cli import build_parser, main
from choiqpt.metrics import fidelity_report
from choiqpt.simulator import CountsTable
from choiqpt.tomography import TomographyDataset, linear_inversion, project_cptp
from conftest import (
    data_path,
    oracle_choi_json,
    oracle_dataset_json,
    oracle_matrix_csv,
    oracle_svg_city,
    oracle_svg_hinton,
    read_choi_json,
)

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(*argv) -> int:
    return main(list(argv))


def test_gate_check_passes(capsys):
    assert run_cli("gate-check") == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "SQSCZ == SQRT_SWAP @ SQRT_CZ" in out
    assert "phase" in out  # synthesis global phase is reported


def test_gate_check_corrupted_table_fails(capsys, monkeypatch):
    bad = gates.SQSCZ_MATRIX.copy()
    bad[0, 0] += 1e-3
    monkeypatch.setitem(gates.GATE_DEFS, "SQSCZ", (2, 0, lambda: bad))
    assert run_cli("gate-check") == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


def test_run_exact_identity(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(
        "run",
        "--circuit", data_path("identity2_circuit.json"),
        "--exact",
        "--out", str(out),
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["process_fidelity"] >= 1 - 1e-9
    for fname in (
        "dataset.json",
        "choi.json",
        "report.json",
        "choi_re_city.svg",
        "choi_im_city.svg",
        "chi_re_hinton.svg",
        "chi_im_hinton.svg",
    ):
        assert (out / fname).exists(), fname
    choi = read_choi_json((out / "choi.json").read_text())
    assert is_cptp(choi).passes


def test_run_sampled_deterministic(tmp_path):
    args = [
        "run",
        "--circuit", data_path("sqscz_circuit.json"),
        "--shots", "400",
        "--seed", "3",
    ]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    files = sorted(p.name for p in out1.iterdir())
    assert files == sorted(p.name for p in out2.iterdir())
    assert len(files) == 9
    for fname in files:
        assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()


def test_run_builds_no_counts_table(tmp_path, monkeypatch):
    # the sampled counts stay one integer array from the draw to dataset.json
    def refuse(self):
        raise AssertionError("qpt run built a CountsTable")

    monkeypatch.setattr(CountsTable, "__post_init__", refuse)
    monkeypatch.setattr(CountsTable, "_unchecked", classmethod(lambda cls, *args: refuse(None)))
    out = tmp_path / "out"
    args = ("--shots", "300", "--calib", data_path("ibm_perth_tab1.json"), "--out", str(out))
    assert run_cli("run", "--circuit", data_path("sqscz_circuit.json"), *args) == 0
    assert '"counts": {' in (out / "dataset.json").read_text()


def test_noisy_qpt_and_execute_call_no_tensordot(tmp_path, monkeypatch):
    # every contraction is one transpose and one np.dot; the memos are emptied first, so the
    # simulation, inversion and projection all run
    def refuse(*args, **kwargs):
        raise AssertionError("np.tensordot or np.moveaxis was called")

    for memo in (simulator._from_ground, tomography._probabilities, tomography._ideal_choi):
        memo.cache_clear()
    monkeypatch.setattr(np, "tensordot", refuse)
    monkeypatch.setattr(np, "moveaxis", refuse)
    noise = noise_model_from_calibration(parse_calibration(data_path("ibm_perth_tab1.json")), num_qubits=2)
    assert qpt(gates.load_circuit(data_path("sqscz_circuit.json")), noise, shots=300, seed=2).converged
    args = ("--shots", "300", "--calib", data_path("ibm_perth_tab1.json"), "--out", str(tmp_path))
    assert run_cli("execute", "--circuit", data_path("sqscz_circuit.json"), *args) == 0


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
@pytest.mark.parametrize("mode", ["clean", "noisy", "exact"])
def test_run_files_match_oracle_writers(tmp_path, num_qubits, mode):
    gates = [{"name": "SQSCZ", "params": [], "qubits": [0, 1]}] if num_qubits > 1 else []
    gates += [{"name": "H", "params": [], "qubits": [q]} for q in range(2, num_qubits)]
    circuit = tmp_path / "circuit.json"
    circuit.write_text(json.dumps({"num_qubits": num_qubits, "gates": gates}))
    out = tmp_path / "out"
    flags = {"clean": [], "noisy": ["--calib", data_path("ibm_perth_tab1.json")], "exact": ["--exact"]}
    args = ["run", "--circuit", str(circuit), "--shots", "300", "--seed", "4", "--out", str(out)]
    assert run_cli(*args, *flags[mode]) == 0

    def text(name: str) -> str:
        return (out / name).read_text()

    dataset = TomographyDataset.from_dict(json.loads(text("dataset.json")))
    assert text("dataset.json") == oracle_dataset_json(dataset) + "\n"
    choi = read_choi_json(text("choi.json"))  # bit-exact, so it stands in for the estimate
    assert text("choi.json") == oracle_choi_json(choi) + "\n"
    assert text("choi_re.csv") == oracle_matrix_csv(choi.matrix, "re")
    assert text("choi_im.csv") == oracle_matrix_csv(choi.matrix, "im")
    d = 2**num_qubits  # row index encodes (input basis state, output basis state)
    labels = [f"{k:0{num_qubits}b}{r:0{num_qubits}b}" for k in range(d) for r in range(d)]
    assert text("choi_re_city.svg") == oracle_svg_city(choi.matrix.real, labels, "Re C")
    assert text("choi_im_city.svg") == oracle_svg_city(choi.matrix.imag, labels, "Im C")
    chi = choi_to_chi(choi)
    assert text("chi_re_hinton.svg") == oracle_svg_hinton(chi.matrix.real, chi.labels, "Re chi")
    assert text("chi_im_hinton.svg") == oracle_svg_hinton(chi.matrix.imag, chi.labels, "Im chi")


@pytest.mark.parametrize("num_qubits", [1, 2])
@pytest.mark.parametrize("mode", ["exact", "clean", "tab1", "no_cptp"])
def test_run_dataset_json_reconstructs_its_choi_json(tmp_path, num_qubits, mode):
    # the frequencies a loaded dataset derives from its outcomes invert to the run's own estimate,
    # and the result built from that estimate and the circuit writes the run's own report.json
    name, qubits = ("SQSCZ", [0, 1]) if num_qubits > 1 else ("H", [0])
    gate = {"name": name, "params": [], "qubits": qubits}
    circuit = tmp_path / "circuit.json"
    circuit.write_text(json.dumps({"num_qubits": num_qubits, "gates": [gate]}))
    out = tmp_path / "out"
    flags = {"exact": ["--exact"], "clean": [], "no_cptp": ["--no-cptp"],
             "tab1": ["--calib", data_path("ibm_perth_tab1.json")]}
    args = ["run", "--circuit", str(circuit), "--shots", "500", "--seed", "3", "--out", str(out)]
    assert run_cli(*args, *flags[mode]) == 0
    dataset = TomographyDataset.from_dict(json.loads((out / "dataset.json").read_text()))
    assert (dataset.plan.shots is None) == (mode == "exact")
    raw = linear_inversion(dataset)
    proj = None if mode == "no_cptp" else project_cptp(raw)
    choi, converged = (raw, True) if proj is None else (proj.choi, proj.converged)
    assert choi_to_json(choi) + "\n" == (out / "choi.json").read_text()
    ideal = choi_from_unitary(gates.circuit_unitary(gates.load_circuit(str(circuit))))
    result = tomography.QptResult(choi, raw, ideal, fidelity_report(choi, ideal), dataset, converged)
    report = json.dumps(result.report_dict(), indent=2, sort_keys=True) + "\n"
    assert report == (out / "report.json").read_text()


def _files(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


# each command's first run, then a rerun with other flags into the same directory
RERUNS = {
    "run": (["--shots", "300", "--seed", "1"], ["--shots", "300", "--seed", "3"], "choi.json"),
    "execute": (["--shots", "300"], ["--shots", "500"], "counts.json"),
}


@pytest.mark.parametrize("command", sorted(RERUNS))
def test_rerun_into_same_out_writes_new_files(command, tmp_path):
    first, second, linked = RERUNS[command]
    circuit = ["--circuit", data_path("sqscz_circuit.json")]
    fresh, out, kept = tmp_path / "fresh", tmp_path / "out", tmp_path / "kept"
    assert run_cli(command, *circuit, *second, "--out", str(fresh)) == 0
    assert run_cli(command, *circuit, *first, "--out", str(out)) == 0
    old = _files(out)
    kept.mkdir()
    for name in old:  # a second link keeps each old inode alive, so none is reused
        os.link(out / name, kept / name)
    (out / linked).unlink()
    target = tmp_path / "target.txt"
    target.write_text("not an artifact\n")
    (out / linked).symlink_to(target)

    assert run_cli(command, *circuit, *second, "--out", str(out)) == 0
    assert _files(out) == _files(fresh)
    assert target.read_text() == "not an artifact\n"
    assert not (out / linked).is_symlink()
    for name in old:
        assert not (out / name).samefile(kept / name), name
    del old[linked]
    assert {name: (kept / name).read_bytes() for name in old} == old  # old contents untouched


@pytest.mark.parametrize("command", sorted(RERUNS))
def test_short_writes_still_write_every_byte(command, tmp_path, monkeypatch):
    # os.write may write less than it is given; each artifact loops until all of it is written
    argv = [command, "--circuit", data_path("sqscz_circuit.json"), "--shots", "300"]
    assert run_cli(*argv, "--out", str(tmp_path / "whole")) == 0
    write, calls = os.write, []

    def short_write(fd, data):
        calls.append(len(data))
        return write(fd, bytes(data[:7]))

    monkeypatch.setattr(os, "write", short_write)
    assert run_cli(*argv, "--out", str(tmp_path / "short")) == 0
    whole = _files(tmp_path / "whole")
    assert _files(tmp_path / "short") == whole
    assert len(calls) == sum(-(-len(data) // 7) for data in whole.values())


@pytest.mark.parametrize(
    "flags", [["--exact"], ["--shots", "300"], ["--calib", data_path("ibm_perth_tab1.json")]]
)
def test_run_artifacts_are_ascii(flags, tmp_path):
    # the CLI writes text.encode() (UTF-8): on ASCII text that is what write_text wrote in any locale
    out = tmp_path / "out"
    assert run_cli("run", "--circuit", data_path("sqscz_circuit.json"), *flags, "--out", str(out)) == 0
    files = _files(out)
    assert len(files) == 9
    for name, data in files.items():
        assert data.isascii(), name


def test_many_calls_in_one_process_match_each_call_alone(tmp_path):
    assert build_parser() is build_parser()
    circuit = ["--circuit", data_path("sqscz_circuit.json")]
    calls = [
        ["run", *circuit, "--exact", "--no-cptp"],
        ["run", *circuit, "--shots", "300", "--seed", "2"],
        ["run", *circuit, "--calib", data_path("ibm_perth_tab1.json"), "--shots", "300"],
        ["execute", *circuit, "--shots", "300"],
    ]
    for i, argv in enumerate(calls):
        assert main([*argv, "--out", str(tmp_path / "seq" / str(i))]) == 0
    for i, argv in enumerate(calls):
        build_parser.cache_clear()
        assert main([*argv, "--out", str(tmp_path / "alone" / str(i))]) == 0
        assert _files(tmp_path / "seq" / str(i)) == _files(tmp_path / "alone" / str(i)), argv


def test_report_has_shots_only_when_sampled(tmp_path):
    circuit = data_path("identity2_circuit.json")
    assert run_cli("run", "--circuit", circuit, "--exact", "--out", str(tmp_path / "e")) == 0
    assert "shots" not in json.loads((tmp_path / "e" / "report.json").read_text())
    assert run_cli("run", "--circuit", circuit, "--shots", "200", "--out", str(tmp_path / "s")) == 0
    assert json.loads((tmp_path / "s" / "report.json").read_text())["shots"] == 200


def test_run_no_cptp_flag(tmp_path):
    out = tmp_path / "raw"
    assert run_cli(
        "run",
        "--circuit", data_path("sqscz_circuit.json"),
        "--shots", "300",
        "--seed", "1",
        "--no-cptp",
        "--out", str(out),
    ) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["method"] == "linear_inversion"


def test_execute_noiseless_sqscz(tmp_path):
    out = tmp_path / "exec"
    assert run_cli(
        "execute",
        "--circuit", data_path("sqscz_circuit.json"),
        "--shots", "7168",
        "--seed", "0",
        "--out", str(out),
    ) == 0
    counts = json.loads((out / "counts.json").read_text())
    assert counts["counts"]["00"] == 7168
    assert (out / "counts.svg").exists()


def test_execute_with_noise_model(tmp_path):
    out = tmp_path / "noisy"
    assert run_cli(
        "execute",
        "--circuit", data_path("sqscz_circuit.json"),
        "--calib", data_path("ibm_perth_tab1.json"),
        "--shots", "2000",
        "--seed", "0",
        "--out", str(out),
    ) == 0
    counts = json.loads((out / "counts.json").read_text())
    assert 0.88 < counts["counts"]["00"] / 2000 < 0.97


def test_zero_shots_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("execute", "--circuit", data_path("sqscz_circuit.json"), "--shots", "0")
    assert exc.value.code == 2
    assert "shots > 0 required" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "execute"])
def test_negative_seed_rejected(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(command, "--circuit", data_path("sqscz_circuit.json"), "--seed", "-1",
                "--out", str(tmp_path / "out"))
    assert exc.value.code == 2
    assert "argument --seed: seed must be a non-negative integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "execute"])
def test_oversized_shots_is_input_error(command, tmp_path, capsys):
    out = tmp_path / "out"
    shots = "99999999999999999999"  # beyond the generator's 64-bit count
    assert run_cli(command, "--circuit", data_path("sqscz_circuit.json"), "--shots", shots,
                   "--out", str(out)) == 2
    assert "shots" in capsys.readouterr().err
    assert not out.exists()


# 12 qubits: channel_choi's 4 PiB identity; 24 qubits: the 4 PiB ground state.  Both
# exceed any 64-bit user address space, so numpy fails at once on every host.
@pytest.mark.parametrize("command, num_qubits", [("run", 12), ("execute", 24)])
def test_circuit_too_wide_to_allocate_is_input_error(command, num_qubits, tmp_path, capsys):
    circuit = tmp_path / "wide.json"
    h = {"name": "H", "params": [], "qubits": [0]}
    circuit.write_text(json.dumps({"num_qubits": num_qubits, "gates": [h]}))
    out = tmp_path / "out"
    assert run_cli(command, "--circuit", str(circuit), "--out", str(out)) == 2
    assert "error: Unable to allocate" in capsys.readouterr().err
    assert not out.exists()


def test_run_that_fails_after_tomography_makes_no_output_directory(tmp_path, monkeypatch):
    def fail(*args):
        raise ValueError("no plot")

    monkeypatch.setattr(viz, "svg_hinton", fail)  # the last file run computes
    out = tmp_path / "out"
    assert run_cli("run", "--circuit", data_path("sqscz_circuit.json"), "--out", str(out)) == 2
    assert not out.exists()


def test_missing_circuit_is_input_error(tmp_path, capsys):
    assert run_cli("run", "--circuit", str(tmp_path / "nope.json")) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_circuit_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"gates": "what"}')
    assert run_cli("run", "--circuit", str(bad)) == 2


@pytest.mark.parametrize("flag", ["--circuit", "--calib"])
def test_file_that_is_not_json_is_input_error(flag, tmp_path, capsys):
    # json's JSONDecodeError is a ValueError, so main's ValueError branch reports it
    bad = tmp_path / "bad.json"
    bad.write_text("not json {")
    paths = {"--circuit": data_path("sqscz_circuit.json"), "--calib": data_path("ibm_perth_tab1.json")}
    paths[flag] = str(bad)
    out = tmp_path / "out"
    for cmd in ("run", "execute"):
        assert run_cli(cmd, *(x for item in paths.items() for x in item), "--out", str(out)) == 2
        assert "error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "edit",
    [
        lambda c: c["qubits"][0].update(t1_us=None),
        lambda c: c.update(qubits=5),
        lambda c: c.update(durations_ns=[35]),
        lambda c: c["qubits"][1].update(index=1.8),
        lambda c: c["cnot"][0].update(control=0.6),
        lambda c: c["qubits"][0].update(t1_us=float("nan")),
        lambda c: c["qubits"][1].update(t2_us=float("nan")),
        lambda c: c["qubits"][0].update(readout_ns=float("nan")),
        lambda c: c["durations_ns"].update(cnot=float("nan")),
        lambda c: c["durations_ns"].update(sx=float("inf")),
        lambda c: c["durations_ns"].update(sx=-5),
        lambda c: c["qubits"][0].update(readout_ns=-5),
        lambda c: c["cnot"][0].update(target=0),
        lambda c: c["qubits"][0].update(index=-1),
        lambda c: c["qubits"][1].update(index=0),
        lambda c: c["cnot"].append(dict(c["cnot"][0])),
        lambda c: c["durations_ns"].update(SX=35),
        lambda c: c["qubits"][0].update(t1_us="112.2"),
        lambda c: c["qubits"][1].update(index=True),
        lambda c: c["cnot"][0].update(target=True),
        lambda c: c["cnot"][0].update(error="0.5"),
        lambda c: c["durations_ns"].update(sx="35"),
        lambda c: c["cnot"][0].update(target=10**30),
    ],
    ids=[
        "null_t1", "qubits_not_a_list", "durations_not_an_object", "fractional_index",
        "fractional_cnot_control", "nan_t1", "nan_t2", "nan_readout_length", "nan_cnot_duration",
        "infinite_sx_duration", "negative_sx_duration", "negative_readout_length", "self_cnot",
        "negative_index", "duplicate_qubit", "duplicate_cnot_pair", "duplicate_duration",
        "string_t1", "boolean_index", "boolean_cnot_target", "string_cnot_error", "string_duration",
        "unlisted_cnot_target",
    ],
)
def test_malformed_calibration_is_input_error(tmp_path, capsys, edit):
    calib = json.loads(Path(data_path("ibm_perth_tab1.json")).read_text())
    edit(calib)
    bad = tmp_path / "calib.json"
    bad.write_text(json.dumps(calib))
    circuit = data_path("sqscz_circuit.json")
    for cmd in ("run", "execute"):
        assert run_cli(cmd, "--circuit", circuit, "--calib", str(bad), "--out", str(tmp_path)) == 2
        assert "malformed calibration record" in capsys.readouterr().err


def test_readme_commands_run(tmp_path, monkeypatch):
    """Every ``qpt`` command of the README's "Command line" block exits 0."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()  # join continuation lines
    commands = [shlex.split(line) for line in lines if line.startswith("qpt ")]
    assert [argv[1] for argv in commands] == ["gate-check", "run", "run", "run", "execute"]
    monkeypatch.chdir(README.parent)  # the README's data paths are relative to the repository
    for argv in commands:
        if "--out" in argv:
            i = argv.index("--out") + 1
            argv[i] = str(tmp_path / argv[i])
        assert main(argv[1:]) == 0, argv
    assert len(list(tmp_path.glob("qpt_out/*/report.json"))) == 3
