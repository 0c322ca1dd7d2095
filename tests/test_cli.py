import json
import shlex
from pathlib import Path

import pytest

from choiqpt.channels import choi_from_json, choi_to_chi, is_cptp
from choiqpt.cli import _choi_labels, main
from choiqpt.tomography import TomographyDataset
from conftest import (
    data_path,
    oracle_choi_json,
    oracle_dataset_json,
    oracle_svg_city,
    oracle_svg_hinton,
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


def test_gate_check_corrupted_table_fails(capsys):
    assert run_cli("gate-check", "--corrupt", "SQSCZ") == 1
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
    choi = choi_from_json((out / "choi.json").read_text())
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
    choi = choi_from_json(text("choi.json"))  # bit-exact, so it stands in for the estimate
    assert text("choi.json") == oracle_choi_json(choi) + "\n"
    labels = _choi_labels(num_qubits)
    assert text("choi_re_city.svg") == oracle_svg_city(choi.matrix.real, labels, "Re C")
    assert text("choi_im_city.svg") == oracle_svg_city(choi.matrix.imag, labels, "Im C")
    chi = choi_to_chi(choi)
    assert text("chi_re_hinton.svg") == oracle_svg_hinton(chi.matrix.real, chi.labels, "Re chi")
    assert text("chi_im_hinton.svg") == oracle_svg_hinton(chi.matrix.imag, chi.labels, "Im chi")


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


def test_missing_circuit_is_input_error(tmp_path, capsys):
    assert run_cli("run", "--circuit", str(tmp_path / "nope.json")) == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_circuit_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"gates": "what"}')
    assert run_cli("run", "--circuit", str(bad)) == 2


@pytest.mark.parametrize(
    "edit",
    [
        lambda c: c["qubits"][0].update(t1_us=None),
        lambda c: c.update(qubits=5),
        lambda c: c.update(durations_ns=[35]),
        lambda c: c["qubits"][1].update(index=1.8),
        lambda c: c["cnot"][0].update(control=0.6),
    ],
    ids=[
        "null_t1", "qubits_not_a_list", "durations_not_an_object", "fractional_index",
        "fractional_cnot_control",
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
