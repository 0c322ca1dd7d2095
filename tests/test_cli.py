import json
from pathlib import Path

import pytest

from choiqpt.channels import choi_from_json, is_cptp
from choiqpt.cli import main
from conftest import data_path


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
    for fname in ("dataset.json", "report.json", "choi.json"):
        assert (out1 / fname).read_bytes() == (out2 / fname).read_bytes()


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
    ],
    ids=["null_t1", "qubits_not_a_list", "durations_not_an_object"],
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
