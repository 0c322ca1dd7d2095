import importlib.util
import json
import runpy
import shutil
import sys
from pathlib import Path

import pytest

from choiqpt.cli import main
from conftest import data_path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(monkeypatch, name: str, *argv: str) -> None:
    monkeypatch.setattr(sys, "argv", [name, *argv])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")


def test_qpt_experiments_layout_and_summary(tmp_path, monkeypatch, capsys):
    out = tmp_path / "exp"
    run_script(
        monkeypatch, "run_qpt_experiments.py",
        "--out", str(out), "--seeds", "3", "--clean-shots", "300", "--noisy-shots", "300",
    )
    summary = json.loads((out / "summary.json").read_text())
    assert list(summary) == ["exact_probabilities", "clean_simulator", "calibrated_noise"]
    for env, fids in summary.items():
        assert len(fids) == 1
        report = json.loads((out / env / "seed3" / "report.json").read_text())
        assert report["process_fidelity"] == fids[0]
        assert report["seed"] == 3
        for fname in ("dataset.json", "choi.json", "choi_re.csv", "chi_re_hinton.svg"):
            assert (out / env / "seed3" / fname).is_file()
    assert summary["exact_probabilities"][0] == pytest.approx(1.0, abs=1e-9)
    assert summary["calibrated_noise"][0] < summary["clean_simulator"][0]
    table = [line.split() for line in capsys.readouterr().out.splitlines()]
    rows = [row[-5:-3] for row in table if row[:1] in (["exact"], ["clean"], ["calibrated"])]
    assert rows == [["exact", "1"], ["300", "1"], ["300", "1"]]  # shots and runs per environment


def test_exact_agreement_check_fails_only_on_a_moved_exact_entry(tmp_path, monkeypatch, capsys):
    base, head = tmp_path / "base", tmp_path / "head"
    run_script(monkeypatch, "run_qpt_experiments.py", "--out", str(base), "--seeds", "3",
               "--clean-shots", "30", "--noisy-shots", "30")
    shutil.copytree(base, head)
    sampled = head / "clean_simulator" / "seed3" / "report.json"
    sampled.write_text(sampled.read_text().replace('"seed": 3', '"seed": 4'))  # not compared
    report_path = head / "exact_probabilities" / "seed3" / "report.json"
    report = json.loads(report_path.read_text())
    report["method"], report["added"] = "another_method", 1.0  # a string and a head-only key
    report_path.write_text(json.dumps(report))
    check = ["check_exact_agreement.py", str(base), str(head)]
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, *check)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("tp_deviation", "min_eigenvalue", "seed"):
        assert f"ok    seed3 {name}: max deviation 0.000e+00" in out
    assert "method" not in out and "added" not in out
    choi_path = head / "exact_probabilities" / "seed3" / "choi.json"
    choi = json.loads(choi_path.read_text())
    choi["im"][3][5] += 2e-12
    choi_path.write_text(json.dumps(choi))
    report["tp_deviation"] += 2e-12
    del report["min_eigenvalue"]
    report_path.write_text(json.dumps(report))
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, *check)
    assert exc.value.code == 1
    out = capsys.readouterr().out
    assert "FAIL  seed3 choi.json im: max deviation 2.000e-12" in out
    assert "FAIL  seed3 tp_deviation: max deviation 2.000e-12" in out
    assert "FAIL  seed3 min_eigenvalue: not a number in" in out
    assert "ok    seed3 process_fidelity" in out


def test_direct_execution_matches_cli(tmp_path, monkeypatch, capsys):
    out = tmp_path / "direct"
    run_script(monkeypatch, "run_direct_execution.py", "--shots", "500", "--seed", "4",
               "--out", str(out))
    table = capsys.readouterr().out
    ref = tmp_path / "ref"
    circuit = data_path("sqscz_circuit.json")
    flags = ["--circuit", circuit, "--shots", "500", "--seed", "4"]
    assert main(["execute", *flags, "--out", str(ref / "clean")]) == 0
    assert main(["execute", *flags, "--calib", data_path("ibm_perth_tab1.json"),
                 "--out", str(ref / "noisy")]) == 0
    for backend in ("clean", "noisy"):
        got = (out / backend / "counts.json").read_text()
        assert got == (ref / backend / "counts.json").read_text()
        assert (out / backend / "counts.svg").is_file()
    noisy = json.loads((out / "noisy" / "counts.json").read_text())["counts"]
    assert f"{'00':<10}{500:>10}{noisy['00']:>10}" in table


def test_script_exits_with_cli_error_code(tmp_path, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, "run_direct_execution.py", "--shots", "10",
                   "--calib", str(tmp_path / "missing.json"), "--out", str(tmp_path / "d"))
    assert exc.value.code == 2


BAD_COUNTS = [
    ("run_qpt_experiments.py", "--clean-shots", "0", "shots > 0 required"),
    ("run_qpt_experiments.py", "--noisy-shots", "0", "shots > 0 required"),
    ("run_qpt_experiments.py", "--clean-shots", "-5", "shots > 0 required"),
    ("run_qpt_experiments.py", "--seeds", "-1", "seed must be a non-negative integer"),
    ("run_direct_execution.py", "--shots", "0", "shots > 0 required"),
    ("run_direct_execution.py", "--seed", "-1", "seed must be a non-negative integer"),
]


@pytest.mark.parametrize(
    "script, flag, value, message", [pytest.param(*case, id="-".join(case[1:])) for case in BAD_COUNTS]
)
def test_qpt_experiments_rejects_bad_counts(script, flag, value, message, tmp_path, monkeypatch, capsys):
    out = tmp_path / "exp"
    with pytest.raises(SystemExit) as exc:
        run_script(monkeypatch, script, "--out", str(out), flag, value)
    assert exc.value.code == 2
    assert f"{script}: error: argument {flag}: {message}" in capsys.readouterr().err
    assert not out.exists()


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# a small stand-in for two kernels' experiment trees, one file per rule of compare()
PORTABILITY_TREE = {
    "exact_probabilities/seed1/dataset.json": '{"frequencies": [0.25, 0.75], "shots": null}\n',
    "clean_simulator/seed1/dataset.json": '{"counts": {"00": 7, "01": 3}, "shots": 10}\n',
    "clean_simulator/seed1/choi.json": '{"im": [[0.0, -0.125]], "re": [[12.3456789012, 0.5]]}\n',
    "clean_simulator/seed1/choi_re.csv": "12.3456789012,0.5\n",
    "clean_simulator/seed1/choi_re_city.svg": '<svg width="10"><rect x="1.5"/></svg>\n',
}

# (file, old text, new text, whether compare() reports the edit)
PORTABILITY_EDITS = {
    "sampled_count": ("clean_simulator/seed1/dataset.json", '"00": 7, "01": 3', '"00": 6, "01": 4', True),
    "svg_byte": ("clean_simulator/seed1/choi_re_city.svg", 'x="1.5"', 'x="1.6"', True),
    "exact_by_1e-10": ("exact_probabilities/seed1/dataset.json", "0.25", "0.2500000001", True),
    "exact_by_1e-14": ("exact_probabilities/seed1/dataset.json", "0.25", "0.25000000000001", False),
    "csv_last_digit": ("clean_simulator/seed1/choi_re.csv", "12.3456789012", "12.3456789013", False),
    "json_last_digit": ("clean_simulator/seed1/choi.json", "12.3456789012", "12.3456789013", True),
    "text_between_numbers": ("clean_simulator/seed1/choi.json", '"im"', '"imag"', True),
}


def _write_tree(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text)
    return root


@pytest.mark.parametrize("edit", sorted(PORTABILITY_EDITS))
def test_kernel_portability_compare_reports_only_what_its_rules_forbid(edit, tmp_path):
    compare = _load_script("check_kernel_portability.py").compare
    rel, old, new, reported = PORTABILITY_EDITS[edit]
    a = _write_tree(tmp_path / "a", PORTABILITY_TREE)
    b = _write_tree(tmp_path / "b", PORTABILITY_TREE)
    assert compare(a, b) == []
    assert old in PORTABILITY_TREE[rel]
    (b / rel).write_text(PORTABILITY_TREE[rel].replace(old, new))
    # each problem starts with the file it is about
    assert [problem.split()[0].rstrip(":") for problem in compare(a, b)] == ([rel] if reported else [])


def test_kernel_portability_compare_reports_different_file_sets(tmp_path):
    compare = _load_script("check_kernel_portability.py").compare
    a = _write_tree(tmp_path / "a", PORTABILITY_TREE)
    b = _write_tree(tmp_path / "b", {**PORTABILITY_TREE, "clean_simulator/seed1/extra.json": "{}\n"})
    assert compare(a, b) == compare(b, a) == ["the two runs wrote different files"]


def test_kernel_portability_skips_without_a_dynamic_arch_openblas(tmp_path, monkeypatch, capsys):
    script = _load_script("check_kernel_portability.py")
    monkeypatch.setattr(script, "dynamic_arch_openblas", lambda: False)
    out = tmp_path / "kernels"
    monkeypatch.setattr(sys, "argv", ["check_kernel_portability.py", "--out", str(out)])
    assert script.main() == 0
    assert capsys.readouterr().out.startswith("skipped:")
    assert not out.exists()
