"""Acceptance suite: one test per numbered criterion, each printing a
PASS line with its headline numbers after the assertions hold."""

import json

import numpy as np

from choiqpt.channels import (
    ChoiMatrix,
    KrausSet,
    apply_choi,
    choi_from_unitary,
    choi_to_chi,
    choi_to_kraus,
    choi_to_ptm,
    chi_to_choi,
    is_cptp,
    kraus_to_choi,
    outcome_probability,
)
from choiqpt.cli import main as cli_main
from choiqpt.gates import (
    Circuit,
    GATE_DEFS,
    circuit_unitary,
    cnot_from_sqscz,
    equal_up_to_global_phase,
    ga,
    gate_unitary,
    sqscz_decomposition,
    to_native,
)
from choiqpt.linalg import frobenius
from choiqpt.metrics import process_fidelity
from choiqpt.noise import depolarizing_kraus
from choiqpt.simulator import apply_measure_noise, measure_probabilities, sample_counts, simulate
from choiqpt.tomography import project_cptp, qpt
from conftest import (
    Stopwatch,
    data_path,
    random_density,
    random_effect,
    random_hermitian,
    random_kraus_ops,
)

SQSCZ_CIRCUIT = Circuit(2, (ga("SQSCZ", (0, 1)),))


def report(num: int, text: str):
    print(f"ACCEPTANCE criterion {num:02d}: PASS - {text}", flush=True)


def test_criterion_01_algebraic_identities():
    sw = Stopwatch(1.0)
    sqscz = gate_unitary("SQSCZ")
    sswap = gate_unitary("SQRT_SWAP")
    scz = gate_unitary("SQRT_CZ")
    devs = [
        np.abs(sqscz - sswap @ scz).max(),
        np.abs(sqscz - scz @ sswap).max(),
        np.abs(sswap @ sswap - gate_unitary("SWAP")).max(),
        np.abs(scz @ scz - gate_unitary("CZ")).max(),
    ]
    assert max(devs) < 1e-12
    sw.check()
    report(1, f"fusion and square identities, max deviation {max(devs):.2e}")


def test_criterion_02_two_cnot_decomposition():
    sw = Stopwatch(1.0)
    dec = sqscz_decomposition()
    assert dec.count("CNOT") == 2
    assert dec.gate_names() <= {"RZ", "SX", "CNOT"}
    u = circuit_unitary(dec)
    ok, phi = equal_up_to_global_phase(u, gate_unitary("SQSCZ"), 1e-10)
    assert ok
    dev = np.abs(u - np.exp(1j * phi) * gate_unitary("SQSCZ")).max()
    assert dev < 1e-10
    sw.check()
    report(2, f"2-CNOT realization over RZ/SX/CNOT, deviation {dev:.2e}")


def test_criterion_03_cnot_synthesis():
    sw = Stopwatch(1.0)
    syn = cnot_from_sqscz()
    assert syn.count("SQSCZ") == 2
    u = circuit_unitary(syn)
    ok, phi = equal_up_to_global_phase(u, gate_unitary("CNOT"), 1e-10)
    assert ok
    dev = np.abs(u - np.exp(1j * phi) * gate_unitary("CNOT")).max()
    assert dev < 1e-10
    sw.check()
    report(3, f"CNOT from two SQSCZ applications, deviation {dev:.2e}, phase {phi:+.4f}")


def test_criterion_04_exact_mode_qpt_every_gate():
    sw = Stopwatch(10.0)
    worst = 1.0
    for name, (arity, n_params, _) in sorted(GATE_DEFS.items()):
        circuit = Circuit(arity, (ga(name, tuple(range(arity)), *((0.7,) * n_params)),))
        res = qpt(circuit, shots=None)
        assert res.report.process_fidelity >= 1 - 1e-9, name
        worst = min(worst, res.report.process_fidelity)
    sw.check()
    report(4, f"{len(GATE_DEFS)} gates reconstructed exactly, min F_P {worst:.12f}")


def test_criterion_05_noiseless_sampled_qpt():
    sw = Stopwatch(60.0)
    fids = []
    for seed in range(10):
        res = qpt(SQSCZ_CIRCUIT, shots=11_000, seed=seed)
        fids.append(res.report.process_fidelity)
    fids = np.array(fids)
    assert np.all(fids >= 0.95) and np.all(fids <= 1.0)
    assert fids.mean() >= 0.97
    sw.check()
    report(5, f"10 seeds at 11k shots: F_P in [{fids.min():.4f}, {fids.max():.4f}], "
              f"mean {fids.mean():.4f}")


def test_criterion_06_hardware_noise_qpt(perth_noise):
    sw = Stopwatch(60.0)
    fids = []
    for seed in range(10):
        res = qpt(SQSCZ_CIRCUIT, noise=perth_noise, shots=4_000, seed=seed)
        fids.append(res.report.process_fidelity)
    fids = np.array(fids)
    assert np.all(fids >= 0.85) and np.all(fids <= 0.93)
    assert abs(fids.mean() - 0.8899) <= 0.03
    sw.check()
    report(6, f"10 seeds at 4k shots under calibrated noise: F_P in "
              f"[{fids.min():.4f}, {fids.max():.4f}], mean {fids.mean():.4f}")


def test_criterion_07_direct_execution_counts(perth_noise):
    sw = Stopwatch(5.0)
    target = 6680 / 7168
    run = to_native(SQSCZ_CIRCUIT)
    rho = simulate(run, perth_noise)
    rho = apply_measure_noise(rho, perth_noise, 2)
    probs = measure_probabilities(rho, "ZZ")
    confusion = perth_noise.confusion_for(2)
    p00s, rarest_11 = [], 0
    for seed in range(10):
        table = sample_counts(probs, 7_168, seed, confusion=confusion)
        p00s.append(table.frequency("00"))
        rarest_11 += min(table.counts, key=table.counts.get) == "11"
    p00s = np.array(p00s)
    assert np.all(np.abs(p00s - target) <= 0.03)
    assert rarest_11 >= 8
    sw.check()
    report(7, f"P(00) mean {p00s.mean():.4f} vs {target:.4f}; "
              f"'11' least frequent in {rarest_11}/10 seeds")


def test_criterion_08_representation_roundtrips():
    sw = Stopwatch(30.0)
    rng = np.random.default_rng(2024)
    chois = []
    worst_k = worst_c = 0.0
    for _ in range(100):
        c = kraus_to_choi(KrausSet(tuple(random_kraus_ops(rng, 4, n_env=int(rng.integers(1, 5))))))
        chois.append(c)
        k_dev = frobenius(kraus_to_choi(choi_to_kraus(c)).matrix - c.matrix)
        chi_dev = frobenius(chi_to_choi(choi_to_chi(c)).matrix - c.matrix)
        worst_k, worst_c = max(worst_k, k_dev), max(worst_c, chi_dev)
        assert k_dev < 1e-9 and chi_dev < 1e-9
    worst_p = 0.0
    for a, b in zip(chois[:50], chois[50:]):
        ka, kb = choi_to_kraus(a), choi_to_kraus(b)
        composed = KrausSet(tuple(x @ y for x in kb.operators for y in ka.operators))
        dev = np.abs(
            choi_to_ptm(kraus_to_choi(composed)).matrix
            - choi_to_ptm(b).matrix @ choi_to_ptm(a).matrix
        ).max()
        worst_p = max(worst_p, dev)
        assert dev < 1e-9
    sw.check()
    report(8, f"100 channels: Kraus {worst_k:.2e}, chi {worst_c:.2e}, PTM {worst_p:.2e}")


def test_criterion_09_cptp_projection():
    sw = Stopwatch(30.0)
    rng = np.random.default_rng(99)
    truth = choi_from_unitary(gate_unitary("SQSCZ"))
    improved = 0
    for _ in range(100):
        noise = random_hermitian(rng, 16, scale=0.02)
        perturbed = ChoiMatrix(4, 4, truth.matrix + noise)
        res = project_cptp(perturbed, tol=1e-10)
        rep = is_cptp(res.choi)
        assert rep.min_eig >= -1e-9
        assert rep.tp_dev < 1e-8
        before = frobenius(perturbed.matrix - truth.matrix)
        after = frobenius(res.choi.matrix - truth.matrix)
        improved += after <= before
    assert improved >= 95
    sw.check()
    report(9, f"100 perturbed reconstructions projected; distance reduced in {improved}/100")


def test_criterion_10_closed_form_fidelity():
    sw = Stopwatch(1.0)
    ident = np.eye(4)

    def oracle(p: float) -> float:
        # brute force: assemble the depolarized Choi from matrix units and
        # overlap normalized Choi states directly
        d = 4
        c = np.zeros((16, 16), dtype=complex)
        for k in range(d):
            for m in range(d):
                unit = np.zeros((d, d), dtype=complex)
                unit[k, m] = 1
                c += np.kron(unit, (1 - p) * unit + p * np.trace(unit) * ident / d)
        c_id = np.zeros((16, 16), dtype=complex)
        for k in range(d):
            for m in range(d):
                unit = np.zeros((d, d), dtype=complex)
                unit[k, m] = 1
                c_id += np.kron(unit, unit)
        return float(np.trace((c_id / d) @ (c / np.trace(c))).real)

    for p in (0.0, 0.1, 0.5, 1.0):
        measured = kraus_to_choi(depolarizing_kraus(p, 2))
        got = process_fidelity(measured, choi_from_unitary(ident))
        want = (1 - p) + p / 16
        assert abs(got - want) < 1e-10, p
        assert abs(oracle(p) - want) < 1e-10, p
    sw.check()
    report(10, "depolarizing fidelity matches (1-p) + p/16 and the Choi-overlap oracle")


def test_criterion_11_dual_path_probability():
    sw = Stopwatch(10.0)
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        c = kraus_to_choi(KrausSet(tuple(random_kraus_ops(rng, 4, n_env=2))))
        rho = random_density(rng, 4)
        effect = random_effect(rng, 4)
        direct = outcome_probability(c, rho, effect)
        via_state = float(np.trace(effect @ apply_choi(c, rho)).real)
        worst = max(worst, abs(direct - via_state))
        assert abs(direct - via_state) < 1e-10
    sw.check()
    report(11, f"1000 random triples, max dual-path gap {worst:.2e}")


def test_criterion_12_cli_determinism(tmp_path):
    """Two identical ``qpt run`` calls write byte-identical JSON.

    Byte identity is claimed on one host and BLAS kernel.  Across hosts the
    sampled counts and the SVGs stay the same, and every other number agrees
    to 1e-12 but may differ in its last digits."""
    sw = Stopwatch(120.0)
    args = [
        "run",
        "--circuit", data_path("sqscz_circuit.json"),
        "--calib", data_path("ibm_perth_tab1.json"),
        "--shots", "1000",
        "--seed", "7",
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    for fname in ("dataset.json", "report.json", "choi.json"):
        b1 = (out1 / fname).read_bytes()
        b2 = (out2 / fname).read_bytes()
        assert b1 == b2, fname
    payload = json.loads((out1 / "report.json").read_text())
    assert payload["seed"] == 7 and payload["shots"] == 1000
    sw.check()
    report(12, "byte-identical dataset/report/choi JSON across identical runs")
