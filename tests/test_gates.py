import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from choiqpt import gates
from choiqpt.gates import (
    Circuit,
    GateApplication,
    GATE_DEFS,
    circuit_from_dict,
    circuit_to_dict,
    circuit_unitary,
    cnot_from_sqscz,
    equal_up_to_global_phase,
    ga,
    gate_unitary,
    load_circuit,
    save_circuit,
    sqscz_decomposition,
    to_native,
    verify_gate_identities,
)
from conftest import embed_operator, random_unitary

SQSCZ = gate_unitary("SQSCZ")
CNOT = gate_unitary("CNOT")


def test_sqscz_matrix_entries():
    half = 0.5
    expected = np.array(
        [
            [1, 0, 0, 0],
            [0, half * (1 + 1j), half * (1 - 1j), 0],
            [0, half * (1 - 1j), half * (1 + 1j), 0],
            [0, 0, 0, 1j],
        ]
    )
    assert np.array_equal(SQSCZ, expected)


def test_sqrt_cz_is_quarter_phase():
    assert np.array_equal(gate_unitary("SQRT_CZ"), np.diag([1, 1, 1, 1j]))


def test_fusion_identities_exact():
    sswap, scz = gate_unitary("SQRT_SWAP"), gate_unitary("SQRT_CZ")
    assert np.abs(sswap @ scz - SQSCZ).max() < 1e-12
    assert np.abs(scz @ sswap - SQSCZ).max() < 1e-12
    assert np.abs(sswap @ sswap - gate_unitary("SWAP")).max() < 1e-12
    assert np.abs(scz @ scz - gate_unitary("CZ")).max() < 1e-12


def test_sqscz_basis_action():
    e01 = np.zeros(4); e01[1] = 1
    out = SQSCZ @ e01
    assert np.allclose(out, [0, 0.5 * (1 + 1j), 0.5 * (1 - 1j), 0])
    e11 = np.zeros(4); e11[3] = 1
    assert np.allclose(SQSCZ @ e11, [0, 0, 0, 1j])


def test_rz_zero_is_identity_up_to_phase():
    ok, _ = equal_up_to_global_phase(gate_unitary("RZ", (0.0,)), np.eye(2), 1e-12)
    assert ok


@pytest.mark.parametrize("name", sorted(GATE_DEFS))
def test_every_gate_unitary(name):
    _, n_params, _ = GATE_DEFS[name]
    u = gate_unitary(name, (0.37,) * n_params)
    assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() < 1e-12


def test_gate_unitary_errors():
    with pytest.raises(ValueError):
        gate_unitary("FOO")
    with pytest.raises(ValueError):
        gate_unitary("RZ", ())
    with pytest.raises(ValueError):
        gate_unitary("X", (0.1,))


def test_gate_application_validation():
    with pytest.raises(ValueError):
        GateApplication("CNOT", (1, 1))
    with pytest.raises(ValueError):
        GateApplication("CNOT", (0,))
    with pytest.raises(ValueError):
        Circuit(2, (ga("X", 5),))


def test_empty_circuit_identity():
    assert np.array_equal(circuit_unitary(Circuit(2)), np.eye(4))


def test_cnot_involution():
    c = Circuit(2, (ga("CNOT", (0, 1)), ga("CNOT", (0, 1))))
    assert np.abs(circuit_unitary(c) - np.eye(4)).max() < 1e-12


@pytest.mark.parametrize(
    "num_qubits, reverse", [(1, False), (2, False), (2, True), (3, False), (3, True)]
)
def test_circuit_unitary_matches_kron_embedding_oracle(num_qubits, reverse):
    rng = np.random.default_rng(10 * num_qubits + reverse)
    names = [name for name in sorted(GATE_DEFS) if GATE_DEFS[name][0] <= num_qubits]
    for _ in range(10):
        gates = []
        for name in rng.permutation(names * 2):
            arity, n_params, _ = GATE_DEFS[name]
            wires = sorted(rng.choice(num_qubits, size=arity, replace=False).tolist())
            gates.append(ga(name, wires[::-1] if reverse else wires, *rng.uniform(-4, 4, n_params)))
        c = Circuit(num_qubits, tuple(gates))
        oracle = np.eye(2**num_qubits, dtype=complex)
        for g in c.gates:
            oracle = embed_operator(g.unitary(), g.qubits, num_qubits) @ oracle
        assert np.abs(circuit_unitary(c) - oracle).max() <= 1e-12


def test_embed_reversed_cnot():
    swap = gate_unitary("SWAP")
    expected = swap @ CNOT @ swap
    assert np.abs(embed_operator(CNOT, (1, 0), 2) - expected).max() < 1e-12


def test_embed_three_qubits_against_basis_action():
    # oracle: explicit action on computational basis states
    rng = np.random.default_rng(5)
    u = random_unitary(rng, 4)
    full = embed_operator(u, (2, 0), 3)
    for basis_index in range(8):
        b = format(basis_index, "03b")
        vec_in = np.zeros(8, dtype=complex); vec_in[basis_index] = 1
        out = full @ vec_in
        expected = np.zeros(8, dtype=complex)
        sub_in = int(b[2] + b[0], 2)  # operator wires (2, 0)
        for sub_out in range(4):
            amp = u[sub_out, sub_in]
            bits = list(b)
            bits[2] = format(sub_out, "02b")[0]
            bits[0] = format(sub_out, "02b")[1]
            expected[int("".join(bits), 2)] += amp
        assert np.abs(out - expected).max() < 1e-12


def test_qubit_zero_is_most_significant():
    c = Circuit(2, (ga("X", 0),))
    state = circuit_unitary(c) @ np.array([1, 0, 0, 0], dtype=complex)
    assert np.allclose(state, [0, 0, 1, 0])  # |10>


@given(st.floats(-np.pi, np.pi), st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_global_phase_detection(phi, seed):
    u = random_unitary(np.random.default_rng(seed), 4)
    ok, found = equal_up_to_global_phase(np.exp(1j * phi) * u, u, 1e-9)
    assert ok
    assert abs(np.angle(np.exp(1j * (found - phi)))) < 1e-9


def test_global_phase_rejects_different_unitaries():
    ok, _ = equal_up_to_global_phase(np.eye(4), CNOT, 1e-9)
    assert not ok
    with pytest.raises(ValueError):
        equal_up_to_global_phase(np.eye(2), np.eye(4))


def test_sqscz_decomposition_contract():
    dec = sqscz_decomposition()
    assert dec.count("CNOT") == 2
    assert dec.gate_names() <= {"RZ", "SX", "CNOT"}
    ok, phi = equal_up_to_global_phase(circuit_unitary(dec), SQSCZ, 1e-10)
    assert ok
    dev = np.abs(circuit_unitary(dec) - np.exp(1j * phi) * SQSCZ).max()
    assert dev < 1e-10


def test_cnot_from_sqscz_contract():
    syn = cnot_from_sqscz()
    assert syn.count("SQSCZ") == 2
    u = circuit_unitary(syn)
    ok, _ = equal_up_to_global_phase(u, CNOT, 1e-10)
    assert ok
    # applying the construction twice gives the identity up to phase
    ok, _ = equal_up_to_global_phase(u @ u, np.eye(4), 1e-9)
    assert ok


def test_cnot_synthesis_is_exact_with_these_conventions():
    # the single-qubit sandwich reproduces CNOT with zero global phase
    u = circuit_unitary(cnot_from_sqscz())
    assert np.abs(u - CNOT).max() < 1e-12


@pytest.mark.parametrize("name", sorted(GATE_DEFS))
def test_to_native_equivalence(name):
    arity, n_params, _ = GATE_DEFS[name]
    base = Circuit(arity, (ga(name, tuple(range(arity)), *((0.37,) * n_params)),))
    low = to_native(base)
    assert low.gate_names() <= {"RZ", "SX", "X", "CNOT"}
    ok, _ = equal_up_to_global_phase(circuit_unitary(low), circuit_unitary(base), 1e-10)
    assert ok


def test_to_native_on_remapped_wires():
    base = Circuit(3, (ga("SQSCZ", (2, 0)),))
    low = to_native(base)
    ok, _ = equal_up_to_global_phase(circuit_unitary(low), circuit_unitary(base), 1e-10)
    assert ok


def test_circuit_json_roundtrip(tmp_path):
    c = Circuit(2, (ga("RZ", 0, 0.25), ga("SQSCZ", (0, 1)), ga("X", 1)))
    path = tmp_path / "c.json"
    save_circuit(c, path)
    loaded = load_circuit(path)
    assert loaded == c
    # the wire format survives a manual parse too
    blob = json.loads(path.read_text())
    assert blob["num_qubits"] == 2
    assert blob["gates"][0] == {"name": "RZ", "params": [0.25], "qubits": [0]}


def test_circuit_from_dict_malformed():
    with pytest.raises(ValueError):
        circuit_from_dict({"gates": [{}]})
    with pytest.raises(ValueError, match="num_qubits must be a whole number, got 2.7"):
        circuit_from_dict({"num_qubits": 2.7, "gates": []})
    cnot = {"name": "CNOT", "qubits": [0.9, 1.2]}
    with pytest.raises(ValueError, match="qubit must be a whole number, got 0.9"):
        circuit_from_dict({"num_qubits": 2, "gates": [cnot]})
    with pytest.raises(ValueError, match="num_qubits must be a whole number, got '2'"):
        circuit_from_dict({"num_qubits": "2", "gates": []})
    with pytest.raises(ValueError, match="qubit must be a whole number, got True"):
        circuit_from_dict({"num_qubits": 2, "gates": [{"name": "H", "qubits": [True]}]})
    with pytest.raises(ValueError, match="gate RZ parameter must be a number, got '0.5'"):
        rz = {"name": "RZ", "qubits": [0], "params": ["0.5"]}
        circuit_from_dict({"num_qubits": 1, "gates": [rz]})
    for text in ("NaN", "Infinity"):
        rz = json.loads(f'{{"name": "RZ", "qubits": [0], "params": [{text}]}}')
        with pytest.raises(ValueError, match="gate RZ parameter must be finite"):
            circuit_from_dict({"num_qubits": 1, "gates": [rz]})


def test_circuit_dict_roundtrip_identity():
    c = cnot_from_sqscz()
    assert circuit_from_dict(circuit_to_dict(c)) == c


def test_verify_gate_identities_all_pass():
    checks = verify_gate_identities()
    assert all(c.passed for c in checks)


def test_verify_gate_identities_detects_corruption(monkeypatch):
    bad = SQSCZ.copy()
    bad[0, 0] += 1e-3
    monkeypatch.setitem(gates.GATE_DEFS, "SQSCZ", (2, 0, lambda: bad))
    checks = verify_gate_identities()
    failed = [c.name for c in checks if not c.passed]
    assert any("SQRT_SWAP @ SQRT_CZ" in name for name in failed)
