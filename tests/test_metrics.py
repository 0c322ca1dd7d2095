import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from choiqpt.channels import ChoiMatrix, KrausSet, choi_from_unitary, kraus_to_choi
from choiqpt.gates import gate_unitary
from choiqpt.metrics import fidelity_report, process_fidelity, state_fidelity
from choiqpt.noise import depolarizing_kraus
from conftest import random_density, random_kraus_ops, random_unitary


def ket(vec) -> np.ndarray:
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def test_state_fidelity_basics():
    rho = random_density(np.random.default_rng(0), 4)
    assert state_fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)
    assert state_fidelity(ket([1, 0]), ket([0, 1])) == pytest.approx(0.0, abs=1e-12)
    assert state_fidelity(ket([1, 0]), np.eye(2) / 2) == pytest.approx(0.5, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_state_fidelity_symmetric_and_pure_overlap(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 3)
    sigma = random_density(rng, 3)
    assert abs(state_fidelity(rho, sigma) - state_fidelity(sigma, rho)) < 1e-9
    psi = rng.normal(size=3) + 1j * rng.normal(size=3)
    phi = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi, phi = psi / np.linalg.norm(psi), phi / np.linalg.norm(phi)
    overlap = abs(np.vdot(psi, phi)) ** 2
    assert state_fidelity(np.outer(psi, psi.conj()), np.outer(phi, phi.conj())) == pytest.approx(
        overlap, abs=1e-9
    )


def test_state_fidelity_rejects_nonpsd():
    with pytest.raises(ValueError):
        state_fidelity(np.diag([1.5, -0.5]).astype(complex), np.eye(2) / 2)


def test_process_fidelity_self():
    c = choi_from_unitary(gate_unitary("SQSCZ"))
    assert process_fidelity(c, c) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
def test_process_fidelity_depolarizing_closed_form(p):
    measured = kraus_to_choi(depolarizing_kraus(p, 2))
    ideal = choi_from_unitary(np.eye(4))
    assert process_fidelity(measured, ideal) == pytest.approx((1 - p) + p / 16, abs=1e-10)


@given(st.floats(-np.pi, np.pi), st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_process_fidelity_global_phase_invariant(theta, seed):
    u = random_unitary(np.random.default_rng(seed), 4)
    a = choi_from_unitary(np.exp(1j * theta) * u)
    b = choi_from_unitary(u)
    assert process_fidelity(a, b) == pytest.approx(1.0, abs=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_process_fidelity_unitary_invariance(seed):
    rng = np.random.default_rng(seed)
    e_ops = random_kraus_ops(rng, 4)
    u = random_unitary(rng, 4)
    v = random_unitary(rng, 4)
    w = random_unitary(rng, 4)
    base = process_fidelity(kraus_to_choi(KrausSet(tuple(e_ops))), choi_from_unitary(u))
    sandwiched = KrausSet(tuple(v @ k @ w for k in e_ops))
    wrapped = process_fidelity(kraus_to_choi(sandwiched), choi_from_unitary(v @ u @ w))
    assert abs(base - wrapped) < 1e-9


def test_process_fidelity_dimension_mismatch():
    with pytest.raises(ValueError):
        process_fidelity(choi_from_unitary(np.eye(2)), choi_from_unitary(np.eye(4)))


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_process_fidelity_matches_eigenvector_overlap(num_qubits):
    rng = np.random.default_rng(num_qubits)
    d = 2**num_qubits
    for _ in range(5):
        measured = kraus_to_choi(KrausSet(tuple(random_kraus_ops(rng, d))))
        ideal = choi_from_unitary(random_unitary(rng, d))
        _, v = np.linalg.eigh(ideal.normalized())
        phi = v[:, -1]  # the pure ideal state's eigenvector
        want = (phi.conj() @ measured.normalized() @ phi).real
        assert abs(process_fidelity(measured, ideal) - want) < 1e-12


def test_process_fidelity_rejects_non_hermitian_ideal():
    ideal = choi_from_unitary(np.eye(2))
    skewed = ChoiMatrix(2, 2, ideal.matrix + 1e-3j * np.triu(np.ones((4, 4)), 1))
    with pytest.raises(ValueError, match="not Hermitian"):
        process_fidelity(ideal, skewed)


def test_process_fidelity_nonunitary_ideal_falls_back():
    depol = kraus_to_choi(depolarizing_kraus(0.5, 1))
    target = kraus_to_choi(depolarizing_kraus(0.5, 1))
    with pytest.warns(UserWarning, match="Uhlmann"):
        f = process_fidelity(target, depol)
    assert f == pytest.approx(1.0, abs=1e-9)


def test_fidelity_report_relation_and_clipping():
    measured = kraus_to_choi(depolarizing_kraus(0.2, 2))
    ideal = choi_from_unitary(np.eye(4))
    rep = fidelity_report(measured, ideal)
    d = 4
    assert rep.average_gate_fidelity == pytest.approx(
        (d * rep.process_fidelity + 1) / (d + 1), abs=1e-12
    )
    assert 0.0 <= rep.process_fidelity <= 1.0
    assert rep.tp_deviation < 1e-9
    assert rep.min_eigenvalue >= -1e-9
    assert set(rep.to_dict()) == {
        "process_fidelity",
        "average_gate_fidelity",
        "tp_deviation",
        "min_eigenvalue",
    }
