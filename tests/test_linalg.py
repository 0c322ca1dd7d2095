import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from choiqpt.gates import SQRT_SWAP_MATRIX
from choiqpt.linalg import (
    as_complex_matrix,
    dagger,
    eig_hermitian,
    kron_all,
    partial_trace,
    psd_sqrt,
)
from conftest import random_density, random_hermitian

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def test_as_complex_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_complex_matrix([[np.nan, 0], [0, 1]])
    with pytest.raises(ValueError):
        as_complex_matrix([1, 2, 3])


def test_kron_identity():
    assert np.array_equal(kron_all([I2, I2]), np.eye(4))


def test_kron_xx_permutation():
    xx = kron_all([X, X])
    assert xx[0, 3] == 1
    assert xx[3, 0] == 1
    assert xx[0, 0] == 0


def test_kron_sqrt_swap_with_identity_is_unitary():
    u = kron_all([SQRT_SWAP_MATRIX, I2])
    assert u.shape == (8, 8)
    assert np.abs(dagger(u) @ u - np.eye(8)).max() < 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_kron_associative(seed):
    rng = np.random.default_rng(seed)
    # exact equality whenever entry products do not round (integer grids)
    a, b, c = (
        (rng.integers(-4, 5, size=(2, 2)) + 1j * rng.integers(-4, 5, size=(2, 2))).astype(complex)
        for _ in range(3)
    )
    assert np.array_equal(kron_all([kron_all([a, b]), c]), kron_all([a, kron_all([b, c])]))
    # and up to last-ulp rounding for arbitrary complex entries
    a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(3))
    left, right = kron_all([kron_all([a, b]), c]), kron_all([a, kron_all([b, c])])
    assert np.allclose(left, right, rtol=1e-13, atol=1e-15)


def test_partial_trace_product_state():
    rng = np.random.default_rng(1)
    rho_a = random_density(rng, 2)
    rho_b = random_density(rng, 3)
    joint = np.kron(rho_a, rho_b)
    assert np.allclose(partial_trace(joint, 2, 3, keep="a"), rho_a, atol=1e-12)
    assert np.allclose(partial_trace(joint, 2, 3, keep="b"), rho_b, atol=1e-12)


def test_partial_trace_bell_marginal():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    proj = np.outer(bell, bell.conj())
    assert np.allclose(partial_trace(proj, 2, 2, keep="a"), I2 / 2, atol=1e-12)


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace(np.eye(6), 2, 2)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_partial_trace_preserves_trace(seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    for keep in ("a", "b"):
        assert np.isclose(np.trace(partial_trace(m, 2, 3, keep=keep)), np.trace(m))


def test_identity_choi_evolution_recovers_state():
    # Tr_in[(rho^T (x) I) C_id] == rho, with C_id assembled by the raw sum
    # over basis matrix units (independent of the channels module).
    rng = np.random.default_rng(7)
    rho = random_density(rng, 2)
    c_id = np.zeros((4, 4), dtype=complex)
    for k in range(2):
        for m in range(2):
            unit = np.zeros((2, 2), dtype=complex)
            unit[k, m] = 1
            c_id += np.kron(unit, unit)
    evolved = partial_trace(np.kron(rho.T, I2) @ c_id, 2, 2, keep="b")
    assert np.abs(evolved - rho).max() < 1e-12


def test_eig_identity():
    w, _ = eig_hermitian(np.eye(4))
    assert np.allclose(w, np.ones(4))


def test_eig_pauli_z():
    w, v = eig_hermitian(Z)
    assert np.allclose(w, [1, -1])
    assert np.allclose(np.abs(v[:, 0]), [1, 0])
    assert np.allclose(np.abs(v[:, 1]), [0, 1])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_eig_reconstruction_random_hermitian(seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng, 16)
    w, v = eig_hermitian(h)
    assert np.all(np.diff(w) <= 1e-12)  # descending
    assert np.abs((v * w) @ dagger(v) - h).max() < 1e-9
    assert np.abs(dagger(v) @ v - np.eye(16)).max() < 1e-9
    assert abs(w.sum() - np.trace(h).real) < 1e-9


def test_eig_rejects_nonsquare_and_nonhermitian():
    with pytest.raises(ValueError):
        eig_hermitian(np.ones((2, 3)))
    with pytest.raises(ValueError):
        eig_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(3)
    rho = random_density(rng, 4)
    s = psd_sqrt(rho)
    assert np.abs(s @ s - rho).max() < 1e-10
    with pytest.raises(ValueError):
        psd_sqrt(np.diag([1.0, -0.5]))
