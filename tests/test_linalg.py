import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from choiqpt.gates import SQRT_SWAP_MATRIX
from choiqpt.linalg import (
    along_qubits,
    apply_local,
    as_complex_matrix,
    dagger,
    eig_hermitian,
    finite_number,
    kron_all,
    product_labels,
    psd_sqrt,
    whole_number,
)
from conftest import (
    embed_operator,
    oracle_along_qubits,
    oracle_apply_local,
    random_density,
    random_hermitian,
)

I2 = np.eye(2)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)


def test_as_complex_matrix_rejects_nonfinite():
    for bad in (np.nan, np.inf, -np.inf, complex(0, np.inf), complex(1, np.nan)):  # either part
        with pytest.raises(ValueError, match="non-finite"):
            as_complex_matrix([[1, 0], [bad, 1]])
    with pytest.raises(ValueError):
        as_complex_matrix([1, 2, 3])


@pytest.mark.parametrize("value", ["112.2", "1", True, False, np.True_, None, [1]])
def test_number_readers_reject_strings_and_booleans(value):
    for read in (whole_number, finite_number):
        message = f"field must be a (whole )?number, got {re.escape(repr(value))}"
        with pytest.raises(ValueError, match=message):
            read(value, "field")


def test_number_readers_accept_numpy_scalars():
    assert whole_number(np.int64(3), "n") == 3 and whole_number(np.float64(2.0), "n") == 2
    assert finite_number(np.float32(0.5), "x") == 0.5 and finite_number(np.int32(4), "x") == 4.0
    assert type(whole_number(np.int64(3), "n")) is int and type(finite_number(2, "x")) is float


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
    evolved = np.einsum("ijil->jl", (np.kron(rho.T, I2) @ c_id).reshape(2, 2, 2, 2))
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


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
@pytest.mark.parametrize("batch", [(), (3,)])
def test_apply_local_matches_the_embedded_matrix(num_qubits, batch):
    rng = np.random.default_rng(10 * num_qubits + len(batch))
    d = 2**num_qubits
    for n in range(1, min(2, num_qubits) + 1):
        for _ in range(4):
            qubits = tuple(int(q) for q in rng.permutation(num_qubits)[:n])  # any wires, any order
            m = rng.normal(size=(2**n, 2**n)) + 1j * rng.normal(size=(2**n, 2**n))
            t = rng.normal(size=batch + (2,) * num_qubits) + 1j * rng.normal(size=batch + (2,) * num_qubits)
            out = apply_local(t, m, [len(batch) + q for q in qubits])
            dense = t.reshape(-1, d) @ embed_operator(m, qubits, num_qubits).T
            assert out.shape == t.shape
            assert np.abs(out.reshape(-1, d) - dense).max() < 1e-12


def _random(rng, shape, dtype):
    x = rng.normal(size=shape)
    return x + 1j * rng.normal(size=shape) if dtype is complex else x


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("dtype", [complex, float])
def test_apply_local_bit_equals_tensordot_oracle(k, dtype):
    # n = 1 and 2 maps on every axis choice of a (B,) + (2,) * 2K tensor, given contiguous and
    # as the transposed view apply_local returns, which the next gate of a circuit receives
    rng = np.random.default_rng([k, dtype is complex])
    axes = range(1, 2 * k + 1)
    choices = [[a] for a in axes] + [[a, b] for a in axes for b in axes if a != b]
    for chosen in choices:
        m = _random(rng, (2 ** len(chosen),) * 2, dtype)
        t = _random(rng, (3,) + (2,) * (2 * k), dtype)
        view = apply_local(t, _random(rng, (4, 4), dtype), [2 * k, 1])
        assert not view.flags.c_contiguous
        for x in (t, view):
            out, want = apply_local(x, m, chosen), oracle_apply_local(x, m, chosen)
            assert out.shape == want.shape == x.shape and out.dtype == want.dtype
            assert out.tobytes() == want.tobytes(), chosen


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("dtype", [complex, float])
@pytest.mark.parametrize("sizes, out_sizes", [
    ((4, 3, 2), (2, 2, 2, 2)),  # linear inversion: frequencies to Choi axes
    ((2, 2, 2, 2), (4, 4)),  # choi_to_chi, choi_to_ptm
    ((4, 4), (2, 2, 2, 2)),  # chi_to_choi
])
def test_along_qubits_bit_equals_tensordot_oracle(k, dtype, sizes, out_sizes):
    rng = np.random.default_rng([k, dtype is complex, len(sizes)])
    x = _random(rng, (np.prod(sizes) ** k,), dtype)
    maps = [_random(rng, (np.prod(out_sizes), np.prod(sizes)), dtype) for _ in range(k)]
    out, want = along_qubits(x, maps, sizes, out_sizes), oracle_along_qubits(x, maps, sizes, out_sizes)
    assert out.shape == want.shape == tuple(size for size in out_sizes for _ in range(k))
    assert out.tobytes() == want.tobytes()


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4, 5])
def test_product_labels_are_bitstrings_with_qubit_zero_leftmost(num_qubits):
    labels = product_labels("01", num_qubits)
    assert labels == tuple(format(i, f"0{num_qubits}b") for i in range(2**num_qubits))
