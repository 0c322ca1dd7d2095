import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from choiqpt.channels import (
    ChiMatrix,
    ChoiMatrix,
    KrausSet,
    apply_choi,
    chi_to_choi,
    choi_from_unitary,
    choi_to_chi,
    choi_to_json,
    choi_to_kraus,
    choi_to_ptm,
    is_cptp,
    kraus_superop,
    kraus_to_choi,
    matrix_csv,
    outcome_probability,
    pauli_basis,
)
from choiqpt.gates import PAULI_X, gate_unitary
from choiqpt.linalg import frobenius, product_labels
from conftest import (
    apply_kraus,
    oracle_chi_to_choi,
    oracle_choi_json,
    oracle_choi_to_chi,
    oracle_choi_to_ptm,
    oracle_kraus_to_choi,
    oracle_matrix_csv,
    output_trace,
    random_density,
    random_effect,
    random_kraus_ops,
    random_unitary,
    read_choi_json,
)

SQSCZ = gate_unitary("SQSCZ")


def explicit_choi(apply_channel, d):
    """Oracle: assemble the Choi matrix by summing over matrix units."""
    c = np.zeros((d * d, d * d), dtype=complex)
    for k in range(d):
        for m in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[k, m] = 1
            c += np.kron(unit, apply_channel(unit))
    return c


def test_identity_choi_is_corner_matrix():
    c = choi_from_unitary(np.eye(2))
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 1
    assert np.array_equal(c.matrix, expected)


def test_unitary_choi_rank_one_trace_d():
    c = choi_from_unitary(SQSCZ)
    assert abs(np.trace(c.matrix) - 4) < 1e-12
    w = np.linalg.eigvalsh(c.matrix)
    assert w[-1] == pytest.approx(4.0, abs=1e-9)
    assert np.abs(w[:-1]).max() < 1e-9
    # purity of the normalized Choi state
    n = c.normalized()
    assert np.trace(n @ n).real == pytest.approx(1.0, abs=1e-10)


def test_choi_matches_explicit_sum():
    u = SQSCZ
    oracle = explicit_choi(lambda rho: u @ rho @ u.conj().T, 4)
    assert np.abs(choi_from_unitary(u).matrix - oracle).max() < 1e-12


def test_choi_from_unitary_rejects_nonunitary():
    with pytest.raises(ValueError):
        choi_from_unitary(np.diag([1.0, 0.5]))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_apply_choi_matches_conjugation(seed):
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 4)
    rho = random_density(rng, 4)
    c = choi_from_unitary(u)
    assert np.abs(apply_choi(c, rho) - u @ rho @ u.conj().T).max() < 1e-10


def test_apply_choi_identity_channel():
    rho = random_density(np.random.default_rng(0), 2)
    c = choi_from_unitary(np.eye(2))
    assert np.abs(apply_choi(c, rho) - rho).max() < 1e-12


def test_sqscz_splits_01_population():
    c = choi_from_unitary(SQSCZ)
    rho = np.zeros((4, 4), dtype=complex)
    rho[1, 1] = 1
    out = apply_choi(c, rho)
    assert np.allclose(np.diag(out).real, [0, 0.5, 0.5, 0], atol=1e-12)


def test_outcome_probability_basis_cases():
    c = choi_from_unitary(SQSCZ)
    p00 = np.zeros((4, 4), dtype=complex); p00[0, 0] = 1
    p01 = np.zeros((4, 4), dtype=complex); p01[1, 1] = 1
    p10 = np.zeros((4, 4), dtype=complex); p10[2, 2] = 1
    assert outcome_probability(c, p00, p00) == pytest.approx(1.0, abs=1e-12)
    # |01> maps to ((1+i)|01> + (1-i)|10>)/2, so |<10|out>|^2 = 1/2
    assert outcome_probability(c, p01, p10) == pytest.approx(0.5, abs=1e-12)
    assert outcome_probability(c, p01, np.eye(4)) == pytest.approx(1.0, abs=1e-12)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_probability_two_routes_agree(seed):
    rng = np.random.default_rng(seed)
    c = kraus_to_choi(KrausSet(tuple(random_kraus_ops(rng, 4))))
    rho = random_density(rng, 4)
    effect = random_effect(rng, 4)
    direct = outcome_probability(c, rho, effect)
    via_state = np.trace(effect @ apply_choi(c, rho)).real
    assert abs(direct - via_state) < 1e-10


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_complete_projectors_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    c = kraus_to_choi(KrausSet(tuple(random_kraus_ops(rng, 4))))
    rho = random_density(rng, 4)
    total = sum(
        outcome_probability(c, rho, np.diag([float(i == k) for i in range(4)]).astype(complex))
        for k in range(4)
    )
    assert abs(total - 1.0) < 1e-8


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_kraus_to_choi_matches_outer_product_oracle(num_qubits):
    rng = np.random.default_rng(num_qubits)
    d = 2**num_qubits
    for n_env in (1, 2, 5):
        ops = random_kraus_ops(rng, d, n_env=n_env)
        c = kraus_to_choi(KrausSet(tuple(ops)))
        assert np.abs(c.matrix - oracle_kraus_to_choi(ops)).max() < 1e-12


def test_single_unitary_kraus_matches_choi():
    ks = KrausSet((SQSCZ,))
    assert np.abs(kraus_to_choi(ks).matrix - choi_from_unitary(SQSCZ).matrix).max() < 1e-12


def test_depolarizing_choi_closed_form():
    from choiqpt.noise import depolarizing_kraus

    p, d = 0.3, 4
    c = kraus_to_choi(depolarizing_kraus(p, 2))
    oracle = explicit_choi(lambda rho: (1 - p) * rho + p * np.trace(rho) * np.eye(d) / d, d)
    assert np.abs(c.matrix - oracle).max() < 1e-12
    # closed form: (1-p) d |phi><phi| + (p/d) I
    phi = np.eye(d).reshape(-1) / np.sqrt(d)
    closed = (1 - p) * d * np.outer(phi, phi) + (p / d) * np.eye(d * d)
    assert np.abs(c.matrix - closed).max() < 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_kraus_choi_roundtrip(seed):
    rng = np.random.default_rng(seed)
    c = kraus_to_choi(KrausSet(tuple(random_kraus_ops(rng, 4, n_env=4))))
    back = kraus_to_choi(choi_to_kraus(c))
    assert frobenius(back.matrix - c.matrix) < 1e-9


@pytest.mark.parametrize("d", [2, 4])
def test_kraus_superop_acts_on_row_major_vec(d):
    rng = np.random.default_rng(d)
    ks = KrausSet(tuple(random_kraus_ops(rng, d)))
    rho = random_density(rng, d)
    s = kraus_superop(ks.operators)
    n = d.bit_length() - 1
    want = apply_kraus(rho, ks.operators, tuple(range(n)), n)
    assert np.abs(s @ rho.reshape(-1) - want.reshape(-1)).max() < 1e-12


def test_choi_to_kraus_rejects_negative():
    c = choi_from_unitary(np.eye(2))
    bad = ChoiMatrix(2, 2, c.matrix - 0.01 * np.eye(4))
    with pytest.raises(ValueError):
        choi_to_kraus(bad)


def test_chi_identity_single_entry():
    chi = choi_to_chi(choi_from_unitary(np.eye(4)))
    expected = np.zeros((16, 16))
    expected[0, 0] = 1
    assert np.abs(chi.matrix - expected).max() < 1e-12
    assert chi.labels[0] == "II"
    assert chi.labels[:4] == ("II", "IX", "IY", "IZ")


def test_chi_sqrt_cz_support():
    # oracle: expand diag(1,1,1,i) over Pauli labels, chi = outer(coeffs)
    u = gate_unitary("SQRT_CZ")
    basis = pauli_basis(2)
    coeffs = np.array([np.trace(w.conj().T @ u) / 4 for w in basis.operators])
    support = {basis.labels[i] for i in np.flatnonzero(np.abs(coeffs) > 1e-12)}
    assert support == {"II", "IZ", "ZI", "ZZ"}

    chi = choi_to_chi(choi_from_unitary(u))
    assert chi.matrix.shape == (16, 16)
    nonzero = {
        (chi.labels[i], chi.labels[j])
        for i, j in zip(*np.nonzero(np.abs(chi.matrix) > 1e-12))
    }
    allowed = {"II", "IZ", "ZI", "ZZ"}
    assert all(a in allowed and b in allowed for a, b in nonzero)
    oracle = np.outer(coeffs, coeffs.conj())
    assert np.abs(chi.matrix - oracle).max() < 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_chi_reproduces_channel_action(seed):
    rng = np.random.default_rng(seed)
    ks = KrausSet(tuple(random_kraus_ops(rng, 4)))
    c = kraus_to_choi(ks)
    chi = choi_to_chi(c)
    basis = pauli_basis(2)
    rho = random_density(rng, 4)
    out = np.zeros((4, 4), dtype=complex)
    for m, wm in enumerate(basis.operators):
        for n, wn in enumerate(basis.operators):
            out += chi.matrix[m, n] * (wm @ rho @ wn.conj().T)
    assert np.abs(out - apply_choi(c, rho)).max() < 1e-9
    # round trip
    assert frobenius(chi_to_choi(chi).matrix - c.matrix) < 1e-9


def ptm_loop(c: ChoiMatrix) -> np.ndarray:
    """Oracle: R[m,n] = Tr(W_m E(W_n)) / d, one channel application per column."""
    d = c.dim_in
    ops = pauli_basis(int(round(np.log2(d)))).operators
    r = np.zeros((len(ops), len(ops)), dtype=complex)
    for j, wn in enumerate(ops):
        out = apply_choi(c, wn)
        for i, wm in enumerate(ops):
            r[i, j] = np.trace(wm @ out) / d
    return r


@pytest.mark.parametrize("d", [2, 4])
def test_ptm_matches_loop_oracle(d):
    rng = np.random.default_rng(d)
    for _ in range(10):
        c = kraus_to_choi(KrausSet(tuple(random_kraus_ops(rng, d))))
        want = ptm_loop(c)
        assert np.abs(want.imag).max() < 1e-12
        assert np.abs(choi_to_ptm(c).matrix - want.real).max() < 1e-12


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
def test_pauli_conversions_match_dense_oracles(num_qubits):
    rng = np.random.default_rng(num_qubits)
    d = 2**num_qubits
    for _ in range(3):
        c = kraus_to_choi(KrausSet(tuple(random_kraus_ops(rng, d))))
        chi = choi_to_chi(c)
        assert chi.labels == pauli_basis(num_qubits).labels
        assert np.abs(chi.matrix - oracle_choi_to_chi(c.matrix, d)).max() < 1e-12
        back = chi_to_choi(chi)
        assert (back.dim_in, back.dim_out) == (d, d)
        assert np.abs(back.matrix - oracle_chi_to_choi(chi.matrix, d)).max() < 1e-12
        ptm = choi_to_ptm(c)
        assert ptm.labels == pauli_basis(num_qubits).labels
        assert np.abs(ptm.matrix - oracle_choi_to_ptm(c.matrix, d)).max() < 1e-12


def test_pauli_conversions_reject_non_power_of_two_dimension():
    c = ChoiMatrix(3, 3, np.eye(9))
    msg = "Pauli basis needs a power-of-two dimension, got 3$"
    for convert, arg in [(choi_to_chi, c), (choi_to_ptm, c), (chi_to_choi, ChiMatrix(np.eye(9), ()))]:
        with pytest.raises(ValueError, match=msg):
            convert(arg)


@pytest.mark.parametrize("convert", [choi_to_chi, choi_to_ptm])
def test_pauli_conversions_reject_unequal_dimensions(convert):
    # the rejection now comes from ChoiMatrix itself, before the conversion runs
    with pytest.raises(ValueError, match="needs dim_in == dim_out, got 2 and 4$"):
        convert(ChoiMatrix(2, 4, np.eye(8)))


def test_choi_matrix_rejects_unequal_dimensions():
    # choi.json carries one dim, so only a d-to-d Choi matrix could round-trip
    with pytest.raises(ValueError, match="Choi matrix needs dim_in == dim_out, got 2 and 4$"):
        ChoiMatrix(2, 4, np.eye(8))


def test_pauli_labels_need_no_basis_operators():
    for k in range(1, 5):
        assert product_labels("IXYZ", k) == pauli_basis(k).labels
    c = choi_from_unitary(np.eye(16))
    pauli_basis.cache_clear()
    assert choi_to_chi(c).labels == choi_to_ptm(c).labels == product_labels("IXYZ", 4)
    assert pauli_basis.cache_info().misses == 0


def test_ptm_rejects_imaginary_residue():
    c = choi_from_unitary(np.eye(2))
    with pytest.raises(ValueError, match="imaginary"):
        choi_to_ptm(ChoiMatrix(2, 2, c.matrix + 1e-3j * np.eye(4)))


def test_ptm_identity():
    ptm = choi_to_ptm(choi_from_unitary(np.eye(4)))
    assert np.abs(ptm.matrix - np.eye(16)).max() < 1e-12


def test_ptm_trace_preserving_top_row_and_unital_column():
    rng = np.random.default_rng(11)
    c = kraus_to_choi(KrausSet(tuple(random_kraus_ops(rng, 4))))
    ptm = choi_to_ptm(c)
    top = np.zeros(16); top[0] = 1
    assert np.abs(ptm.matrix[0] - top).max() < 1e-10
    u = random_unitary(rng, 4)  # unitaries are unital
    col = choi_to_ptm(choi_from_unitary(u)).matrix[:, 0]
    assert np.abs(col - top).max() < 1e-10


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=15, deadline=None)
def test_ptm_composition_homomorphism(seed):
    rng = np.random.default_rng(seed)
    e_ops = random_kraus_ops(rng, 4)
    f_ops = random_kraus_ops(rng, 4)
    composed = KrausSet(tuple(b @ a for b in e_ops for a in f_ops))  # E after F
    lhs = choi_to_ptm(kraus_to_choi(composed)).matrix
    rhs = (
        choi_to_ptm(kraus_to_choi(KrausSet(tuple(e_ops)))).matrix
        @ choi_to_ptm(kraus_to_choi(KrausSet(tuple(f_ops)))).matrix
    )
    assert np.abs(lhs - rhs).max() < 1e-9


def test_is_cptp_reports():
    c = choi_from_unitary(SQSCZ)
    rep = is_cptp(c)
    assert rep.passes
    scaled = ChoiMatrix(4, 4, 1.1 * c.matrix)
    assert is_cptp(scaled).tp_dev == pytest.approx(0.1 * 2, abs=1e-9)  # 0.1 * sqrt(d)
    shifted = ChoiMatrix(4, 4, c.matrix - 0.01 * np.eye(16))
    rep2 = is_cptp(shifted)
    assert rep2.min_eig == pytest.approx(-0.01, abs=1e-9)
    assert not rep2.passes


@pytest.mark.parametrize("num_qubits", [1, 2, 3, 4])
def test_is_cptp_tp_dev_is_the_einsum_output_trace_residual(num_qubits):
    d = 2**num_qubits
    rng = np.random.default_rng(num_qubits)
    channel = kraus_to_choi(KrausSet(tuple(random_kraus_ops(rng, d)))).matrix
    shape = (d * d, d * d)
    for m in (channel, 1.1 * channel, rng.normal(size=shape) + 1j * rng.normal(size=shape)):
        assert is_cptp(ChoiMatrix(d, d, m)).tp_dev == frobenius(output_trace(m, d) - np.eye(d))


def test_kraus_set_validation():
    with pytest.raises(ValueError):
        KrausSet((np.eye(2) * 0.5,))
    with pytest.raises(ValueError):
        KrausSet(())


def test_kraus_sets_compare_and_hash_by_identity():
    ks, twin = KrausSet((PAULI_X,)), KrausSet((PAULI_X.copy(),))
    assert (ks == twin) is False and (ks == ks) is True
    assert hash(ks) == hash(ks)
    assert len({ks, twin, ks}) == 2


def test_choi_json_and_csv_roundtrip():
    c = choi_from_unitary(SQSCZ)
    back = read_choi_json(choi_to_json(c))
    assert back.dim_in == 4
    assert np.abs(back.matrix - c.matrix).max() < 1e-15
    csv = matrix_csv(c.matrix, "re")
    assert len(csv.strip().splitlines()) == 16


def test_matrix_csv_matches_oracle():
    special = np.array([[np.nan, np.inf, -np.inf], [-0.0, 0.0, 1e-300], [1e200, -1.5, 2 / 3]])
    m = np.empty(special.shape, dtype=complex)
    m.real, m.imag = special, special[::-1]  # not re + 1j * im, which turns inf into nan
    rng = np.random.default_rng(8)
    big = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    for mat in (m, big, special, np.zeros((0, 0)), np.ones((2, 3))):
        for part in ("re", "im"):
            assert matrix_csv(mat, part) == oracle_matrix_csv(mat, part)
    assert matrix_csv(m, "re").splitlines() == ["nan,inf,-inf", "-0,0,1e-300", "1e+200,-1.5,0.666666666667"]


_ENTRIES = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3, 1.7976931348623157e308]
)


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([1, 2, 4]), data=st.data())
def test_choi_json_matches_oracle_and_roundtrips_bitwise(dim, data):
    shape = (dim * dim, dim * dim)
    m = np.empty(shape, dtype=complex)
    m.real = data.draw(arrays(np.float64, shape, elements=_ENTRIES))
    m.imag = data.draw(arrays(np.float64, shape, elements=_ENTRIES))
    c = ChoiMatrix(dim, dim, m)
    text = choi_to_json(c)
    assert text == oracle_choi_json(c)
    back = read_choi_json(text)
    assert back.dim_in == dim
    # bit for bit, so -0.0 keeps its sign in both parts
    assert np.array_equal(back.matrix.view(np.uint64), c.matrix.view(np.uint64))


def test_pauli_basis_orthogonality():
    basis = pauli_basis(2)
    assert len(basis.labels) == 16
    for (i, a), (j, b) in itertools.product(enumerate(basis.operators), repeat=2):
        want = 4.0 if i == j else 0.0
        assert abs(np.trace(a.conj().T @ b) - want) < 1e-12
