import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from choiqpt.gates import Circuit, circuit_unitary, ga, to_native
from choiqpt.noise import NoiseModel, depolarizing_kraus
from choiqpt.simulator import (
    CountsTable,
    apply_measure_noise,
    circuit_probabilities,
    ground_state,
    measure_probabilities,
    sample_counts,
    simulate,
    validate_density_matrix,
)
from conftest import random_density


def state(bits: str) -> np.ndarray:
    n = len(bits)
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[int(bits, 2), int(bits, 2)] = 1
    return rho


def test_sqscz_fixes_ground_state():
    rho = simulate(Circuit(2, (ga("SQSCZ", (0, 1)),)))
    assert np.abs(rho - state("00")).max() < 1e-12


def test_cnot_flips_target():
    rho = simulate(Circuit(2, (ga("CNOT", (0, 1)),)), initial=state("10"))
    assert np.abs(rho - state("11")).max() < 1e-12


def test_fully_depolarizing_gate_noise():
    model = NoiseModel(
        gate_noise={("CNOT", (0, 1)): depolarizing_kraus(1.0, 2)},
        readout_confusion={0: np.eye(2), 1: np.eye(2)},
        gate_durations={},
    )
    rho = simulate(Circuit(2, (ga("CNOT", (0, 1)),)), noise=model)
    assert np.abs(rho - np.eye(4) / 4).max() < 1e-12


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_noiseless_simulation_matches_unitary_conjugation(seed):
    rng = np.random.default_rng(seed)
    c = Circuit(
        2,
        (
            ga("H", 0),
            ga("RZ", 1, float(rng.uniform(-np.pi, np.pi))),
            ga("SQSCZ", (0, 1)),
            ga("RX", 0, float(rng.uniform(-np.pi, np.pi))),
            ga("CNOT", (1, 0)),
        ),
    )
    rho0 = random_density(rng, 4)
    u = circuit_unitary(c)
    assert np.abs(simulate(c, initial=rho0) - u @ rho0 @ u.conj().T).max() < 1e-10
    assert abs(np.trace(simulate(c, initial=rho0)) - 1) < 1e-8


def test_simulate_width_mismatch():
    with pytest.raises(ValueError):
        simulate(Circuit(2, (ga("X", 0),)), initial=np.eye(2) / 2)


def test_validate_density_matrix_rejects_bad_states():
    with pytest.raises(ValueError):
        validate_density_matrix(np.eye(2))  # trace 2
    with pytest.raises(ValueError):
        validate_density_matrix(np.array([[1.0, 0.5], [0.1, 0.0]]))
    with pytest.raises(ValueError):
        validate_density_matrix(np.diag([1.5, -0.5]).astype(complex))


def test_measure_probabilities_zz():
    assert np.allclose(measure_probabilities(state("00"), "ZZ"), [1, 0, 0, 0])


def test_measure_probabilities_bell_xx():
    bell = np.zeros(4, dtype=complex)
    bell[0] = bell[3] = 1 / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    assert np.allclose(measure_probabilities(rho, "XX"), [0.5, 0, 0, 0.5], atol=1e-12)


def test_measure_probabilities_sqscz_01():
    rho = simulate(Circuit(2, (ga("X", 1), ga("SQSCZ", (0, 1)))))
    assert np.allclose(measure_probabilities(rho, "ZZ"), [0, 0.5, 0.5, 0], atol=1e-12)


def test_measure_probabilities_y_basis():
    # |+i> state: certain outcome 0 when measuring Y
    c = Circuit(1, (ga("H", 0), ga("Ph", 0, np.pi / 2)))
    rho = simulate(c)
    assert np.allclose(measure_probabilities(rho, "Y"), [1, 0], atol=1e-12)


def test_measure_probabilities_bad_setting():
    with pytest.raises(ValueError):
        measure_probabilities(state("0"), "Q")


def test_sample_counts_deterministic_and_pure():
    table = sample_counts(np.array([1.0, 0, 0, 0]), 500, seed=9)
    assert table.counts == {"00": 500, "01": 0, "10": 0, "11": 0}
    t1 = sample_counts(np.array([0.3, 0.2, 0.4, 0.1]), 1000, seed=42)
    t2 = sample_counts(np.array([0.3, 0.2, 0.4, 0.1]), 1000, seed=42)
    assert t1 == t2
    t3 = sample_counts(np.array([0.3, 0.2, 0.4, 0.1]), 1000, seed=43)
    assert t1 != t3


def test_sample_counts_validation():
    with pytest.raises(ValueError):
        sample_counts(np.array([0.5, 0.5]), 0, seed=1)
    with pytest.raises(ValueError):
        sample_counts(np.array([1.2, -0.2]), 10, seed=1)
    with pytest.raises(ValueError):
        sample_counts(np.array([0.4, 0.4]), 10, seed=1)  # does not sum to 1


def test_sample_counts_confusion_statistics(perth_noise):
    # starting from a pure |00> distribution, only eta-type flips matter:
    # P(observed 00) = (1 - eta_0)(1 - eta_1)
    confusion = perth_noise.confusion_for(2)
    expected = confusion[0][0, 0] * confusion[1][0, 0]
    assert expected == pytest.approx((1 - 0.027) * (1 - 0.0288))
    shots = 7168
    table = sample_counts(np.array([1.0, 0, 0, 0]), shots, seed=11, confusion=confusion)
    sigma = np.sqrt(expected * (1 - expected) / shots)
    assert abs(table.frequency("00") - expected) < 5 * sigma
    assert sum(table.counts.values()) == shots


def test_sample_counts_rejects_bad_confusion():
    bad = [np.array([[0.9, 0.2], [0.2, 0.8]])] * 1
    with pytest.raises(ValueError):
        sample_counts(np.array([1.0, 0.0]), 10, seed=0, confusion=bad)


def test_apply_measure_noise_decays_excited_population(perth_noise):
    rho = state("11")
    out = apply_measure_noise(rho, perth_noise, 2)
    p11 = out[3, 3].real
    # both qubits relax a little over the readout window
    assert 0.98 < p11 < 1.0
    assert abs(np.trace(out) - 1) < 1e-10


def test_circuit_probabilities_is_the_composed_pipeline(perth_noise):
    circuit = Circuit(2, (ga("SQSCZ", (0, 1)),))
    clean = measure_probabilities(simulate(circuit), "ZZ")
    assert np.array_equal(circuit_probabilities(circuit), clean)
    rho = apply_measure_noise(simulate(to_native(circuit), perth_noise), perth_noise, 2)
    noisy = circuit_probabilities(circuit, perth_noise)
    assert np.array_equal(noisy, measure_probabilities(rho, "ZZ"))
    assert noisy[0] < 1.0


def test_counts_table_roundtrip_and_invariant():
    t = CountsTable(10, {"00": 4, "01": 6})
    assert CountsTable.from_dict(t.to_dict()) == t
    assert t.frequency("00") == 0.4
    assert np.allclose(t.as_vector(2), [4, 6, 0, 0])
    with pytest.raises(ValueError):
        CountsTable(11, {"00": 4, "01": 6})


def test_ground_state():
    g = ground_state(2)
    assert g[0, 0] == 1 and np.abs(g).sum() == 1
