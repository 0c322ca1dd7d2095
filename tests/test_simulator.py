import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from choiqpt import simulator
from choiqpt.channels import KrausSet
from choiqpt.gates import GATE_DEFS, Circuit, circuit_unitary, ga, to_native
from choiqpt.linalg import kron_all
from choiqpt.noise import (
    NoiseModel,
    depolarizing_kraus,
    noise_model_from_calibration,
    parse_calibration,
)
from choiqpt.simulator import (
    CountsTable,
    apply_confusion,
    apply_measure_noise,
    circuit_probabilities,
    draw_counts,
    evolve,
    ground_state,
    measure_probabilities,
    sample_counts,
    simulate,
)
from conftest import oracle_measure_noise, oracle_simulate, random_density, random_kraus_ops


def state(bits: str) -> np.ndarray:
    n = len(bits)
    rho = np.zeros((2**n, 2**n), dtype=complex)
    rho[int(bits, 2), int(bits, 2)] = 1
    return rho


def test_sqscz_fixes_ground_state():
    rho = simulate(Circuit(2, (ga("SQSCZ", (0, 1)),)))
    assert np.abs(rho - state("00")).max() < 1e-12


def test_cnot_flips_target():
    rho = evolve(state("10"), Circuit(2, (ga("CNOT", (0, 1)),)))
    assert np.abs(rho - state("11")).max() < 1e-12


@pytest.mark.parametrize("noisy", [False, True])
def test_evolve_returns_a_new_array_without_gates(noisy, perth_noise):
    x = np.stack([state("01"), state("10")])
    got = evolve(x, Circuit(2), perth_noise if noisy else None)
    assert np.array_equal(got, x) and not np.shares_memory(got, x)
    got[...] = 7
    assert np.array_equal(x, np.stack([state("01"), state("10")]))


def test_fully_depolarizing_gate_noise():
    model = NoiseModel(
        gate_noise={("CNOT", (0, 1)): depolarizing_kraus(1.0, 2)},
        readout_confusion={0: np.eye(2), 1: np.eye(2)},
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
    assert np.abs(evolve(rho0, c) - u @ rho0 @ u.conj().T).max() < 1e-10
    assert abs(np.trace(evolve(rho0, c)) - 1) < 1e-8


def random_noisy_circuit(rng: np.random.Generator, num_qubits: int) -> tuple[Circuit, NoiseModel]:
    """Random 1- and 2-qubit gates on any ordered wires, with random CPTP noise on every
    gate key of the lowered circuit and on each qubit's readout.  RX acts twice on wire 0
    with different angles, so one RZ noise entry serves several parameter sets."""
    one = [name for name, (arity, _, _) in GATE_DEFS.items() if arity == 1]
    two = [name for name, (arity, _, _) in GATE_DEFS.items() if arity == 2]
    gates = [ga("RX", 0, float(rng.uniform(-np.pi, np.pi)))]
    for _ in range(int(rng.integers(4, 12))):
        if num_qubits > 1 and rng.random() < 0.4:
            wires = tuple(int(q) for q in rng.choice(num_qubits, size=2, replace=False))
            gates.append(ga(str(rng.choice(two)), wires))
        else:
            name = str(rng.choice(one))
            params = rng.uniform(-np.pi, np.pi, size=GATE_DEFS[name][1])
            gates.append(ga(name, int(rng.integers(num_qubits)), *params))
    if num_qubits == 3:
        gates.append(ga("CNOT", (2, 0)))
    gates.append(ga("RX", 0, float(rng.uniform(-np.pi, np.pi))))
    c = Circuit(num_qubits, tuple(gates))
    keys = {(g.name, g.qubits) for g in to_native(c).gates}
    keys |= {("measure", (q,)) for q in range(num_qubits)}
    gate_noise = {
        key: KrausSet(tuple(random_kraus_ops(rng, 2 ** len(key[1]), n_env=int(rng.integers(1, 4)))))
        for key in sorted(keys)
    }
    return c, NoiseModel(gate_noise, {})


@pytest.mark.parametrize("seed", range(12))
def test_simulate_matches_kraus_oracle_on_random_circuits(seed):
    rng = np.random.default_rng(seed)
    k = 1 + seed % 3
    c, noise = random_noisy_circuit(rng, k)
    rho0 = random_density(rng, 2**k)
    # noisy runs lower the circuit first, so the oracle runs the native gates
    for circuit, model in ((c, None), (to_native(c), noise)):
        want = oracle_simulate(circuit, model, initial=rho0)
        assert np.abs(evolve(rho0, c, model) - want).max() <= 1e-12
    decayed = apply_measure_noise(evolve(rho0, c, noise), noise, k)
    assert np.abs(decayed - oracle_measure_noise(want, noise, k)).max() <= 1e-12
    # a stack of states, with a leading batch axis, evolves state by state
    stack = np.stack([random_density(rng, 2**k) for _ in range(3)])
    got = apply_measure_noise(evolve(stack, c), noise, k)
    for rho, out in zip(stack, got):
        want = oracle_measure_noise(oracle_simulate(c, None, initial=rho), noise, k)
        assert np.abs(out - want).max() <= 1e-12


def test_noisy_simulate_lowers_to_native_gates(perth_noise):
    rho0 = random_density(np.random.default_rng(3), 4)
    c = Circuit(2, (ga("SQSCZ", (0, 1)),))
    noisy = evolve(rho0, c, perth_noise)
    assert np.abs(noisy - evolve(rho0, to_native(c), perth_noise)).max() <= 1e-12
    assert np.abs(noisy - evolve(rho0, c)).max() > 1e-3


def test_noisy_runs_lower_each_circuit_once(perth_noise):
    c = Circuit(2, (ga("SQSCZ", (1, 0)), ga("RX", 0, 0.123)))
    misses = to_native.cache_info().misses
    first = simulate(c, perth_noise)
    second = evolve(ground_state(2), Circuit(2, c.gates), perth_noise)  # an equal circuit
    assert to_native.cache_info().misses == misses + 1
    assert np.array_equal(first, second)
    assert to_native.cache_info().maxsize <= 64


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


def test_sample_counts_pinned_tables():
    # tables drawn before the stacked draw; ``qpt execute`` writes these same counts
    t = sample_counts(np.array([0.3, 0.2, 0.4, 0.1]), 1000, seed=42)
    assert t.counts == {"00": 295, "01": 182, "10": 423, "11": 100}
    t = sample_counts(np.array([0.5, 0.25, 0.25, 0.0]), 7168, np.random.SeedSequence(9))
    assert t.counts == {"00": 3601, "01": 1787, "10": 1780, "11": 0}


def _stack_with_ties(rng: np.random.Generator, rows: int, width: int) -> np.ndarray:
    """Rows built from conditionals drawn from {0, 0.5, 1, uniform}: zeros and exact 0.5 ties."""
    cond = rng.choice([0.0, 0.5, 1.0, -1.0], size=(rows, width))
    cond = np.where(cond < 0, rng.random((rows, width)), cond)
    cond[:, -1] = 1.0
    p = np.empty((rows, width))
    rest = np.ones(rows)
    for k in range(width):
        p[:, k] = cond[:, k] * rest
        rest = rest - p[:, k]
    return p


@settings(max_examples=40, deadline=None)
@given(
    num_qubits=st.integers(1, 4),
    rows=st.integers(1, 60),
    shots=st.sampled_from([1, 7, 4000, 11000]),
    seed=st.integers(0, 2**63),
    data_seed=st.integers(0, 2**32 - 1),
)
def test_draw_counts_equals_row_loop_on_one_generator(num_qubits, rows, shots, seed, data_seed):
    p = _stack_with_ties(np.random.default_rng(data_seed), rows, 2**num_qubits)
    for s in (seed, np.random.SeedSequence(seed), np.random.default_rng(seed)):
        got = draw_counts(p, shots, s)
        g = np.random.default_rng(np.random.SeedSequence(seed))
        want = [list(sample_counts(row, shots, g).counts.values()) for row in p]
        assert got.shape == (rows, 2**num_qubits)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("p", [[0.5, 0.25, 0.25, 0.0], [0.5, 0.0, 0.25, 0.25]])
def test_sample_counts_insensitive_to_one_ulp(p):
    # numpy's binomial draws n - Bin(n, 1 - q) for a conditional q > 0.5, so these
    # exact-0.5 conditionals must not depend on the last bit, and a zero outcome
    # before the last must not take a draw when moved one ulp off zero
    p = np.array(p)
    want = sample_counts(p, 11000, np.random.SeedSequence((3, 7)))
    for i in range(4):
        for toward in (0.0, 1.0):
            moved = p.copy()
            moved[i] = np.nextafter(p[i], toward)
            assert sample_counts(moved, 11000, np.random.SeedSequence((3, 7))) == want, (i, toward)


def test_sample_counts_takes_whole_shots_and_one_vector():
    p = np.array([0.5, 0.5])
    for shots in (2.5, True, "10"):
        with pytest.raises(ValueError, match="shots must be a whole number"):
            sample_counts(p, shots, seed=1)
    table = sample_counts(p, 10.0, seed=1)
    assert type(table.shots) is int and table == sample_counts(p, 10, seed=1)
    for probs in (np.full((1, 4), 0.25), np.full((2, 2), 0.5), np.array(1.0)):
        with pytest.raises(ValueError, match=re.escape(f"one vector, not an array of shape {probs.shape}")):
            sample_counts(probs, 10, seed=1)


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
    # a general distribution: every recorded outcome follows (C_0 (x) C_1) p
    p = np.array([0.45, 0.05, 0.2, 0.3])
    recorded = apply_confusion(p, confusion)
    table = sample_counts(p, shots, seed=12, confusion=confusion)
    sigma = np.sqrt(recorded * (1 - recorded) / shots)
    assert np.all(np.abs(np.array(list(table.counts.values())) / shots - recorded) < 5 * sigma)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_apply_confusion_matches_kron(k):
    rng = np.random.default_rng(100 + k)
    confusion = []
    for _ in range(k):
        flips = rng.uniform(0, 0.5, size=2)
        confusion.append(np.array([[1 - flips[0], flips[1]], [flips[0], 1 - flips[1]]]))
    probs = rng.dirichlet(np.ones(2**k), size=(3, 5))
    expected = probs @ kron_all(confusion).real.T
    assert np.abs(apply_confusion(probs, confusion) - expected).max() < 1e-12
    assert np.abs(apply_confusion(probs[0, 0], confusion) - expected[0, 0]).max() < 1e-12


@pytest.mark.parametrize("count, shape", [(0, (4,)), (1, (4,)), (3, (4,)), (1, (2, 4))])
def test_confusion_list_of_the_wrong_length_is_rejected(count, shape):
    # one matrix per qubit: anything else names both counts before any reshape
    probs, m = np.full(shape, 0.25), np.array([[0.9, 0.2], [0.1, 0.8]])
    message = f"{count} confusion matrices for 4 outcomes"
    with pytest.raises(ValueError, match=message):
        apply_confusion(probs, [m] * count)
    if len(shape) == 1:
        with pytest.raises(ValueError, match=message):
            sample_counts(probs, 100, 0, confusion=[m] * count)


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
    recorded = apply_confusion(measure_probabilities(rho, "ZZ"), perth_noise.confusion_for(2))
    assert np.array_equal(noisy, recorded)
    assert noisy[0] < 1.0


def test_counts_table_roundtrip_and_invariant():
    t = CountsTable(10, {"01": 6, "00": 4})
    assert t.to_dict() == {"shots": 10, "counts": {"00": 4, "01": 6}}
    assert list(t.to_dict()["counts"]) == ["00", "01"]  # written in outcome order
    assert t.frequency("00") == 0.4 and t.frequency("11") == 0.0
    # a table built directly is checked; only the dataset's view, checked as a whole, skips it
    with pytest.raises(ValueError, match="counts do not sum to the shot total"):
        CountsTable(11, {"00": 4, "01": 6})
    with pytest.raises(ValueError, match="counts must be non-negative"):
        CountsTable(10, {"00": 11, "01": -1})


def test_ground_state():
    g = ground_state(2)
    assert g[0, 0] == 1 and np.abs(g).sum() == 1


MEMO_TARGETS = {
    1: Circuit(1, (ga("RX", 0, 0.7), ga("H", 0))),
    2: Circuit(2, (ga("SQSCZ", (1, 0)), ga("RZ", 0, 0.3))),
    3: Circuit(3, (ga("SQSCZ", (2, 0)), ga("H", 1), ga("CNOT", (1, 2)))),
    4: Circuit(4, (ga("SQSCZ", (3, 1)), ga("H", 0), ga("CNOT", (2, 0)), ga("RX", 3, 0.4))),
}


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_memoised_simulate_matches_kraus_oracle(k, noisy, tab1_path):
    c = MEMO_TARGETS[k]
    noise = noise_model_from_calibration(parse_calibration(tab1_path), num_qubits=k) if noisy else None
    # noisy runs lower the circuit first, so the oracle runs the native gates
    want = oracle_simulate(to_native(c) if noisy else c, noise)
    simulator._from_ground.cache_clear()
    for _ in range(2):  # cold, then warm
        assert np.abs(simulate(c, noise) - want).max() <= 1e-12
    assert simulator._from_ground.cache_info()[:2] == (1, 1)


def test_writing_into_a_memoised_result_leaves_the_next_one(perth_noise):
    c = Circuit(2, (ga("SQSCZ", (0, 1)), ga("RX", 1, 0.2)))
    first = simulate(c, perth_noise)
    want = first.copy()
    first[...] = 0.25
    assert np.array_equal(simulate(c, perth_noise), want)
    with pytest.raises(ValueError):  # the memoised result itself is read-only
        simulator._from_ground(c, perth_noise)[0, 0] = 1.0


def test_a_first_simulate_evolves_one_state(tab1_path, monkeypatch):
    c = MEMO_TARGETS[4]
    noise = noise_model_from_calibration(parse_calibration(tab1_path), num_qubits=4)
    shapes = []

    def counting_evolve(states, c, noise=None):
        shapes.append(states.shape)
        return evolve(states, c, noise)

    monkeypatch.setattr(simulator, "evolve", counting_evolve)
    simulator._from_ground.cache_clear()
    first = simulate(c, noise)
    assert shapes == [(16, 16)]  # a cold run costs what one state's run costs
    assert np.array_equal(simulate(c, noise), first) and len(shapes) == 1


def test_simulate_wider_than_the_memo_cap_keeps_nothing():
    memo = simulator._from_ground
    assert memo.max_qubits == 8
    c = Circuit(9, tuple(ga("H", q) for q in range(9)) + (ga("CNOT", (0, 8)), ga("RX", 4, 0.3)))
    before = memo.cache_info()
    rho = simulate(c)
    assert memo.cache_info() == before
    assert np.array_equal(rho, evolve(ground_state(9), c))
