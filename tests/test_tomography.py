import dataclasses
import functools
import inspect
import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from choiqpt import simulator, tomography
from choiqpt.channels import (
    ChoiMatrix,
    KrausSet,
    choi_from_unitary,
    is_cptp,
    kraus_to_choi,
    outcome_probability,
    pauli_basis,
)
from choiqpt.gates import Circuit, circuit_unitary, ga, gate_unitary, to_native
from choiqpt.linalg import frobenius
from choiqpt.noise import (
    NoiseModel,
    compose_kraus,
    depolarizing_kraus,
    noise_model_from_calibration,
    parse_calibration,
)
from choiqpt.simulator import (
    CountsTable,
    _unitary_superop,
    draw_counts,
    evolve,
    measure_probabilities,
    sample_counts,
    simulate,
)
from choiqpt.tomography import (
    CPTP_TOL,
    ReconstructionOptions,
    TomographyDataset,
    TomographyPlan,
    build_plan,
    execute_plan,
    linear_inversion,
    measurement_circuit,
    prep_circuit,
    project_cptp,
    qpt,
)
from conftest import (
    Stopwatch,
    data_path,
    dykstra_cptp,
    oracle_dataset_counts,
    oracle_dataset_json,
    oracle_job_frequencies,
    oracle_newton_step,
    oracle_project_cptp,
    output_trace,
    random_density,
    random_hermitian,
    random_kraus_ops,
    tp_step,
)

SQSCZ_CIRCUIT = Circuit(2, (ga("SQSCZ", (0, 1)),))

# closed-form single-qubit states of the preparation tokens
KETS = {
    "0": np.array([1, 0], dtype=complex),
    "1": np.array([0, 1], dtype=complex),
    "+": np.array([1, 1], dtype=complex) / np.sqrt(2),
    "i": np.array([1, 1j], dtype=complex) / np.sqrt(2),
}
PAULIS = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


def closed_prep(label: str) -> np.ndarray:
    """Density matrix of the labeled product state, from ``KETS``."""
    psi = functools.reduce(np.kron, [KETS[t] for t in label])
    return np.outer(psi, psi.conj())


def closed_effect(setting: str, outcome: int) -> np.ndarray:
    """Effect of an outcome of a setting: bit 0 (1) of basis P is (I + P)/2 ((I - P)/2)."""
    k = len(setting)
    bits = [(outcome >> (k - 1 - q)) & 1 for q in range(k)]
    effects = [(np.eye(2) + (-1) ** b * PAULIS[p]) / 2 for p, b in zip(setting, bits)]
    return functools.reduce(np.kron, effects)


def dense_design(plan: TomographyPlan) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: dense design matrix A and Hermitian basis stack B on 2K wires.

    Row order follows the plan (preparation-major, then setting, then
    outcome).  ``A[r, a] = Tr[(prep^T (x) projector) B_a]`` with ``B_a`` the
    Pauli operators on 2K wires scaled to an orthonormal Hermitian basis.
    """
    d = 2**plan.num_qubits
    basis = pauli_basis(2 * plan.num_qubits)
    bstack = np.stack(basis.operators).astype(complex) / d  # Tr(BaBb) = delta
    vb = bstack.reshape(len(basis.operators), -1)
    rows = []
    for prep in plan.preparations:
        rho_t = closed_prep(prep).T
        for setting in plan.settings:
            for outcome in range(d):
                op = np.kron(rho_t, closed_effect(setting, outcome))
                rows.append(op.T.reshape(-1))  # vec(op^T) . vec(B) = Tr(op B)
    return (np.stack(rows) @ vb.T).real, bstack


def dense_inversion(dataset: TomographyDataset) -> np.ndarray:
    """Oracle: least-squares Choi estimate from the dense design matrix."""
    a, bstack = dense_design(dataset.plan)
    f = dataset.frequencies.reshape(-1)
    x = np.linalg.lstsq(a, f, rcond=None)[0]
    return np.tensordot(x, bstack, axes=1)


def channel_dataset(choi: ChoiMatrix, plan: TomographyPlan, seed: int | None) -> TomographyDataset:
    """Exact (``seed=None``) or sampled frequencies of a channel given by its Choi matrix."""
    d = 2**plan.num_qubits
    shape = (len(plan.preparations), len(plan.settings), d)
    rows = []
    for idx, (prep, setting) in enumerate(plan.jobs()):
        probs = np.array([
            outcome_probability(choi, closed_prep(prep), closed_effect(setting, b))
            for b in range(d)
        ])
        if seed is None:
            rows.append(probs)
        else:
            tab = sample_counts(probs, plan.shots, np.random.SeedSequence((seed, idx)))
            rows.append(list(tab.counts.values()))  # every outcome, in label order
    if seed is None:  # exact: no shots
        return TomographyDataset(build_plan(plan.num_qubits, None), np.reshape(rows, shape), {})
    return TomographyDataset(plan, np.reshape(rows, shape).astype(np.int64), {})


def test_plan_sizes():
    plan1 = build_plan(1, shots=100)
    assert plan1.num_jobs == 12
    plan2 = build_plan(2, shots=100)
    assert plan2.num_jobs == 144
    assert len(plan2.preparations) == 16 and len(plan2.settings) == 9
    with pytest.raises(ValueError):
        build_plan(0)
    for shots in (0, -3):  # no job could be sampled
        with pytest.raises(ValueError, match=f"shots >= 1, not 2, {shots}"):
            build_plan(2, shots=shots)


def test_plan_takes_whole_numbers_only_and_stores_ints():
    for num_qubits, shots, bad in ((1.5, 10, "num_qubits"), (2, 2.5, "shots"), (True, 10, "num_qubits"),
                                   (2, True, "shots"), (2, "10", "shots")):
        with pytest.raises(ValueError, match=f"{bad} must be a whole number"):
            build_plan(num_qubits, shots)
    plan = build_plan(np.int64(2), 2.0)
    assert type(plan.num_qubits) is int and type(plan.shots) is int
    assert plan == build_plan(2, 2) and hash(plan) == hash(build_plan(2, 2))


def test_qpt_rejects_fractional_or_boolean_shots_and_writes_whole_ones_as_ints():
    before = tomography._probabilities.cache_info()
    for shots in (2.5, True):
        with pytest.raises(ValueError, match="shots must be a whole number"):
            qpt(SQSCZ_CIRCUIT, shots=shots)
    assert tomography._probabilities.cache_info() == before  # rejected before any simulation
    d = json.loads(qpt(SQSCZ_CIRCUIT, shots=2.0, seed=1).dataset.to_json())
    assert d["shots"] == 2 and type(d["shots"]) is int
    assert {type(j["counts"]["shots"]) for j in d["jobs"]} == {int}


def test_qpt_rejects_shots_beyond_the_generator():
    before = tomography._probabilities.cache_info()
    with pytest.raises(ValueError, match="shots 9223372036854775808 exceeds the largest drawable"):
        qpt(SQSCZ_CIRCUIT, shots=2**63)
    assert tomography._probabilities.cache_info() == before  # rejected before any simulation
    assert build_plan(2, shots=2**63 - 1).shots == 2**63 - 1


def test_execute_plan_checks_its_seed_before_it_simulates_and_records_an_int():
    plan, before = build_plan(2, shots=500), tomography._probabilities.cache_info()
    for seed, named in ((1.5, "got 1.5"), (True, "got True"), ("3", "got '3'"), (-1, ">= 0, got -1")):
        with pytest.raises(ValueError, match=f"seed must be a whole number.*{named}"):
            execute_plan(plan, SQSCZ_CIRCUIT, seed=seed)
    assert tomography._probabilities.cache_info() == before  # rejected before any simulation
    want = execute_plan(plan, SQSCZ_CIRCUIT, seed=3).to_json()
    for seed in (np.int64(3), 3.0):
        assert execute_plan(plan, SQSCZ_CIRCUIT, seed=seed).to_json() == want


def test_plan_labels_are_built_once_and_stay_out_of_eq_and_hash():
    plan, fresh = build_plan(2, shots=10), build_plan(2, shots=10)
    assert plan.preparations is plan.preparations and plan.settings is plan.settings
    assert list(plan.jobs()) == [(p, s) for p in plan.preparations for s in plan.settings]
    assert plan == fresh and hash(plan) == hash(fresh)
    assert {plan: 1}[fresh] == 1 and plan != build_plan(2, shots=11)


def test_design_matrix_spans_operator_space():
    a, _ = dense_design(build_plan(2, shots=1))
    assert a.shape == (576, 256)
    assert np.linalg.matrix_rank(a) == 256
    a1, _ = dense_design(build_plan(1, shots=1))
    assert np.linalg.matrix_rank(a1) == 16


@pytest.mark.parametrize("num_qubits", [1, 2])
@pytest.mark.parametrize("seed", [None, 4])
def test_per_qubit_inversion_matches_dense_oracle(num_qubits, seed):
    rng = np.random.default_rng(num_qubits)
    plan = build_plan(num_qubits, shots=2000)
    d = 2**num_qubits
    for _ in range(3):
        choi = kraus_to_choi(KrausSet(tuple(random_kraus_ops(rng, d))))
        ds = channel_dataset(choi, plan, seed)
        est = linear_inversion(ds).matrix
        assert np.abs(est - dense_inversion(ds)).max() < 1e-12
        if seed is None:
            assert np.abs(est - choi.matrix).max() < 1e-12


def test_prep_circuits_match_closed_forms():
    for label in build_plan(2, 1).preparations:
        assert np.abs(simulate(prep_circuit(label)) - closed_prep(label)).max() < 1e-12, label


def test_noiseless_spam_table_matches_closed_forms():
    prep, readout = tomography._spam_table(None)
    assert prep.shape == (4, 2, 2) and readout.shape == (3, 2, 2, 2)
    for p, token in enumerate(tomography.PREP_TOKENS):
        assert np.abs(prep[p] - closed_prep(token)).max() < 1e-12, token
    # the +i token is the +1 eigenstate of Y
    assert np.trace(PAULIS["Y"] @ prep[3]).real == pytest.approx(1.0, abs=1e-12)
    for s, basis in enumerate(tomography.SETTING_TOKENS):
        for b in (0, 1):
            # R[s, b, i, j] = <b| U_s |i><j| U_s^dag |b>: R[s, b] is the effect's transpose
            assert np.abs(readout[s, b].T - closed_effect(basis, b)).max() < 1e-12, (basis, b)


def test_on_qubit_tables_match_one_qubit_models(tab1_path):
    calib = parse_calibration(tab1_path)
    model = noise_model_from_calibration(calib, num_qubits=3)
    clean = tomography._spam_table(None)
    for q in range(3):
        one = noise_model_from_calibration(calib, num_qubits=1, qubit_map=(q,))
        got, want = tomography._spam_table(model.on_qubit(q)), tomography._spam_table(one)
        for a, b, c in zip(got, want, clean):
            assert np.array_equal(a, b), q
            assert np.abs(a - c).max() > 1e-4, q  # the noise shows in the table
        assert np.array_equal(model.on_qubit(q).readout_confusion[0], one.readout_confusion[0])


@pytest.mark.parametrize("qubit", [None, 0, 1])
def test_frame_matches_outcome_probability(qubit, tab1_path):
    # the noiseless frame, and the noisy frames of tab1's qubits 0 and 1
    model = _oracle_noise(tab1_path, 2)
    prep, readout = tomography._spam_table(None if qubit is None else model.on_qubit(qubit))
    choi = kraus_to_choi(KrausSet(tuple(random_kraus_ops(np.random.default_rng(5), 2))))
    got = (tomography._frame(prep, readout) @ choi.matrix.reshape(-1)).reshape(4, 3, 2)
    for p, s, b in np.ndindex(got.shape):
        want = outcome_probability(choi, prep[p], readout[s, b].T)
        assert abs(got[p, s, b] - want) < 1e-13, (p, s, b)


def test_dual_inverts_the_noiseless_frame():
    frame = tomography._frame(*tomography._spam_table(None))
    assert frame.shape == (24, 16) and tomography._DUAL.shape == (16, 24)
    assert np.abs(tomography._DUAL @ frame - np.eye(16)).max() < 1e-12


def test_unknown_tokens_rejected():
    with pytest.raises(ValueError, match="unknown preparation token 'x'"):
        prep_circuit("0x")
    with pytest.raises(ValueError, match="unknown measurement basis 'Q'"):
        measurement_circuit("zq")


def test_measurement_matches_pauli_eigenprojectors():
    # outcome bit 0 (1) of basis P on a qubit is the eigenprojector (I + P)/2 ((I - P)/2)
    rho = random_density(np.random.default_rng(11), 4)
    for setting in build_plan(2, 1).settings:
        for b in range(4):
            prob = measure_probabilities(rho, setting)[b]
            assert abs(prob - np.trace(closed_effect(setting, b) @ rho).real) < 1e-12, (setting, b)


def test_outcome_projectors_resolve_identity():
    # each basis's two read-out effects in the noiseless table sum to I
    _, readout = tomography._spam_table(None)
    assert np.abs(readout.sum(axis=1) - np.eye(2)).max() < 1e-15


def test_measurement_circuit_diagonalizes_setting():
    # rotating by the measurement circuit then reading Z equals projecting
    # onto the setting's projectors
    rho = random_density(np.random.default_rng(3), 4)
    for setting in ("XZ", "YY"):
        circ = measurement_circuit(setting, 2)
        rotated = evolve(rho, circ)
        probs = np.real(np.diag(rotated))
        expected = [np.trace(closed_effect(setting, b) @ rho).real for b in range(4)]
        assert np.allclose(probs, expected, atol=1e-10)


def test_execute_identity_all_shots_in_00():
    plan = build_plan(2, shots=64)
    ds = execute_plan(plan, Circuit(2), seed=5)
    assert ds.counts[("00", "ZZ")].counts["00"] == 64


def test_execute_sqscz_splits_01():
    plan = build_plan(2, shots=4000)
    ds = execute_plan(plan, SQSCZ_CIRCUIT, seed=5)
    tab = ds.counts[("01", "ZZ")]
    assert tab.counts["00"] == 0 and tab.counts["11"] == 0
    assert abs(tab.frequency("01") - 0.5) < 0.05
    assert abs(tab.frequency("10") - 0.5) < 0.05


ORACLE_TARGETS = {
    1: Circuit(1, (ga("RX", 0, 0.7), ga("H", 0))),
    2: Circuit(2, (ga("SQSCZ", (1, 0)), ga("RZ", 0, 0.3))),
    3: Circuit(3, (ga("SQSCZ", (2, 0)), ga("H", 1), ga("CNOT", (1, 2)))),
    4: Circuit(4, (ga("SQSCZ", (3, 1)), ga("H", 0), ga("CNOT", (2, 0)), ga("RX", 3, 0.4))),
}
# Random jobs the composed-circuit oracle checks at each width; None is every job
# (the oracle needs about 3 s for all 1,728 noisy 3-qubit jobs).
ORACLE_JOBS = {1: None, 2: None, 3: 48, 4: 24}


def _oracle_jobs(plan: TomographyPlan):
    size = ORACLE_JOBS[plan.num_qubits]
    if size is None:
        return range(plan.num_jobs)
    return np.random.default_rng(3).choice(plan.num_jobs, size=size, replace=False)


def _oracle_noise(tab1_path, num_qubits: int, noisy: bool = True):
    if not noisy:
        return None
    return noise_model_from_calibration(parse_calibration(tab1_path), num_qubits=num_qubits)


# noisy: False, True (under tab1) or the bundled calibration table to run under
@pytest.mark.filterwarnings("ignore:qubit 2. t2=.* clamping t2")  # tab3's and tab4's qubit 2
@pytest.mark.parametrize(
    "num_qubits, noisy",
    [(k, noisy) for k in (1, 2, 3) for noisy in (False, True, "tab3", "tab4")] + [(4, True)],
)
def test_execute_plan_matches_composed_circuit_oracle(num_qubits, noisy, tab1_path):
    target = ORACLE_TARGETS[num_qubits]
    path = data_path(f"ibm_perth_{noisy}.json") if isinstance(noisy, str) else tab1_path
    noise = _oracle_noise(path, num_qubits, bool(noisy))
    plan = build_plan(num_qubits)
    data = execute_plan(build_plan(num_qubits, None), target, noise=noise)
    want_by_job = oracle_job_frequencies(plan, target, noise, _oracle_jobs(plan))
    for (prep, setting), want in want_by_job.items():
        got = data.frequencies[plan.preparations.index(prep), plan.settings.index(setting)]
        assert np.abs(got - want).max() <= 1e-12, (prep, setting)


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_channel_choi_matches_unitary_choi(num_qubits):
    target = ORACLE_TARGETS[num_qubits]
    got = tomography.channel_choi(target, None)
    want = choi_from_unitary(circuit_unitary(target))
    assert (got.dim_in, got.dim_out) == (want.dim_in, want.dim_out)
    assert np.abs(got.matrix - want.matrix).max() <= 1e-12


@pytest.mark.parametrize("gate", [ga("SX", 1), ga("CNOT", (0, 1)), ga("CNOT", (1, 0))])
def test_channel_choi_of_one_noisy_gate_matches_kraus_choi(gate, tab1_path):
    noise = _oracle_noise(tab1_path, 2)
    kraus = noise.gate_noise[(gate.name, gate.qubits)]
    u = circuit_unitary(Circuit(2, (gate,)))
    # the Kraus set acts on the gate's wires, in the gate's order
    if gate.qubits == (1,):
        ops = [np.kron(np.eye(2), k) for k in kraus.operators]
    elif gate.qubits == (1, 0):
        ops = [k.reshape(2, 2, 2, 2).transpose(1, 0, 3, 2).reshape(4, 4) for k in kraus.operators]
    else:
        ops = kraus.operators
    want = kraus_to_choi(KrausSet(tuple(k @ u for k in ops)))
    got = tomography.channel_choi(Circuit(2, (gate,)), noise)
    assert np.abs(got.matrix - want.matrix).max() <= 1e-12


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_execute_plan_counts_match_per_job_sampling_oracle(num_qubits, tab1_path):
    # the plan is one stream: job by job, in job order, on one generator
    target, noise = ORACLE_TARGETS[num_qubits], _oracle_noise(tab1_path, num_qubits)
    plan = build_plan(num_qubits, shots=4000)
    exact = execute_plan(build_plan(num_qubits, None), target, noise=noise)
    probs = exact.frequencies.reshape(plan.num_jobs, -1)
    for seed in (0, 5):
        data = execute_plan(plan, target, noise=noise, seed=seed)
        g = np.random.default_rng(np.random.SeedSequence(seed))
        assert list(data.counts) == list(plan.jobs())
        for key, row in zip(plan.jobs(), probs):
            assert data.counts[key] == sample_counts(row, plan.shots, g), (seed, key)


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
@pytest.mark.parametrize("noisy", [False, True], ids=["clean", "tab1"])
def test_execute_plan_tallies_are_one_draw_and_counts_match_oracle(num_qubits, noisy, tab1_path):
    # the outcomes are draw_counts' array itself; the counts view rebuilds the per-job tables
    target, noise = ORACLE_TARGETS[num_qubits], _oracle_noise(tab1_path, num_qubits, noisy)
    plan = build_plan(num_qubits, shots=500)
    probs = tomography._probabilities(target, noise)
    for seed in (0, 3, 11):
        data = execute_plan(plan, target, noise=noise, seed=seed)
        drawn = draw_counts(probs.reshape(plan.num_jobs, -1), plan.shots, np.random.SeedSequence(seed))
        assert data.outcomes.dtype == np.int64 and not data.outcomes.flags.writeable
        assert np.array_equal(data.outcomes, drawn.reshape(probs.shape))
        assert np.array_equal(data.frequencies, drawn.reshape(probs.shape) / plan.shots)
        assert list(data.counts.items()) == list(oracle_dataset_counts(plan, drawn).items())
        assert data.counts is data.counts  # built on first use, then kept
        with pytest.raises(TypeError):
            data.counts[next(plan.jobs())] = None


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
@pytest.mark.parametrize("noisy", [False, True], ids=["clean", "tab1"])
def test_counts_view_equals_checked_tables_in_job_order(num_qubits, noisy, tab1_path):
    # the view's tables skip CountsTable's own check: the dataset's one check covered every row
    target, noise = ORACLE_TARGETS[num_qubits], _oracle_noise(tab1_path, num_qubits, noisy)
    plan = build_plan(num_qubits, shots=500)
    for seed in (0, 3):
        view = execute_plan(plan, target, noise=noise, seed=seed).counts
        assert list(view) == list(plan.jobs())
        assert all(t == CountsTable(t.shots, dict(t.counts)) for t in view.values())


def _counting_evolve(monkeypatch) -> list:
    calls = []

    def counting_evolve(states, c, noise=None):
        calls.append(c)
        return evolve(states, c, noise)

    monkeypatch.setattr(tomography, "evolve", counting_evolve)
    return calls


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_execute_plan_simulates_preparation_and_readout_per_qubit(
    num_qubits, tab1_path, monkeypatch
):
    calls = _counting_evolve(monkeypatch)
    tomography._probabilities.cache_clear()
    noise = _oracle_noise(tab1_path, num_qubits)
    execute_plan(build_plan(num_qubits, shots=10), ORACLE_TARGETS[num_qubits], noise, seed=1)
    # 3K preparation tokens with gates, the target once, and K basis changes X and Y;
    # the K tokens "0" and K basis changes Z have no gates, so evolve returns their states
    ran = [c for c in calls if c.gates]
    assert len(ran) <= 5 * num_qubits + 1 and len(calls) - len(ran) <= 2 * num_qubits
    calls.clear()  # without noise the frame is built once, so only the target runs
    execute_plan(build_plan(num_qubits, shots=10), ORACLE_TARGETS[num_qubits], None, seed=1)
    assert len(calls) == 1
    calls.clear()  # a repeat, with another seed and shot count, simulates nothing
    execute_plan(build_plan(num_qubits, shots=20), ORACLE_TARGETS[num_qubits], noise, seed=2)
    execute_plan(build_plan(num_qubits, shots=20), ORACLE_TARGETS[num_qubits], None, seed=2)
    assert calls == []


def test_execute_plan_memory_stays_bounded_at_four_qubits(tab1_path):
    noise = _oracle_noise(tab1_path, 4)
    tracemalloc.start()
    try:
        execute_plan(build_plan(4, None), ORACLE_TARGETS[4], noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_uncached_probabilities_peak_below_four_results():
    # the complex Choi-frame product is freed before the float copies are made
    c = Circuit(3, (ga("SQSCZ", (0, 1)), ga("H", 2)))
    run = tomography._probabilities.__wrapped__
    run(c, None)  # warm: lowering, superoperators and frames are cached
    tracemalloc.start()
    try:
        probs = run(c, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * probs.nbytes, f"peak {peak / probs.nbytes:.2f}x the result"


def test_superop_caches_stay_small(tab1_path):
    noise = noise_model_from_calibration(parse_calibration(tab1_path), num_qubits=2)
    _unitary_superop.cache_clear()
    tomography._probabilities.cache_clear()
    qpt(SQSCZ_CIRCUIT, noise=noise, shots=1000, seed=0)
    plan = build_plan(2)
    applications = {
        (g.name, g.qubits, g.params)
        for prep, setting in plan.jobs()
        for g in to_native(
            prep_circuit(prep, 2).extended(SQSCZ_CIRCUIT, measurement_circuit(setting, 2))
        ).gates
    }
    # one unitary superoperator per gate and parameters, one noise superoperator
    # per Kraus set the jobs use (readout decay included), and nothing else
    clean_entries = _unitary_superop.cache_info().currsize
    assert clean_entries == len({(name, params) for name, _, params in applications})
    built = {key: ks.superop for key, ks in noise.gate_noise.items() if "superop" in vars(ks)}
    used = {(name, qubits) for name, qubits, _ in applications} | {("measure", (0,)), ("measure", (1,))}
    assert set(built) == used & set(noise.gate_noise)
    # noiseless gates act on at most 2 wires: 16 x 16 complex entries each
    noisy_bytes = sum(s.nbytes for s in built.values())
    assert noisy_bytes + clean_entries * 16 * 16 * 16 < 1_000_000


def _same_dataset(a: TomographyDataset, b: TomographyDataset) -> bool:
    return a.to_json() == b.to_json() and np.array_equal(a.frequencies, b.frequencies)


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_memoised_probabilities_equal_a_cold_run(num_qubits, noisy, tab1_path, monkeypatch):
    target, noise = ORACLE_TARGETS[num_qubits], _oracle_noise(tab1_path, num_qubits, noisy)
    plan = build_plan(num_qubits, shots=300)
    tomography._probabilities.cache_clear()
    cold = [execute_plan(p, target, noise, seed=5) for p in (plan, build_plan(num_qubits, None))]
    calls = _counting_evolve(monkeypatch)
    warm = [execute_plan(p, target, noise, seed=5) for p in (plan, build_plan(num_qubits, None))]
    assert calls == []
    assert all(_same_dataset(w, c) for w, c in zip(warm, cold))


def test_memo_hits_an_equal_model_and_misses_a_changed_one(tab1_path, monkeypatch):
    plan, target = build_plan(2, shots=400), ORACLE_TARGETS[2]
    noise = _oracle_noise(tab1_path, 2)
    tomography._probabilities.cache_clear()
    base = execute_plan(plan, target, noise, seed=4)
    calls = _counting_evolve(monkeypatch)
    assert _same_dataset(execute_plan(plan, target, _oracle_noise(tab1_path, 2), seed=4), base)
    assert calls == []  # a freshly parsed, equal calibration is the same key

    sx = noise.gate_noise[("SX", (1,))]
    other_kraus = dict(noise.gate_noise) | {("SX", (1,)): compose_kraus(sx, sx)}
    other_confusion = dict(noise.readout_confusion) | {0: np.array([[0.9, 0.2], [0.1, 0.8]])}
    changed = [
        NoiseModel(other_kraus, noise.readout_confusion),
        NoiseModel(noise.gate_noise, other_confusion),
    ]
    for model in changed:
        calls.clear()
        warm = execute_plan(plan, target, model, seed=4)
        assert calls, "a model with one changed entry must be simulated"
        assert not _same_dataset(warm, base)
        tomography._probabilities.cache_clear()
        assert _same_dataset(execute_plan(plan, target, model, seed=4), warm)

    # a model cannot change under its memo entry: a write into it raises
    with pytest.raises(TypeError):
        noise.gate_noise[("SX", (1,))] = other_kraus[("SX", (1,))]
    with pytest.raises(ValueError):
        noise.readout_confusion[0][...] = other_confusion[0]
    assert _same_dataset(execute_plan(plan, target, noise, seed=4), base)


# each memo, with the public call that fills it: an exact plan, a ground-state run, or qpt
MEMOS = {
    "_probabilities": (tomography._probabilities, lambda c: execute_plan(build_plan(c.num_qubits, None), c)),
    "_from_ground": (simulator._from_ground, simulate),
    "_ideal_choi": (tomography._ideal_choi, lambda c: qpt(c, shots=None)),
}


@pytest.mark.parametrize("name", list(MEMOS))
def test_memo_stays_within_its_bound(name, monkeypatch):
    memo, call = MEMOS[name]
    memo.cache_clear()
    n = memo.cache_info().maxsize
    assert n == 4
    targets = [Circuit(1, (ga("RZ", 0, 0.1 * i), ga("H", 0))) for i in range(2 * n)]

    def run(target):  # the cache's (hits, misses) after one public call on the target
        call(target)
        assert memo.cache_info().currsize <= n
        return memo.cache_info()[:2]

    for t in targets:
        hits, misses = run(t)
    assert (hits, misses) == (0, 2 * n)
    for i, t in enumerate(targets[-n:], 1):  # the n most recently used are kept
        assert run(t) == (hits + i, misses)
    hits += n
    assert run(targets[-n]) == (hits + 1, misses)  # a hit makes it the most recently used
    assert run(targets[0]) == (hits + 1, misses + 1)  # the least recently used was evicted
    assert run(targets[-n]) == (hits + 2, misses + 1)  # so the one just hit stays
    monkeypatch.setattr(memo, "max_qubits", 1)  # wider results are not kept
    before = memo.cache_info()
    call(SQSCZ_CIRCUIT)
    assert memo.cache_info() == before


@pytest.mark.parametrize("name", list(MEMOS))
def test_memo_is_safe_under_threads(name):
    memo = MEMOS[name][0]
    targets = [Circuit(1, (ga("RX", 0, 0.2 * i),)) for i in range(2 * memo.cache_info().maxsize)]
    memo.cache_clear()
    expected = [memo(t, None).copy() for t in targets]
    errors = []

    def work(offset):
        try:
            for i in range(40):
                j = (i + offset) % len(targets)
                if not np.array_equal(memo(targets[j], None), expected[j]):
                    errors.append(f"target {j} changed")
        except Exception as exc:  # a corrupted cache surfaces as an exception
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert memo.cache_info().currsize <= memo.cache_info().maxsize


@pytest.mark.parametrize("num_qubits", [1, 2])
def test_qpt_ideal_choi_is_memoised_read_only_and_bit_identical(num_qubits):
    target = ORACLE_TARGETS[num_qubits]
    expected = choi_from_unitary(circuit_unitary(target)).matrix
    tomography._ideal_choi.cache_clear()
    cold = qpt(target, shots=300, seed=1)
    warm = qpt(target, shots=300, seed=1)
    assert tomography._ideal_choi.cache_info()[:2] == (1, 1)
    assert warm.ideal_choi.matrix is cold.ideal_choi.matrix  # one shared memo entry
    with pytest.raises(ValueError):
        warm.ideal_choi.matrix[0, 0] = 0.0
    tomography._ideal_choi.cache_clear()
    again = qpt(target, shots=300, seed=1)
    for res in (cold, warm, again):
        assert np.array_equal(res.ideal_choi.matrix, expected)
        assert res.report == cold.report and res.report_dict() == cold.report_dict()


def test_dataset_and_choi_matrix_compare_and_hash_by_identity():
    # generated == and hash would compare and hash their arrays, which raises
    pairs = [
        [execute_plan(build_plan(1, 16), Circuit(1), seed=2) for _ in range(2)],
        [ChoiMatrix(2, 2, np.eye(4)) for _ in range(2)],
    ]
    for a, b in pairs:
        assert a == a and a != b and hash(a) == hash(a)
        assert len({a, b}) == 2


def test_dataset_metadata_is_a_read_only_copy():
    ds = execute_plan(build_plan(1, 16), Circuit(1), seed=2)
    text = ds.to_json()
    with pytest.raises(TypeError):
        ds.metadata["seed"] = object()
    assert ds.to_json() == text  # to_json writes the metadata the dataset was built with
    assert TomographyDataset(ds.plan, ds.outcomes, ds.metadata).to_json() == text
    given = dict(ds.metadata)
    kept = TomographyDataset(ds.plan, ds.outcomes, given)
    given["seed"] = object()  # the caller's dict is not the dataset's
    assert kept.to_json() == text
    with pytest.raises(ValueError, match="metadata must be a JSON object"):
        TomographyDataset(ds.plan, ds.outcomes, [("seed", 2)])


def test_exact_dataset_writes_do_not_reach_the_memo(perth_noise):
    # the exact dataset shares the memoised array, and neither it nor the memo can be written
    plan = build_plan(2, shots=None)
    first = execute_plan(plan, SQSCZ_CIRCUIT, perth_noise)
    memo = tomography._probabilities(SQSCZ_CIRCUIT, perth_noise)
    assert first.frequencies is first.outcomes is memo
    for array in (first.frequencies, first.outcomes, memo):
        with pytest.raises(ValueError):
            array[0, 0, 0] = 1.0
    expected = memo.copy()
    again = execute_plan(plan, SQSCZ_CIRCUIT, perth_noise)
    assert np.array_equal(again.frequencies, expected)


def test_execute_plan_deterministic():
    plan = build_plan(2, shots=256)
    a = execute_plan(plan, SQSCZ_CIRCUIT, seed=12)
    b = execute_plan(plan, SQSCZ_CIRCUIT, seed=12)
    assert a.to_json() == b.to_json()
    c = execute_plan(plan, SQSCZ_CIRCUIT, seed=13)
    assert a.to_json() != c.to_json()


def test_dataset_roundtrip_sampled_and_exact(perth_noise):
    plan = build_plan(1, shots=128)
    target = Circuit(1, (ga("H", 0),))
    ds = execute_plan(plan, target, seed=3)
    back = TomographyDataset.from_dict(json.loads(ds.to_json()))
    assert back.to_json() == ds.to_json()
    exact = execute_plan(build_plan(1, None), target, seed=3)
    back = TomographyDataset.from_dict(json.loads(exact.to_json()))
    assert back.to_json() == exact.to_json()
    assert back.counts is None
    sparse = json.loads(ds.to_json())  # a hand-made record without its zero counts
    for job in sparse["jobs"]:
        job["counts"]["counts"] = {o: n for o, n in job["counts"]["counts"].items() if n}
    assert sparse != json.loads(ds.to_json())
    assert TomographyDataset.from_dict(sparse).to_json() == ds.to_json()  # zeros written out
    plan = build_plan(2, shots=256)
    for ds in (
        execute_plan(plan, SQSCZ_CIRCUIT, noise=perth_noise, seed=3),
        execute_plan(build_plan(2, None), SQSCZ_CIRCUIT, noise=perth_noise),
    ):
        d = json.loads(ds.to_json())
        back = TomographyDataset.from_dict(d)
        assert np.array_equal(back.frequencies, ds.frequencies)
        assert back.counts == ds.counts
        # job keys, not record order, place each row in the array
        d["jobs"].reverse()
        assert np.array_equal(TomographyDataset.from_dict(d).frequencies, ds.frequencies)


def test_dataset_requires_all_jobs():
    for shots, dtype in ((16, "int64"), (None, "float64")):
        with pytest.raises(ValueError, match=rf"outcomes must be {dtype} of shape \(4, 3, 2\)"):
            TomographyDataset(build_plan(1, shots), {}, {})


def test_dataset_frequencies_must_be_finite():
    # a hand-built exact dataset is checked as a loaded one is: each row is a probability vector
    ds = execute_plan(build_plan(1, shots=None), Circuit(1))
    for bad in (np.nan, np.inf, -np.inf, -0.25, 0.5):
        freqs = ds.frequencies.copy()
        freqs[0, 2, 0] = bad
        with pytest.raises(ValueError, match=r"job \('0', 'Z'\) frequencies .* not probabilities"):
            TomographyDataset(ds.plan, freqs, {})


def test_dataset_counts_must_cover_exactly_the_plan_jobs():
    # the outcomes are one int64 array with a row of counts per job, checked in one pass
    ds = execute_plan(build_plan(1, shots=16), Circuit(1), seed=2)
    fewer, more = ds.outcomes[1:], np.concatenate([ds.outcomes, ds.outcomes[:1]])
    other_types = ds.outcomes.astype(float), ds.outcomes.astype(np.uint64)
    for outcomes in (fewer, more, ds.outcomes[..., :1], *other_types):
        with pytest.raises(ValueError, match=r"outcomes must be int64 of shape \(4, 3, 2\)"):
            TomographyDataset(ds.plan, outcomes, {})

    def with_first_row(outcomes, row):
        t = outcomes.copy()
        t[0, 0] = row
        return t

    top = 2**63 - 1  # the last row below wraps an int64 sum past 2**64 back onto the 2**62 shots
    wide = execute_plan(build_plan(2, shots=2**62), Circuit(2), seed=2)
    for data, outcomes, message in (
        (ds, with_first_row(ds.outcomes, [20, -4]), "counts must be non-negative"),
        (ds, with_first_row(ds.outcomes, [16, 1]), "counts do not sum to the shot total 16"),
        (wide, with_first_row(wide.outcomes, [top, top, 2**62 + 2, 0]), f"shot total {2**62}"),
    ):
        with pytest.raises(ValueError, match=message):
            TomographyDataset(data.plan, outcomes, {})
    outcomes = ds.outcomes.copy()
    kept = TomographyDataset(ds.plan, outcomes, {}).outcomes
    assert kept.dtype == np.int64 and not kept.flags.writeable and np.array_equal(kept, outcomes)
    outcomes[0, 0] = [0, 16]  # the dataset keeps its own read-only copy
    assert not np.array_equal(kept, outcomes)
    with pytest.raises(ValueError):
        ds.outcomes[0, 0, 0] = 1


def test_dataset_has_counts_exactly_when_its_plan_has_shots():
    # the plan's shots choose the outcomes' dtype: counts with shots, probabilities without
    sampled = execute_plan(build_plan(1, shots=16), Circuit(1), seed=2)
    exact = execute_plan(build_plan(1, shots=None), Circuit(1))
    with pytest.raises(ValueError, match="outcomes must be float64 of shape .* not int64"):
        TomographyDataset(exact.plan, sampled.outcomes, {})
    with pytest.raises(ValueError, match="outcomes must be int64 of shape .* not float64"):
        TomographyDataset(sampled.plan, exact.outcomes, {})
    assert exact.counts is None and exact.frequencies is exact.outcomes
    assert exact.metadata["exact"] and not sampled.metadata["exact"]
    assert json.loads(exact.to_json())["shots"] is None
    assert exact.to_json().endswith('\n  "shots": null\n}')


def test_sampled_frequencies_are_derived_from_the_counts():
    # one array per dataset: frequencies far from the counts cannot be passed in beside them
    ds = execute_plan(build_plan(1, shots=16), Circuit(1, (ga("H", 0),)), seed=3)
    assert [f.name for f in dataclasses.fields(TomographyDataset)] == ["plan", "outcomes", "metadata"]
    assert np.array_equal(ds.frequencies, ds.outcomes / 16)
    assert ds.frequencies is ds.frequencies  # derived on first use, then kept
    for array in (ds.frequencies, ds.outcomes):
        with pytest.raises(ValueError):
            array[0, 0, 0] = 0.5
    with pytest.raises(TypeError):
        TomographyDataset(ds.plan, np.full(ds.outcomes.shape, 0.5), ds.outcomes, {})


def test_dataset_from_dict_reads_frequency_records_as_a_plan_without_shots():
    d = json.loads(execute_plan(build_plan(1, shots=None), Circuit(1, (ga("H", 0),))).to_json())
    want = TomographyDataset.from_dict(d)
    for shots in (4000, 16.9):  # exact records used to carry their plan's shot count
        d["shots"] = shots
        back = TomographyDataset.from_dict(d)
        assert back.plan.shots is None and back.counts is None
        assert np.array_equal(back.frequencies, want.frequencies)
    del d["shots"]
    assert TomographyDataset.from_dict(d).plan == build_plan(1, None)


def test_exact_mode_is_a_plan_without_shots():
    for f in (qpt, execute_plan):
        assert "exact" not in inspect.signature(f).parameters, f.__name__
    result = qpt(SQSCZ_CIRCUIT, shots=None)
    assert result.dataset.plan == build_plan(2, None) and result.dataset.counts is None
    assert np.array_equal(result.dataset.frequencies, tomography._probabilities(SQSCZ_CIRCUIT, None))


def test_dataset_from_dict_missing_job_is_value_error():
    d = json.loads(execute_plan(build_plan(1, shots=None), Circuit(1)).to_json())
    del d["jobs"][0]
    with pytest.raises(ValueError, match=r"missing 1 plan job\(s\), e.g. \('0', 'X'\)"):
        TomographyDataset.from_dict(d)


def test_dataset_from_dict_checks_a_wide_record_without_listing_its_plan():
    job = {"prep": "0" * 30, "setting": "X" * 30, "frequencies": [1.0] + [0.0] * 15}
    record = {"num_qubits": 30, "shots": None, "jobs": [job]}
    sw = Stopwatch(1.0)  # the 30-qubit plan has 12^30 jobs, far too many to list
    missing = rf"missing {12**30 - 1} plan job\(s\), e.g. \('0{{30}}', 'X{{29}}Y'\)"
    with pytest.raises(ValueError, match=missing):
        TomographyDataset.from_dict(record)
    record["jobs"] = [dict(job, prep="0", setting="X")]
    with pytest.raises(ValueError, match=r"job \('0', 'X'\) is not in the 30-qubit plan"):
        TomographyDataset.from_dict(record)
    sw.check()


def test_dataset_mixed_counts_and_frequencies_is_value_error():
    d = json.loads(execute_plan(build_plan(1, shots=64), Circuit(1, (ga("H", 0),)), seed=3).to_json())
    job = d["jobs"][4]
    job["frequencies"] = [c / 64 for _, c in sorted(job.pop("counts")["counts"].items())]
    key = (job["prep"], job["setting"])
    with pytest.raises(ValueError, match=rf"job \({key[0]!r}, {key[1]!r}\) has no counts"):
        TomographyDataset.from_dict(d)


def _as_frequency_record(values):
    """Edit making a sampled 1-qubit record a frequency record, job 2 set to ``values``."""

    def edit(d):
        for job in d["jobs"]:
            tab = job.pop("counts")
            job["frequencies"] = [tab["counts"][b] / tab["shots"] for b in ("0", "1")]
        d["jobs"][2]["frequencies"] = values

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: d["jobs"][2]["counts"].update(counts={"0": 20, "1": -4}), "non-negative"),
        (
            lambda d: d["jobs"][2]["counts"].update(counts={"0": 10, "zz": 6}),
            r"job \('0', 'Z'\) has counts for \['zz'\]",
        ),
        (lambda d: d.pop("num_qubits"), "malformed dataset record"),
        (lambda d: d.pop("jobs"), "malformed dataset record"),
        (lambda d: d["jobs"][0].pop("prep"), "malformed dataset record"),
        (lambda d: d["jobs"][0].pop("setting"), "malformed dataset record"),
        (_as_frequency_record([1.25, -0.25]), r"job \('0', 'Z'\) frequencies .* not probabilities"),
        (_as_frequency_record([0.5, 0.1]), r"job \('0', 'Z'\) frequencies .* not probabilities"),
        (
            lambda d: d["jobs"][2]["counts"].update(counts={"0": 8.7, "1": 8.6}),
            "not all whole numbers",
        ),
        (
            lambda d: d["jobs"][2]["counts"].update(counts={"0": float("inf"), "1": 0}),
            "not all whole numbers",
        ),
        (
            lambda d: d["jobs"][2]["counts"].update(counts={"0": float("nan"), "1": 16}),
            "not all whole numbers",
        ),
        (lambda d: d.update(shots=16.9), "shots must be a whole number, got 16.9"),
        (lambda d: d.update(num_qubits=True), "num_qubits must be a whole number, got True"),
        (lambda d: d.update(shots="16"), "shots must be a whole number, got '16'"),
        (
            lambda d: d["jobs"][2]["counts"].update(counts={"0": 16, "1": False}),
            "not all whole numbers",
        ),
        (
            lambda d: d["jobs"][2]["counts"].update(counts={"0": "16", "1": 0}),
            "not all whole numbers",
        ),
        (lambda d: d["jobs"][2]["counts"].update(shots=16.9), "shots must be a whole number"),
        (
            lambda d: d["jobs"][2].update(counts={"shots": 20, "counts": {"0": 20, "1": 0}}),
            r"job \('0', 'Z'\) has 20 shots, not the dataset's 16",
        ),
        (
            lambda d: d["jobs"].append(dict(d["jobs"][2])),
            r"job \('0', 'Z'\) has more than one record",
        ),
        (lambda d: d["jobs"][0].update(prep="q"), r"job \('q', 'X'\) is not in the 1-qubit plan"),
        (
            lambda d: d["jobs"][2]["counts"].update(counts=[16, 0]),
            r"counts \[16, 0\] are not a mapping",
        ),
        (lambda d: d["jobs"][2]["counts"].update(counts="0110"), r"counts '0110' are not a mapping"),
        (lambda d: d["jobs"][2]["counts"].update(counts=16), "counts 16 are not a mapping"),
        (
            lambda d: d["jobs"][2]["counts"].update(counts=[["0", 16], ["1", 0]]),
            r"counts \[\['0', 16\], \['1', 0\]\] are not a mapping",
        ),
        (
            _as_frequency_record([True, False]),
            r"job \('0', 'Z'\) frequencies \[True, False\] are not all numbers",
        ),
        (
            _as_frequency_record(["1", "0"]),
            r"job \('0', 'Z'\) frequencies \['1', '0'\] are not all numbers",
        ),
        (
            _as_frequency_record([[1], [0]]),
            r"job \('0', 'Z'\) has frequencies of shape \(2, 1\), expected 2",
        ),
        (
            lambda d: d.update(metadata=[["seed", 3]]),
            r"metadata must be a JSON object, got \[\['seed', 3\]\]",
        ),
        (lambda d: d.update(metadata=[]), r"metadata must be a JSON object, got \[\]"),
        (lambda d: d.update(metadata="ab"), "metadata must be a JSON object, got 'ab'"),
    ],
    ids=[
        "negative_count", "unknown_outcome", "no_num_qubits", "no_jobs", "no_prep", "no_setting",
        "frequency_below_zero", "frequencies_sum_below_one", "fractional_count", "infinite_count",
        "nan_count", "fractional_shots", "boolean_num_qubits", "string_shots", "boolean_count",
        "string_count", "fractional_job_shots", "job_shots_mismatch",
        "duplicate_job", "job_not_in_plan", "counts_not_a_mapping", "counts_a_string", "counts_a_number",
        "counts_a_list_of_pairs", "frequency_a_boolean", "frequency_a_string", "frequencies_nested",
        "metadata_a_list_of_pairs", "metadata_an_empty_list", "metadata_a_string",
    ],
)
def test_dataset_from_dict_rejects_impossible_records(edit, message):
    d = json.loads(execute_plan(build_plan(1, shots=16), Circuit(1, (ga("H", 0),)), seed=3).to_json())
    edit(d)
    with pytest.raises(ValueError, match=message):
        TomographyDataset.from_dict(d)


@pytest.mark.parametrize(
    "shots, metadata, message",
    [
        (16, {"seed": 1.5}, "metadata seed must be a whole number, got 1.5"),
        (16, {"seed": -1}, "metadata seed must be a whole number >= 0, got -1"),
        (16, {"seed": "3"}, "metadata seed must be a whole number, got '3'"),
        (16, {"seed": True}, "metadata seed must be a whole number, got True"),
        (16, {"noise": 3}, "metadata noise must be a string or null, got 3"),
        (16, {"noise": ["tab1"]}, r"metadata noise must be a string or null, got \['tab1'\]"),
        (16, {"exact": True}, "metadata exact must be False when shots=16, got True"),
        (None, {"exact": False}, "metadata exact must be True when shots=None, got False"),
        (None, {"exact": 1}, "metadata exact must be True when shots=None, got 1"),
        (None, {"exact": None}, "metadata exact must be True when shots=None, got None"),
    ],
    ids=[
        "seed_fractional", "seed_negative", "seed_a_string", "seed_a_boolean", "noise_a_number",
        "noise_a_list", "exact_on_a_sampled_plan", "not_exact_on_an_exact_plan", "exact_a_number",
        "exact_null",
    ],
)
def test_dataset_rejects_metadata_that_contradicts_it(shots, metadata, message):
    ds = execute_plan(build_plan(1, shots), Circuit(1, (ga("H", 0),)), seed=3)
    with pytest.raises(ValueError, match=message):
        TomographyDataset(ds.plan, ds.outcomes, {**ds.metadata, **metadata})
    d = json.loads(ds.to_json())
    d["metadata"].update(metadata)
    with pytest.raises(ValueError, match=message):
        TomographyDataset.from_dict(d)


def test_dataset_metadata_fields_may_be_null_or_absent():
    ds = execute_plan(build_plan(1, 16), Circuit(1), seed=2)
    for metadata in ({}, {"seed": None, "noise": None}, {"seed": 0, "noise": "tab1", "exact": False},
                     {"seed": 2.0, "other": [1, {"x": None}]}):
        assert TomographyDataset(ds.plan, ds.outcomes, metadata).metadata == metadata


def test_exact_mode_rejects_non_stochastic_confusion():
    # the model checks its confusion matrices when it is built, so no plan runs on them
    negative = [[1.5, -0.5], [-0.5, 1.5]]  # columns sum to 1, but entries leave [0, 1]
    for bad in ([[0.9, 0.2], [0.2, 0.8]], np.eye(3), [[np.nan, 0.0], [0.0, 1.0]], negative):
        with pytest.raises(ValueError, match="confusion matrix for qubit 0 is not column-stochastic"):
            model = NoiseModel(gate_noise={}, readout_confusion={0: bad, 1: bad})
            execute_plan(build_plan(2, shots=None), SQSCZ_CIRCUIT, noise=model)


def test_dataset_rejects_bad_frequency_length():
    d = json.loads(execute_plan(build_plan(2, shots=None), SQSCZ_CIRCUIT).to_json())
    d["jobs"][5]["frequencies"] = d["jobs"][5]["frequencies"][:3]
    job = (d["jobs"][5]["prep"], d["jobs"][5]["setting"])
    with pytest.raises(ValueError, match=rf"job \({job[0]!r}, {job[1]!r}\) has 3 frequencies"):
        TomographyDataset.from_dict(d)


def test_linear_inversion_recovers_exact_choi():
    for circuit in (SQSCZ_CIRCUIT, Circuit(2)):
        plan = build_plan(2, shots=None)
        ds = execute_plan(plan, circuit)
        est = linear_inversion(ds)
        truth = choi_from_unitary(circuit_unitary(circuit))
        assert frobenius(est.matrix - truth.matrix) < 1e-9


def test_linear_inversion_sampled_is_hermitian():
    plan = build_plan(2, shots=300)
    ds = execute_plan(plan, SQSCZ_CIRCUIT, seed=21)
    est = linear_inversion(ds)
    assert np.abs(est.matrix - est.matrix.conj().T).max() < 1e-12


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_tp_step_matches_kron_oracle(num_qubits):
    d = 2**num_qubits
    m = random_hermitian(np.random.default_rng(num_qubits), d * d)
    want = m + np.kron((np.eye(d) - output_trace(m, d)) / d, np.eye(d))
    got = tp_step(m, d)
    assert np.abs(got - want).max() <= 1e-15
    assert np.abs(output_trace(got, d) - np.eye(d)).max() <= 1e-12


def test_project_cptp_fixed_point():
    c = choi_from_unitary(gate_unitary("SQSCZ"))
    res = project_cptp(c, tol=1e-12)
    assert res.converged
    assert frobenius(res.choi.matrix - c.matrix) < 1e-9


def test_project_cptp_restores_physicality():
    c = choi_from_unitary(gate_unitary("SQSCZ"))
    perturbed = c.matrix - 0.02 * np.eye(16)
    perturbed += (4 - np.trace(perturbed)) / 16 * np.eye(16)  # keep trace d
    res = project_cptp(ChoiMatrix(4, 4, perturbed), tol=1e-10)
    rep = is_cptp(res.choi)
    assert res.converged
    assert rep.min_eig >= -1e-9
    assert rep.tp_dev < 1e-8


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
@pytest.mark.parametrize("raw", [0.02, 0.1, 1, 5, "zero", "minus_identity"])
def test_project_cptp_matches_dykstra_oracle(num_qubits, raw):
    d = 2**num_qubits
    if raw == "zero":
        m = np.zeros((d * d, d * d))
    elif raw == "minus_identity":
        m = -np.eye(d * d)
    else:
        m = random_hermitian(np.random.default_rng([num_qubits, int(100 * raw)]), d * d, raw)
    res = project_cptp(ChoiMatrix(d, d, m))
    assert res.converged
    assert res.iterations <= 15
    assert res.delta < CPTP_TOL
    assert frobenius(res.choi.matrix - dykstra_cptp(m, d, tol=1e-13)) < 1e-8
    rep = is_cptp(res.choi)
    assert rep.min_eig >= -1e-12
    assert rep.tp_dev < 1e-9


def _assert_projection_matches_oracle(raw: ChoiMatrix):
    res = project_cptp(raw)
    choi, iterations, delta, distance, raw_min_eig = oracle_project_cptp(raw.matrix, raw.dim_in)
    assert res.choi.matrix.tobytes() == choi.tobytes()
    assert (res.iterations, res.delta, res.distance, res.raw_min_eig) == (
        iterations, delta, distance, raw_min_eig
    )


@pytest.mark.parametrize("d", [2, 4, 8])
@pytest.mark.parametrize("scale", [0.05, 1.0, 30.0])
def test_project_cptp_bit_equals_kron_oracle_on_random_raw(d, scale):
    rng = np.random.default_rng([d, int(100 * scale)])
    m = random_hermitian(rng, d * d, scale) + 1j * scale * rng.normal(size=(d * d, d * d))
    _assert_projection_matches_oracle(ChoiMatrix(d, d, m))


@pytest.mark.parametrize("num_qubits", [2, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_project_cptp_bit_equals_kron_oracle_on_noisy_estimates(tab1_path, num_qubits, seed):
    noise = noise_model_from_calibration(parse_calibration(tab1_path), num_qubits=num_qubits)
    target = Circuit(num_qubits, (ga("SQSCZ", (0, 1)),) + (ga("H", 2),) * (num_qubits - 2))
    ds = execute_plan(build_plan(num_qubits, shots=4000), target, noise=noise, seed=seed)
    _assert_projection_matches_oracle(linear_inversion(ds))


@pytest.mark.parametrize("d", [2, 4])
def test_newton_step_block_omega_bit_equals_masked_oracle(d):
    # Omega's blocks, read off eigh's ascending order, against the oracle's masked divide over the
    # whole grid; spectra hold +0.0 and -0.0 entries, and some are all positive or all non-positive
    rng = np.random.default_rng([d, 23])
    for _ in range(200):
        w = rng.normal(size=d * d) + rng.choice([-10.0, -1.0, 0.0, 1.0, 10.0])
        w[rng.random(d * d) < 0.3] = rng.choice([0.0, -0.0])
        w.sort()
        g = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        v, grad = np.linalg.qr(g)[0], random_hermitian(rng, d)
        given = grad.copy()
        step = tomography._newton_step(grad, w, v, 1e-4, 1e-12)
        assert grad.tobytes() == given.tobytes()  # the in-place CG updates leave grad alone
        assert step.tobytes() == oracle_newton_step(grad, w, v, 1e-4, 1e-12).tobytes()


def test_project_cptp_takes_one_eigh_per_dual_point(perth_noise, monkeypatch):
    raw = linear_inversion(execute_plan(build_plan(2, shots=4000), SQSCZ_CIRCUIT, perth_noise))
    shapes, eigh = [], np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    res = project_cptp(raw)
    # the start and one accepted trial per Newton step: this estimate never backtracks
    assert res.iterations >= 2 and shapes == [(16, 16)] * (res.iterations + 1)


def test_project_cptp_finds_raw_min_eig_on_first_use(perth_noise, monkeypatch):
    raw = linear_inversion(execute_plan(build_plan(2, shots=4000), SQSCZ_CIRCUIT, perth_noise))
    eigvalsh, calls = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    res = project_cptp(raw)
    assert calls == []  # the projection itself needs no spectrum of R
    r = 0.5 * (raw.matrix + raw.matrix.conj().T)
    assert res.raw_min_eig == eigvalsh(r)[0] and res.raw_min_eig == res.raw_min_eig
    assert len(calls) == 1 and calls[0] is res.raw_hermitian


def test_project_cptp_diagnostics_exact_estimate():
    proj = qpt(SQSCZ_CIRCUIT, shots=None).projection
    assert proj.distance < 1e-10
    assert proj.raw_min_eig > -1e-10


@pytest.mark.parametrize("num_qubits", [1, 2])
@pytest.mark.parametrize("scale", [0.05, 1.0])
def test_project_cptp_diagnostics_bound_distance(num_qubits, scale):
    d = 2**num_qubits
    m = random_hermitian(np.random.default_rng([num_qubits, int(100 * scale), 7]), d * d, scale)
    m = m + 1j * scale * np.random.default_rng(1).normal(size=m.shape)  # a non-Hermitian part
    res = project_cptp(ChoiMatrix(d, d, m))
    r = 0.5 * (m + m.conj().T)
    assert res.raw_min_eig == np.linalg.eigvalsh(r)[0] < 0
    assert res.distance == pytest.approx(frobenius(res.choi.matrix - r), rel=1e-12)
    # no PSD matrix is nearer R than its negative eigenvalue
    assert res.distance >= -res.raw_min_eig - 1e-12


def test_project_cptp_backtracks_far_from_cptp():
    # full Newton steps overshoot this far out: without backtracking it takes 58 steps
    m = random_hermitian(np.random.default_rng([2, 100, 0]), 16, 100)
    res = project_cptp(ChoiMatrix(4, 4, m))
    assert res.converged
    assert res.iterations <= 15
    rep = is_cptp(res.choi)
    assert rep.min_eig >= -1e-12
    assert rep.tp_dev < 1e-9


@pytest.mark.parametrize(
    "choi, kwargs, message",
    [
        (functools.partial(ChoiMatrix, 2, 4, np.eye(8)), {}, "dim_in == dim_out, got 2 and 4"),
        (functools.partial(ChoiMatrix, 2, 2, np.eye(4)), {"max_iter": 0}, "max_iter must be at least 1"),
        (functools.partial(ChoiMatrix, 2, 2, np.eye(4)), {"tol": 0.0}, "tol must be positive"),
        (functools.partial(ChoiMatrix, 2, 2, np.eye(4)), {"tol": -1e-10}, "tol must be positive"),
        (functools.partial(ChoiMatrix, 2, 2, np.eye(4)), {"tol": float("nan")}, "tol must be positive"),
    ],
)
def test_project_cptp_rejects_bad_arguments(choi, kwargs, message):
    # the Choi matrix is built inside the check: a rectangular one is rejected by ChoiMatrix itself
    with pytest.raises(ValueError, match=message):
        project_cptp(choi(), **kwargs)


def test_project_cptp_flags_nonconvergence():
    rng = np.random.default_rng(8)
    noisy = ChoiMatrix(4, 4, choi_from_unitary(gate_unitary("SQSCZ")).matrix
                       + random_hermitian(rng, 16, scale=0.05))
    res = project_cptp(noisy, tol=1e-14, max_iter=2)
    assert not res.converged
    assert res.iterations == 2


def test_qpt_exact_self_consistency():
    result = qpt(SQSCZ_CIRCUIT, shots=None)
    assert result.report.process_fidelity >= 1 - 1e-9
    assert result.converged


def test_qpt_exact_three_qubits():
    sw = Stopwatch(30.0)
    target = Circuit(3, (ga("SQSCZ", (0, 1)), ga("H", 2)))
    result = qpt(target, shots=None)
    assert result.report.process_fidelity >= 1 - 1e-9
    sw.check()


def test_qpt_carries_projection_diagnostics():
    result = qpt(SQSCZ_CIRCUIT, shots=500, seed=2)
    assert result.projection is not None
    assert result.projection.iterations >= 1
    assert result.projection.converged == result.converged
    assert result.projection.choi is result.choi
    assert "projection" not in json.dumps(result.report_dict(shots=500, seed=2))


def test_report_dict_rejects_shots_that_are_not_the_plans():
    sampled, exact = qpt(SQSCZ_CIRCUIT, shots=500, seed=2), qpt(SQSCZ_CIRCUIT, shots=None)
    assert sampled.report_dict(shots=500, seed=2) == sampled.report_dict()
    assert sampled.report_dict()["shots"] == 500 and "shots" not in exact.report_dict()
    for result, shots in ((sampled, 499), (sampled, 4000), (exact, 500)):
        with pytest.raises(ValueError, match=f"shots {shots} are not the plan's"):
            result.report_dict(shots=shots)


def test_report_dict_rejects_a_seed_that_is_not_the_datasets():
    result = qpt(SQSCZ_CIRCUIT, shots=500, seed=2)
    for seed in (0, 3):
        with pytest.raises(ValueError, match=f"seed {seed} is not the dataset's 2"):
            result.report_dict(seed=seed)
    unseeded = TomographyDataset(result.dataset.plan, result.dataset.outcomes, {"seed": None})
    unrecorded = dataclasses.replace(result, dataset=unseeded)
    assert "seed" not in unrecorded.report_dict()
    with pytest.raises(ValueError, match="seed 2 is not the dataset's None"):
        unrecorded.report_dict(seed=2)


def test_report_dict_reads_every_run_key_from_the_result():
    calib = parse_calibration(data_path("ibm_perth_tab1.json"))
    noise = noise_model_from_calibration(calib, 2, label="tab1")
    no_cptp, cptp = ReconstructionOptions(method="linear_inversion"), "linear_inversion_then_cptp"
    for result, keys in (
        (qpt(SQSCZ_CIRCUIT, shots=None, seed=4), (None, True, None, 4, cptp)),
        (qpt(SQSCZ_CIRCUIT, noise, shots=300, seed=1), (300, False, "tab1", 1, cptp)),
        (qpt(SQSCZ_CIRCUIT, shots=300, options=no_cptp), (300, False, None, 0, "linear_inversion")),
    ):
        report = result.report_dict()
        assert tuple(report.get(k) for k in ("shots", "exact", "noise", "seed", "method")) == keys
    # a projected result built without its ProjectionResult still reports the projection
    r = qpt(SQSCZ_CIRCUIT, shots=300)
    bare = tomography.QptResult(r.choi, r.raw_choi, r.ideal_choi, r.report, r.dataset, r.converged)
    assert bare.report_dict() == r.report_dict()


def test_report_dict_takes_shots_and_seed_only_as_whole_numbers():
    result = qpt(Circuit(1, (ga("H", 0),)), shots=1, seed=0)
    for kwargs, message in (
        ({"shots": True}, "shots must be a whole number, got True"),
        ({"shots": 1.5}, "shots must be a whole number, got 1.5"),
        ({"seed": False}, "seed must be a whole number, got False"),
        ({"seed": "3"}, "seed must be a whole number, got '3'"),
        ({"seed": -3}, "seed -3 is not the dataset's 0"),
    ):
        with pytest.raises(ValueError, match=message):
            result.report_dict(**kwargs)
    report = result.report_dict(shots=1.0, seed=0.0)  # written as the ints they are
    assert (report["shots"], report["seed"]) == (1, 0)
    assert type(report["shots"]) is int and type(report["seed"]) is int
    # a hand-written dataset may record its seed as 3.0; report.json writes 3, as qpt run does
    floated = TomographyDataset(result.dataset.plan, result.dataset.outcomes, {"seed": 3.0})
    report = dataclasses.replace(result, dataset=floated).report_dict(seed=3)
    assert report["seed"] == 3 and type(report["seed"]) is int


def test_qpt_no_cptp_option():
    opts = ReconstructionOptions(method="linear_inversion")
    result = qpt(SQSCZ_CIRCUIT, shots=500, seed=2, options=opts)
    assert np.abs(result.choi.matrix - result.raw_choi.matrix).max() == 0
    assert result.projection is None
    with pytest.raises(ValueError):
        ReconstructionOptions(method="banana")


def test_qpt_fidelity_monotone_in_depolarizing_strength():
    fids = []
    for p in (0.02, 0.1, 0.3):
        model = NoiseModel(
            gate_noise={("CNOT", (0, 1)): depolarizing_kraus(p, 2)},
            readout_confusion={0: np.eye(2), 1: np.eye(2)},
            label=f"depol-{p}",
        )
        res = qpt(Circuit(2, (ga("CNOT", (0, 1)),)), noise=model, shots=None)
        fids.append(res.report.process_fidelity)
    assert fids[0] > fids[1] > fids[2]


def test_reconstruction_error_shrinks_with_more_shots():
    plan = build_plan(2, shots=1)
    exact = execute_plan(build_plan(2, None), SQSCZ_CIRCUIT)
    truth = choi_from_unitary(circuit_unitary(SQSCZ_CIRCUIT)).matrix
    plan_probs = exact.frequencies.reshape(plan.num_jobs, -1)

    def reconstruct(shots, seed):
        plan_s = build_plan(2, shots=shots)
        rows = [
            list(sample_counts(row, shots, np.random.SeedSequence((seed, idx))).counts.values())
            for idx, row in enumerate(plan_probs)
        ]
        ds = TomographyDataset(plan_s, np.reshape(rows, exact.frequencies.shape).astype(np.int64), {})
        return linear_inversion(ds).matrix

    wins = 0
    trials = 100
    for seed in range(trials):
        few = frobenius(reconstruct(1_000, seed) - truth)
        many = frobenius(reconstruct(1_000_000, 10_000 + seed) - truth)
        wins += many < few
    assert wins >= 95


@functools.cache
def _tab1_noise(num_qubits: int):
    path = data_path("ibm_perth_tab1.json")
    return noise_model_from_calibration(parse_calibration(path), num_qubits=num_qubits)


_TARGETS = {
    1: Circuit(1, (ga("H", 0),)),
    2: SQSCZ_CIRCUIT,
    3: Circuit(3, (ga("SQSCZ", (0, 1)), ga("H", 2))),
}


@pytest.mark.parametrize("num_qubits", [1, 2, 3])
@pytest.mark.parametrize("mode", ["exact", "clean", "tab1"])
def test_report_tp_deviation_is_the_projections_stopping_residual(num_qubits, mode):
    noise = _tab1_noise(num_qubits) if mode == "tab1" else None
    shots = {"exact": None, "clean": 11000, "tab1": 4000}[mode]
    result = qpt(_TARGETS[num_qubits], noise=noise, shots=shots, seed=num_qubits)
    assert result.report.tp_deviation == result.projection.delta


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=20, deadline=None)
@given(
    num_qubits=st.integers(1, 3),
    mode=st.sampled_from(["exact", "exact_noisy", "clean", "noisy", "sparse"]),
    seed=st.integers(0, 2**32 - 1),
    # any JSON value under any key but the three that the dataset checks against its plan
    metadata=st.dictionaries(
        st.text().filter(lambda key: key not in ("seed", "noise", "exact")), _JSON_VALUES, min_size=1, max_size=4
    ),
)
def test_dataset_to_json_matches_oracle(num_qubits, mode, seed, metadata):
    noise = _tab1_noise(num_qubits) if mode in ("exact_noisy", "noisy") else None
    shots = None if mode.startswith("exact") else 3 if mode == "sparse" else 200
    plan = build_plan(num_qubits, shots)
    ds = execute_plan(plan, _TARGETS[num_qubits], noise, seed)
    assert ds.to_json() == oracle_dataset_json(ds)
    if mode == "sparse":  # a loaded record may leave out zero counts: it is written back with them
        d = json.loads(ds.to_json())
        for job in d["jobs"]:
            job["counts"]["counts"] = {o: n for o, n in job["counts"]["counts"].items() if n}
        back = TomographyDataset.from_dict(d)
        assert np.array_equal(back.outcomes, ds.outcomes) and back.to_json() == ds.to_json()
        ds = back
    ds = dataclasses.replace(ds, metadata=metadata)
    assert ds.to_json() == oracle_dataset_json(ds)
