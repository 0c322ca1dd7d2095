import json

import numpy as np
import pytest

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
    depolarizing_kraus,
    noise_model_from_calibration,
    parse_calibration,
)
from choiqpt.simulator import _unitary_superop, measure_probabilities, sample_counts, simulate
from choiqpt.tomography import (
    ReconstructionOptions,
    TomographyDataset,
    TomographyPlan,
    build_plan,
    execute_plan,
    linear_inversion,
    measurement_circuit,
    outcome_projector,
    prep_circuit,
    prep_density,
    project_cptp,
    qpt,
)
from conftest import (
    Stopwatch,
    oracle_job_frequencies,
    random_density,
    random_hermitian,
    random_kraus_ops,
)

SQSCZ_CIRCUIT = Circuit(2, (ga("SQSCZ", (0, 1)),))


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
        rho_t = prep_density(prep).T
        for setting in plan.settings:
            for outcome in range(d):
                op = np.kron(rho_t, outcome_projector(setting, outcome))
                rows.append(op.T.reshape(-1))  # vec(op^T) . vec(B) = Tr(op B)
    return (np.stack(rows) @ vb.T).real, bstack


def dense_inversion(dataset: TomographyDataset) -> np.ndarray:
    """Oracle: least-squares Choi estimate from the dense design matrix."""
    a, bstack = dense_design(dataset.plan)
    f = np.concatenate([dataset.frequencies[key] for key in dataset.plan.jobs()])
    x = np.linalg.lstsq(a, f, rcond=None)[0]
    return np.tensordot(x, bstack, axes=1)


def channel_dataset(choi: ChoiMatrix, plan: TomographyPlan, seed: int | None) -> TomographyDataset:
    """Exact (``seed=None``) or sampled frequencies of a channel given by its Choi matrix."""
    d = 2**plan.num_qubits
    freqs, counts = {}, None if seed is None else {}
    for idx, (prep, setting) in enumerate(plan.jobs()):
        probs = np.array([
            outcome_probability(choi, prep_density(prep), outcome_projector(setting, b))
            for b in range(d)
        ])
        if seed is None:
            freqs[(prep, setting)] = probs
        else:
            tab = sample_counts(probs, plan.shots, np.random.SeedSequence((seed, idx)))
            counts[(prep, setting)] = tab
            freqs[(prep, setting)] = tab.as_vector(plan.num_qubits) / plan.shots
    return TomographyDataset(plan, freqs, counts, {})


def test_plan_sizes():
    plan1 = build_plan(1, shots=100)
    assert plan1.num_jobs == 12
    plan2 = build_plan(2, shots=100)
    assert plan2.num_jobs == 144
    assert len(plan2.preparations) == 16 and len(plan2.settings) == 9
    with pytest.raises(ValueError):
        build_plan(0)


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


def test_prep_circuits_match_closed_forms():
    for label in build_plan(2, 1).preparations:
        psi = np.kron(KETS[label[0]], KETS[label[1]])
        rho = np.outer(psi, psi.conj())
        assert np.abs(prep_density(label) - rho).max() < 1e-12, label
        assert np.abs(simulate(prep_circuit(label)) - rho).max() < 1e-12, label
    # the +i token is the +1 eigenstate of Y
    assert np.trace(PAULIS["Y"] @ prep_density("i")).real == pytest.approx(1.0, abs=1e-12)


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
            bits = (b >> 1, b & 1)
            want = np.kron(*[(np.eye(2) + (-1) ** k * PAULIS[p]) / 2 for p, k in zip(setting, bits)])
            assert np.abs(outcome_projector(setting, b) - want).max() < 1e-12, (setting, b)
            prob = measure_probabilities(rho, setting)[b]
            assert abs(prob - np.trace(want @ rho).real) < 1e-12, (setting, b)


def test_outcome_projectors_resolve_identity():
    for setting in ("XY", "ZZ", "YX"):
        total = sum(outcome_projector(setting, b) for b in range(4))
        assert np.abs(total - np.eye(4)).max() < 1e-12


def test_measurement_circuit_diagonalizes_setting():
    # rotating by the measurement circuit then reading Z equals projecting
    # onto the setting's projectors
    rho = random_density(np.random.default_rng(3), 4)
    for setting in ("XZ", "YY"):
        circ = measurement_circuit(setting, 2)
        rotated = simulate(circ, initial=rho)
        probs = np.real(np.diag(rotated))
        expected = [np.trace(outcome_projector(setting, b) @ rho).real for b in range(4)]
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
}


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("num_qubits", [1, 2, 3])
def test_execute_plan_matches_composed_circuit_oracle(num_qubits, noisy, tab1_path):
    target = ORACLE_TARGETS[num_qubits]
    noise = None
    if noisy:
        noise = noise_model_from_calibration(parse_calibration(tab1_path), num_qubits=num_qubits)
    plan = build_plan(num_qubits)
    data = execute_plan(plan, target, noise=noise, exact=True)
    jobs = range(plan.num_jobs)
    if num_qubits == 3:  # the oracle needs over a minute for all 1,728 noisy jobs
        jobs = np.random.default_rng(3).choice(plan.num_jobs, size=48, replace=False)
    for key, want in oracle_job_frequencies(plan, target, noise, jobs).items():
        assert np.abs(data.frequencies[key] - want).max() <= 1e-12, key


def test_superop_caches_stay_small(tab1_path):
    noise = noise_model_from_calibration(parse_calibration(tab1_path), num_qubits=2)
    _unitary_superop.cache_clear()
    qpt(SQSCZ_CIRCUIT, noise=noise, shots=1000, seed=0)
    plan = build_plan(2)
    applications = {
        (g.name, g.qubits, g.params)
        for prep, setting in plan.jobs()
        for g in to_native(
            prep_circuit(prep, 2).extended(SQSCZ_CIRCUIT, measurement_circuit(setting, 2))
        ).gates
    }
    clean_entries = _unitary_superop.cache_info().currsize
    assert len(noise._superops) + clean_entries <= len(applications)
    # noiseless gates act on at most 2 wires: 16 x 16 complex entries each
    noisy_bytes = sum(entry[-1].nbytes for entry in noise._superops.values())
    assert noisy_bytes + clean_entries * 16 * 16 * 16 < 1_000_000


def test_execute_plan_deterministic():
    plan = build_plan(2, shots=256)
    a = execute_plan(plan, SQSCZ_CIRCUIT, seed=12)
    b = execute_plan(plan, SQSCZ_CIRCUIT, seed=12)
    assert a.to_json() == b.to_json()
    c = execute_plan(plan, SQSCZ_CIRCUIT, seed=13)
    assert a.to_json() != c.to_json()


def test_dataset_roundtrip_sampled_and_exact():
    plan = build_plan(1, shots=128)
    target = Circuit(1, (ga("H", 0),))
    ds = execute_plan(plan, target, seed=3)
    back = TomographyDataset.from_dict(json.loads(ds.to_json()))
    assert back.to_json() == ds.to_json()
    exact = execute_plan(plan, target, seed=3, exact=True)
    back = TomographyDataset.from_dict(json.loads(exact.to_json()))
    assert back.to_json() == exact.to_json()
    assert back.counts is None


def test_dataset_requires_all_jobs():
    plan = build_plan(1, shots=16)
    with pytest.raises(ValueError):
        TomographyDataset(plan, {}, None, {})


def test_dataset_from_dict_missing_job_is_value_error():
    d = execute_plan(build_plan(1, shots=1), Circuit(1), exact=True).to_dict()
    del d["jobs"][0]
    with pytest.raises(ValueError, match=r"missing 1 plan job\(s\), e.g. \('0', 'X'\)"):
        TomographyDataset.from_dict(d)


def test_dataset_mixed_counts_and_frequencies_is_value_error():
    d = execute_plan(build_plan(1, shots=64), Circuit(1, (ga("H", 0),)), seed=3).to_dict()
    job = d["jobs"][4]
    job["frequencies"] = [c / 64 for _, c in sorted(job.pop("counts")["counts"].items())]
    key = (job["prep"], job["setting"])
    with pytest.raises(ValueError, match=rf"job \({key[0]!r}, {key[1]!r}\) has no counts"):
        TomographyDataset.from_dict(d)


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
    ],
    ids=["negative_count", "unknown_outcome", "no_num_qubits", "no_jobs", "no_prep", "no_setting"],
)
def test_dataset_from_dict_rejects_impossible_records(edit, message):
    d = execute_plan(build_plan(1, shots=16), Circuit(1, (ga("H", 0),)), seed=3).to_dict()
    edit(d)
    with pytest.raises(ValueError, match=message):
        TomographyDataset.from_dict(d)


def test_exact_mode_rejects_non_stochastic_confusion():
    bad = np.array([[0.9, 0.2], [0.2, 0.8]])
    model = NoiseModel(gate_noise={}, readout_confusion={0: bad, 1: bad}, gate_durations={})
    with pytest.raises(ValueError, match="confusion matrix for qubit 0 is not column-stochastic"):
        execute_plan(build_plan(2, shots=1), SQSCZ_CIRCUIT, noise=model, exact=True)


def test_dataset_rejects_bad_frequency_length():
    d = execute_plan(build_plan(2, shots=1), SQSCZ_CIRCUIT, exact=True).to_dict()
    d["jobs"][5]["frequencies"] = d["jobs"][5]["frequencies"][:3]
    job = (d["jobs"][5]["prep"], d["jobs"][5]["setting"])
    with pytest.raises(ValueError, match=rf"job \({job[0]!r}, {job[1]!r}\) has 3 frequencies"):
        TomographyDataset.from_dict(d)


def test_linear_inversion_recovers_exact_choi():
    for circuit in (SQSCZ_CIRCUIT, Circuit(2)):
        plan = build_plan(2, shots=1)
        ds = execute_plan(plan, circuit, exact=True)
        est = linear_inversion(ds)
        truth = choi_from_unitary(circuit_unitary(circuit))
        assert frobenius(est.matrix - truth.matrix) < 1e-9


def test_linear_inversion_sampled_is_hermitian():
    plan = build_plan(2, shots=300)
    ds = execute_plan(plan, SQSCZ_CIRCUIT, seed=21)
    est = linear_inversion(ds)
    assert np.abs(est.matrix - est.matrix.conj().T).max() < 1e-12


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


def test_project_cptp_flags_nonconvergence():
    rng = np.random.default_rng(8)
    noisy = ChoiMatrix(4, 4, choi_from_unitary(gate_unitary("SQSCZ")).matrix
                       + random_hermitian(rng, 16, scale=0.05))
    res = project_cptp(noisy, tol=1e-14, max_iter=2)
    assert not res.converged
    assert res.iterations == 2


def test_qpt_exact_self_consistency():
    result = qpt(SQSCZ_CIRCUIT, exact=True)
    assert result.report.process_fidelity >= 1 - 1e-9
    assert result.converged


def test_qpt_exact_three_qubits():
    sw = Stopwatch(30.0)
    target = Circuit(3, (ga("SQSCZ", (0, 1)), ga("H", 2)))
    result = qpt(target, exact=True)
    assert result.report.process_fidelity >= 1 - 1e-9
    sw.check()


def test_qpt_no_cptp_option():
    opts = ReconstructionOptions(method="linear_inversion")
    result = qpt(SQSCZ_CIRCUIT, shots=500, seed=2, options=opts)
    assert np.abs(result.choi.matrix - result.raw_choi.matrix).max() == 0
    with pytest.raises(ValueError):
        ReconstructionOptions(method="banana")


def test_qpt_fidelity_monotone_in_depolarizing_strength():
    fids = []
    for p in (0.02, 0.1, 0.3):
        model = NoiseModel(
            gate_noise={("CNOT", (0, 1)): depolarizing_kraus(p, 2)},
            readout_confusion={0: np.eye(2), 1: np.eye(2)},
            gate_durations={},
            label=f"depol-{p}",
        )
        res = qpt(Circuit(2, (ga("CNOT", (0, 1)),)), noise=model, exact=True)
        fids.append(res.report.process_fidelity)
    assert fids[0] > fids[1] > fids[2]


def test_reconstruction_error_shrinks_with_more_shots():
    plan_probs = {}
    plan = build_plan(2, shots=1)
    exact = execute_plan(plan, SQSCZ_CIRCUIT, exact=True)
    truth = choi_from_unitary(circuit_unitary(SQSCZ_CIRCUIT)).matrix
    for key in plan.jobs():
        plan_probs[key] = exact.frequencies[key]

    def reconstruct(shots, seed):
        plan_s = build_plan(2, shots=shots)
        freqs = {}
        counts = {}
        for idx, key in enumerate(plan_s.jobs()):
            tab = sample_counts(plan_probs[key], shots, np.random.SeedSequence((seed, idx)))
            counts[key] = tab
            freqs[key] = tab.as_vector(2) / shots
        ds = TomographyDataset(plan_s, freqs, counts, {})
        return linear_inversion(ds).matrix

    wins = 0
    trials = 100
    for seed in range(trials):
        few = frobenius(reconstruct(1_000, seed) - truth)
        many = frobenius(reconstruct(1_000_000, 10_000 + seed) - truth)
        wins += many < few
    assert wins >= 95
