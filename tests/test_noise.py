import collections
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from choiqpt import channels, noise, simulator, tomography
from choiqpt.channels import KrausSet, choi_from_unitary, is_cptp, kraus_superop, kraus_to_choi
from choiqpt.gates import PAULI_X, Circuit, ga
from choiqpt.metrics import process_fidelity
from choiqpt.noise import (
    MEDIAN_CNOT_ERROR,
    CnotCalibration,
    DeviceCalibration,
    NoiseModel,
    compose_kraus,
    confusion_matrix,
    damping_kraus,
    depolarizing_kraus,
    noise_model_from_calibration,
    parse_calibration,
)
from choiqpt.simulator import _unitary_superop, circuit_probabilities
from choiqpt.tomography import build_plan, execute_plan, qpt
from conftest import apply_kraus, data_path, random_density


def apply(ks, rho):
    """A Kraus set's channel on its whole register."""
    n = ks.dim.bit_length() - 1
    return apply_kraus(rho, ks.operators, tuple(range(n)), n)


@pytest.fixture(scope="module")
def tab1():
    return parse_calibration(data_path("ibm_perth_tab1.json"))


def test_parse_tab1_values(tab1):
    q3 = tab1.qubit(3)
    assert q3.t1 == pytest.approx(168.64915374e-6)
    assert q3.t2 == pytest.approx(227.9672909e-6)
    assert tab1.cnot_error(0, 1) == 0.00514
    q6 = tab1.qubit(6)
    assert q6.p_meas0_prep1 == 0.0126
    assert q6.p_meas1_prep0 == 0.0102
    assert q6.readout_length == pytest.approx(721.7777778e-9)
    assert tab1.durations["CNOT"] == pytest.approx(300e-9)


def test_parse_missing_field_and_bad_values():
    with pytest.raises(ValueError):
        parse_calibration({"qubits": [{"index": 0}]})
    row = {
        "index": 0, "t1_us": -1, "t2_us": 50, "freq_ghz": 5, "anharm_ghz": -0.3,
        "readout_err": 0.01, "p01": 0.01, "p10": 0.01, "readout_ns": 700,
        "sx_error": 1e-4,
    }
    with pytest.raises(ValueError):
        parse_calibration({"qubits": [row]})


def test_parse_tab3_defaults_sx_error():
    calib = parse_calibration(data_path("ibm_perth_tab3.json"))
    assert calib.qubit(0).sx_error == pytest.approx(2.860e-4)
    # no CNOT rows recorded: the fleet median applies
    assert calib.cnot_error(0, 1) == MEDIAN_CNOT_ERROR


def tab1_record() -> dict:
    with open(data_path("ibm_perth_tab1.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize(
    ("edit", "named"),
    [
        (lambda c: c["qubits"][1].update(index=0), "qubit index 0 appears twice"),
        (lambda c: c["cnot"].append(dict(c["cnot"][0], error=0.5)), "CNOT pair (0, 1) appears twice"),
        (lambda c: c["durations_ns"].update(SX=40), "durations_ns.SX appears twice"),
        (lambda c: c["durations_ns"].update(sx=-5), "durations_ns.sx must be non-negative"),
        (lambda c: c["qubits"][0].update(readout_ns=-5), "readout_length"),
        (lambda c: c["cnot"][0].update(target=0), "CNOT control 0 and target 0"),
        (lambda c: c["cnot"][0].update(control=-1), "CNOT control -1"),
        (lambda c: c["qubits"][0].update(index=-1), "qubit index -1 is negative"),
        (lambda c: c["qubits"][0].update(t1_us="112.2"), "t1_us must be a number, got '112.2'"),
        (lambda c: c["qubits"][1].update(index=True), "index must be a whole number, got True"),
        (lambda c: c["qubits"][1].update(index=np.True_), "index must be a whole number"),
        (lambda c: c["cnot"][0].update(control=False), "control must be a whole number, got False"),
        (lambda c: c["cnot"][0].update(target=True), "target must be a whole number, got True"),
        (lambda c: c["cnot"][0].update(error="0.5"), "error must be a number, got '0.5'"),
        (lambda c: c["durations_ns"].update(sx="35"), "durations_ns.sx must be a number"),
        (lambda c: c["cnot"][0].update(control=7), "CNOT pair (7, 1) is on qubit(s) [7], not in the qubit table"),
    ],
    ids=[
        "duplicate_qubit", "duplicate_cnot_pair", "duplicate_duration", "negative_duration",
        "negative_readout_length", "self_cnot", "negative_cnot_control", "negative_index",
        "string_qubit_number", "boolean_index", "numpy_boolean_index", "boolean_cnot_control",
        "boolean_cnot_target", "string_cnot_error", "string_duration", "unlisted_cnot_control",
    ],
)
def test_calibration_record_errors_name_the_field(edit, named):
    record = tab1_record()
    edit(record)
    with pytest.raises(ValueError, match="malformed calibration record") as exc:
        parse_calibration(record)
    assert named in str(exc.value)


def test_device_calibration_checks_each_row_against_its_key():
    calib = parse_calibration(tab1_record())
    qubits, cnot = calib.qubits, calib.cnot
    cases = [
        ({**qubits, 0: qubits[1], 1: qubits[0]}, cnot, "qubit 1's row is keyed as qubit 0"),
        (qubits, {**cnot, (0, 1): cnot[(1, 0)]}, "CNOT pair (1, 0)'s row is keyed as (0, 1)"),
        (
            {i: q for i, q in qubits.items() if i != 6},
            cnot,
            "CNOT pair (5, 6) is on qubit(s) [6], not in the qubit table",
        ),
    ]
    for bad_qubits, bad_cnot, named in cases:
        with pytest.raises(ValueError, match=re.escape(named)):
            DeviceCalibration(bad_qubits, bad_cnot, calib.durations)
    assert DeviceCalibration(dict(qubits), dict(cnot), calib.durations) == calib


def test_cnot_error_reads_the_pair_then_the_reversed_pair_then_the_median():
    record = tab1_record()
    record["cnot"] = [{"control": 0, "target": 1, "error": 0.02}, {"control": 2, "target": 1, "error": 0.03}]
    calib = parse_calibration(record)
    assert calib.cnot == {(0, 1): CnotCalibration(0, 1, 0.02), (2, 1): CnotCalibration(2, 1, 0.03)}
    assert calib.cnot_error(0, 1) == calib.cnot_error(1, 0) == 0.02
    assert calib.cnot_error(1, 2) == 0.03
    assert calib.cnot_error(0, 2) == MEDIAN_CNOT_ERROR
    record["cnot"].append({"control": 1, "target": 0, "error": 0.04})
    assert parse_calibration(record).cnot_error(1, 0) == 0.04


@pytest.mark.parametrize("name", ["ibm_perth_tab1.json", "ibm_perth_tab3.json", "ibm_perth_tab4.json"])
def test_bundled_calibrations_parse_and_build_a_two_qubit_model(name):
    calib = parse_calibration(data_path(name))
    assert list(calib.qubits) == list(range(7))
    assert all(calib.qubit(i).index == i for i in range(7))
    assert all(pair == (c.control, c.target) for pair, c in calib.cnot.items())
    model = noise_model_from_calibration(calib, num_qubits=2)
    one_qubit = {(g, (q,)) for g in ("SX", "X", "measure") for q in (0, 1)}
    assert set(model.gate_noise) == one_qubit | {("CNOT", (0, 1)), ("CNOT", (1, 0))}
    assert sorted(model.readout_confusion) == [0, 1]


@pytest.mark.parametrize(
    "name, num_qubits, qubit_map, most_warnings",
    [
        ("ibm_perth_tab3.json", 3, None, 4),  # qubit 2 reports T2 > 2 T1
        ("ibm_perth_tab4.json", 7, None, 8),  # qubits 2 and 5 do
        ("ibm_perth_tab3.json", 1, (2,), 3),  # no CNOT: SX, X and readout only
    ],
)
def test_noise_model_builds_each_qubits_decay_once_per_duration(
    monkeypatch, name, num_qubits, qubit_map, most_warnings
):
    calls, build = collections.Counter(), noise.damping_kraus

    def counted(t1, t2, duration):
        calls[t1, t2] += 1  # the bundled qubits' (t1, t2) pairs are distinct
        return build(t1, t2, duration)

    monkeypatch.setattr(noise, "damping_kraus", counted)
    calib = parse_calibration(data_path(name))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        noise_model_from_calibration(calib, num_qubits, qubit_map)
    assert sum("clamping t2" in str(w.message) for w in seen) <= most_warnings
    assert len(calls) == num_qubits and max(calls.values()) <= (4 if num_qubits > 1 else 3)


@pytest.mark.parametrize(
    "name, num_qubits, qubit_map, clamped",
    [
        ("ibm_perth_tab1.json", 2, None, []),
        ("ibm_perth_tab3.json", 3, None, [2]),
        ("ibm_perth_tab4.json", 7, None, [2, 5]),
        ("ibm_perth_tab3.json", 1, (2,), [2]),  # named by its calibration qubit, not its wire
        ("ibm_perth_tab4.json", 2, (5, 2), [5, 2]),
    ],
)
def test_noise_model_warns_once_per_clamped_qubit(name, num_qubits, qubit_map, clamped):
    calib = parse_calibration(data_path(name))
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        noise_model_from_calibration(calib, num_qubits, qubit_map)
    assert [str(w.message).split(":")[0] for w in seen] == [f"qubit {q}" for q in clamped]
    assert all("clamping t2 to 2*t1" in str(w.message) for w in seen)
    assert all(w.filename == __file__ for w in seen)  # attributed to the model's caller


def test_damping_zero_duration_is_identity():
    ks = damping_kraus(100e-6, 100e-6, 0.0)
    assert len(ks.operators) == 1
    assert np.array_equal(ks.operators[0], np.eye(2))


def test_damping_pure_dephasing_limit():
    # t1 -> infinity: populations frozen, coherences decay by exp(-t/t2)
    t2, dur = 70e-6, 10e-6
    ks = damping_kraus(np.inf, t2, dur)
    plus = 0.5 * np.ones((2, 2), dtype=complex)
    out = apply(ks, plus)
    assert out[0, 0] == pytest.approx(0.5, abs=1e-12)
    assert out[0, 1] == pytest.approx(0.5 * np.exp(-dur / t2), abs=1e-12)


def test_damping_t1_population_decay():
    t1 = 50e-6
    ks = damping_kraus(t1, 2 * t1, t1)  # duration = t1, no pure dephasing
    excited = np.diag([0.0, 1.0]).astype(complex)
    out = apply(ks, excited)
    assert out[1, 1].real == pytest.approx(np.exp(-1.0), abs=1e-12)
    assert out[0, 0].real == pytest.approx(1 - np.exp(-1.0), abs=1e-12)


def test_damping_clamps_and_warns_on_fast_t2():
    with pytest.warns(UserWarning, match="clamping t2"):
        ks = damping_kraus(10e-6, 50e-6, 5e-6)
    # behaves as if t2 == 2 t1: amplitude damping only
    ref = damping_kraus(10e-6, 20e-6, 5e-6)
    rho = random_density(np.random.default_rng(0), 2)
    assert np.abs(apply(ks, rho) - apply(ref, rho)).max() < 1e-12


def test_damping_rejects_bad_times():
    with pytest.raises(ValueError):
        damping_kraus(0.0, 1e-6, 1e-9)
    with pytest.raises(ValueError):
        damping_kraus(1e-6, 1e-6, -1.0)


@given(st.integers(0, 2**32 - 1), st.floats(0.1, 3.0), st.floats(0.1, 3.0))
@settings(max_examples=20, deadline=None)
def test_damping_divisibility(seed, f1, f2):
    t1, t2 = 80e-6, 60e-6
    s, t = f1 * 1e-6, f2 * 1e-6
    rho = random_density(np.random.default_rng(seed), 2)
    once = apply(damping_kraus(t1, t2, s + t), rho)
    twice = apply(damping_kraus(t1, t2, t), apply(damping_kraus(t1, t2, s), rho))
    assert np.abs(once - twice).max() < 1e-9


def test_depolarizing_limits():
    rho = random_density(np.random.default_rng(2), 4)
    ident = depolarizing_kraus(0.0, 2)
    assert np.abs(apply(ident, rho) - rho).max() < 1e-12
    full = depolarizing_kraus(1.0, 2)
    assert np.abs(apply(full, rho) - np.eye(4) / 4).max() < 1e-12
    with pytest.raises(ValueError):
        depolarizing_kraus(1.5, 1)


def test_depolarizing_action_formula():
    p = 0.37
    rho = random_density(np.random.default_rng(3), 4)
    out = apply(depolarizing_kraus(p, 2), rho)
    assert np.abs(out - ((1 - p) * rho + p * np.eye(4) / 4)).max() < 1e-12


def test_confusion_matrix_layout():
    m = confusion_matrix(0.0292, 0.027)
    assert np.allclose(m, [[0.973, 0.0292], [0.027, 0.9708]])
    assert np.allclose(m.sum(axis=0), [1.0, 1.0])


def test_noise_model_confusion_from_tab1(tab1):
    model = noise_model_from_calibration(tab1, num_qubits=2)
    assert np.allclose(model.readout_confusion[0], [[0.973, 0.0292], [0.027, 0.9708]])
    assert np.allclose(model.readout_confusion[1], [[0.9712, 0.032], [0.0288, 0.968]])


def test_noise_model_cnot_entry_uses_pair_error(tab1):
    model = noise_model_from_calibration(tab1, num_qubits=3)
    got = model.kraus_for("CNOT", (1, 2))
    # reference channel assembled from the same table row (error 0.01136)
    q1, q2 = tab1.qubit(1), tab1.qubit(2)
    damp = [
        np.kron(a, b)
        for a in damping_kraus(q1.t1, q1.t2, 300e-9).operators
        for b in damping_kraus(q2.t1, q2.t2, 300e-9).operators
    ]
    rho = random_density(np.random.default_rng(4), 4)
    ref = apply(depolarizing_kraus(0.01136, 2), sum(k @ rho @ k.conj().T for k in damp))
    assert np.abs(apply(got, rho) - ref).max() < 1e-12


def test_noise_model_zero_noise_is_identity(tab1):
    calib = parse_calibration(
        {
            "qubits": [
                {
                    "index": i, "t1_us": 100.0, "t2_us": 100.0, "freq_ghz": 5.0,
                    "anharm_ghz": -0.3, "readout_err": 0.0, "p01": 0.0, "p10": 0.0,
                    "readout_ns": 0.0, "sx_error": 0.0,
                }
                for i in range(2)
            ],
            "cnot": [
                {"control": 0, "target": 1, "error": 0.0},
                {"control": 1, "target": 0, "error": 0.0},
            ],
            "durations_ns": {"sx": 0, "x": 0, "cnot": 0},
        }
    )
    model = noise_model_from_calibration(calib, num_qubits=2)
    rho1 = random_density(np.random.default_rng(5), 2)
    rho2 = random_density(np.random.default_rng(6), 4)
    for (name, qubits), ks in model.gate_noise.items():
        rho = rho1 if len(qubits) == 1 else rho2
        assert np.abs(apply(ks, rho) - rho).max() < 1e-12, (name, qubits)
    assert np.allclose(model.readout_confusion[0], np.eye(2))


def test_gate_durations_come_from_the_calibration_or_the_defaults(tab1_path):
    with open(tab1_path) as fh:
        raw = json.load(fh)
    del raw["durations_ns"]

    def model(durations_ns=None):
        record = raw if durations_ns is None else raw | {"durations_ns": durations_ns}
        return noise_model_from_calibration(parse_calibration(record), num_qubits=2)

    defaults, explicit = model(), model({"sx": 35, "x": 35, "cnot": 300})
    assert defaults.gate_noise.keys() == explicit.gate_noise.keys()
    for key, ks in defaults.gate_noise.items():
        want = explicit.gate_noise[key].operators
        assert len(ks.operators) == len(want), key
        assert all(np.array_equal(a, b) for a, b in zip(ks.operators, want)), key

    identity = choi_from_unitary(np.eye(4))
    slow = model({"cnot": 3000})
    fid = {
        ns: process_fidelity(kraus_to_choi(m.gate_noise[("CNOT", (0, 1))]), identity)
        for ns, m in ((300, explicit), (3000, slow))
    }
    assert fid[3000] < fid[300]


def test_noise_model_unknown_qubit(tab1):
    with pytest.raises(ValueError):
        noise_model_from_calibration(tab1, num_qubits=2, qubit_map=(0, 99))


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"num_qubits": 0}, "num_qubits must be at least 1, got 0"),
        ({"num_qubits": -1}, "num_qubits must be at least 1, got -1"),
        ({"num_qubits": 2.5}, "num_qubits must be a whole number, got 2.5"),
        ({"num_qubits": True}, "num_qubits must be a whole number, got True"),
        ({"qubit_map": (True, 0)}, "qubit_map entry must be a whole number, got True"),
        ({"qubit_map": (0, 1.5)}, "qubit_map entry must be a whole number, got 1.5"),
        ({"qubit_map": (0, 0)}, "qubit_map entries must be distinct, got (0, 0)"),
        ({"num_qubits": 3, "qubit_map": (2, 1, 2)}, "qubit_map entries must be distinct, got (2, 1, 2)"),
        ({"qubit_map": (0, 1, 2)}, "qubit_map length must equal num_qubits"),
    ],
    ids=["zero", "negative", "fraction", "bool", "bool_entry", "fraction_entry", "repeat", "repeat_3",
         "length"],
)
def test_noise_model_from_calibration_checks_its_arguments(tab1, kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        noise_model_from_calibration(tab1, **({"num_qubits": 2} | kwargs))


def test_noise_model_from_calibration_takes_whole_floats_and_numpy_integers(tab1):
    want = noise_model_from_calibration(tab1, num_qubits=2, qubit_map=(1, 0))
    got = noise_model_from_calibration(tab1, num_qubits=2.0, qubit_map=(np.int64(1), 0.0))
    assert list(got.gate_noise) == list(want.gate_noise)
    for key, ks in want.gate_noise.items():
        assert np.array_equal(got.gate_noise[key].superop, ks.superop), key
    assert all(np.array_equal(got.readout_confusion[q], want.readout_confusion[q]) for q in (0, 1))


def test_all_model_channels_are_cptp(perth_noise):
    for (name, qubits), ks in perth_noise.gate_noise.items():
        choi = kraus_to_choi(ks)
        rep = is_cptp(choi)
        assert rep.min_eig >= -1e-9, (name, qubits)
        assert rep.tp_dev < 1e-8, (name, qubits)
    for q, m in perth_noise.readout_confusion.items():
        assert m.min() >= 0 and m.max() <= 1
        assert np.allclose(m.sum(axis=0), 1.0, atol=1e-12)


def test_compose_kraus_order():
    # amplitude damping then a bit flip differs from the reverse order
    a = damping_kraus(10e-6, 20e-6, 10e-6)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    from choiqpt.channels import KrausSet

    flip = KrausSet((x,))
    rho = np.diag([0.0, 1.0]).astype(complex)
    first_damp = apply(compose_kraus(a, flip), rho)
    first_flip = apply(compose_kraus(flip, a), rho)
    assert not np.allclose(first_damp, first_flip)


def test_superop_for_caches_per_entry_and_follows_the_model():
    model = NoiseModel({("X", (0,)): depolarizing_kraus(0.1, 1)}, {})
    first = model.superop_for("X", (0,))
    assert model.superop_for("X", (0,)) is first
    assert model.superop_for("X", (1,)) is None and model.superop_for("RZ", (0,)) is None
    with pytest.raises(TypeError):
        model.gate_noise[("X", (0,))] = depolarizing_kraus(0.5, 1)
    model = NoiseModel({("X", (0,)): depolarizing_kraus(0.5, 1)}, {})  # a new model, not a write
    assert model.superop_for("X", (0,)) is model.gate_noise[("X", (0,))].superop is not first
    ops = [k @ PAULI_X for k in depolarizing_kraus(0.5, 1).operators]
    gate_then_noise = model.superop_for("X", (0,)) @ _unitary_superop("X", ())
    assert np.abs(gate_then_noise - kraus_superop(ops)).max() < 1e-15


def test_writing_into_a_built_model_raises_and_leaves_its_probabilities(tab1):
    model = noise_model_from_calibration(tab1, num_qubits=2)
    target = Circuit(2, (ga("SQSCZ", (0, 1)),))
    before = execute_plan(build_plan(2, None), target, model).frequencies
    sx = model.gate_noise[("SX", (1,))]
    with pytest.raises(ValueError):  # once a KrausSet's superop is cached, a write would leave it stale
        sx.operators[0][0, 0] = 0.5
    with pytest.raises(TypeError):
        model.gate_noise[("SX", (1,))] = compose_kraus(sx, sx)
    with pytest.raises(ValueError):
        model.readout_confusion[0][0, 0] = 0.5
    tomography._probabilities.cache_clear()
    after = execute_plan(build_plan(2, None), target, model).frequencies
    assert np.array_equal(after, before)
    # a KrausSet keeps its own copy of a caller's writable array
    x = PAULI_X.astype(complex)
    ks = KrausSet((x,))
    flip = NoiseModel({("X", (0,)): ks}, {0: np.eye(2)})
    x[...] = np.eye(2)
    assert np.array_equal(ks.superop, kraus_superop([PAULI_X]))
    (op,) = flip.kraus_for("X", (0,)).operators
    assert np.array_equal(op, PAULI_X) and np.array_equal(flip.readout_confusion[0], np.eye(2))


def test_a_cached_superoperator_is_read_only(tab1):
    model = noise_model_from_calibration(tab1, num_qubits=2)
    target = Circuit(2, (ga("SQSCZ", (0, 1)),))
    tomography._probabilities.cache_clear()
    before = execute_plan(build_plan(2, None), target, model).frequencies
    s = model.superop_for("SX", (0,))
    with pytest.raises(ValueError):  # the set, every model holding it and its views share s
        s[0, 0] = 1
    assert not model.on_qubit(0).superop_for("SX", (0,)).flags.writeable
    tomography._probabilities.cache_clear()
    after = execute_plan(build_plan(2, None), target, model).frequencies
    assert np.array_equal(after, before)


def test_a_model_holds_copies_of_the_callers_dicts():
    # later writes into the caller's dicts or arrays do not reach the model
    d, c = {("X", (0,)): depolarizing_kraus(0.1, 1)}, {0: confusion_matrix(0.01, 0.02)}
    model = NoiseModel(d, c)
    d[("X", (0,))] = depolarizing_kraus(0.5, 1)
    c[0][0, 0] = 0.5
    c[1] = np.eye(2)
    assert set(model.gate_noise) == {("X", (0,))} and set(model.readout_confusion) == {0}
    kept, want = model.kraus_for("X", (0,)).operators, depolarizing_kraus(0.1, 1).operators
    assert len(kept) == len(want) and all(np.array_equal(k, w) for k, w in zip(kept, want))
    assert np.array_equal(model.readout_confusion[0], confusion_matrix(0.01, 0.02))
    assert model.readout_confusion[0][0, 0] == 0.98 and not model.readout_confusion[0].flags.writeable


def test_on_qubit_relabels_the_qubit_entries_to_wire_zero(tab1):
    model = noise_model_from_calibration(tab1, num_qubits=3)
    for q in range(3):
        one = model.on_qubit(q)
        assert set(one.gate_noise) == {("SX", (0,)), ("X", (0,)), ("measure", (0,))}
        for name in ("SX", "X", "measure"):
            assert one.gate_noise[(name, (0,))] is model.gate_noise[(name, (q,))]
        assert one.readout_confusion == {0: model.readout_confusion[q]}
        assert one.label == model.label


def test_on_qubit_views_share_the_models_superoperators(tab1, monkeypatch):
    model = noise_model_from_calibration(tab1, num_qubits=2)
    for q in range(2):
        for name in ("SX", "X", "measure"):
            assert model.on_qubit(q).superop_for(name, (0,)) is model.superop_for(name, (q,))
    target = Circuit(2, (ga("SQSCZ", (0, 1)),))
    # both runs simulate, so the second must reuse the superoperators
    tomography._probabilities.cache_clear()
    execute_plan(build_plan(2, shots=10), target, model, seed=0)
    tomography._probabilities.cache_clear()
    calls = []

    def counting(operators):
        calls.append(len(operators))
        return kraus_superop(operators)

    monkeypatch.setattr(channels, "kraus_superop", counting)
    monkeypatch.setattr(simulator, "kraus_superop", counting)
    execute_plan(build_plan(2, shots=10), target, model, seed=0)
    assert calls == []


def test_narrow_noise_model_names_the_missing_qubit(tab1):
    model = noise_model_from_calibration(tab1, num_qubits=2)
    wide = Circuit(3, (ga("SQSCZ", (0, 1)), ga("H", 2)))
    message = r"noise model has no qubit 2: its readout confusion covers \[0, 1\]"
    for call in (
        lambda: model.on_qubit(2),
        lambda: model.confusion_for(3),
        lambda: circuit_probabilities(wide, model),
        lambda: qpt(wide, model, shots=None),
        lambda: qpt(wide, model, shots=10),
    ):
        with pytest.raises(ValueError, match=message):
            call()
