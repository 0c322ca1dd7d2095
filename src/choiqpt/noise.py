"""Noise models built from device-calibration records.

Calibration files carry per-qubit coherence times, readout bit-flip
probabilities, and per-pair CNOT error rates.  A point worth stating
loudly: the bit-flip columns (``p01``/``p10``) are probabilities (fractions),
not percents, even when a source table heads them with a percent sign; the
readout assignment error is consistent with ``(p01 + p10) / 2`` only under
that reading.

The model applied per gate is depolarizing (at the reported gate error)
composed after T1/T2 damping over the gate duration, plus a per-qubit
readout confusion matrix, checked column-stochastic when a model is built
(:func:`column_stochastic`); tomography folds it into each qubit's frame, and
``simulator.apply_confusion`` applies it to outcome probabilities.
Reported errors exist only for SX/X and CNOT; RZ and Ph are virtual
(zero duration, zero error).  Missing CNOT pairs fall back to the fleet
median error.
"""

from __future__ import annotations

import itertools
import json
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .channels import KrausSet, pauli_basis, read_only
from .linalg import finite_number, whole_number

_C = np.complex128

# Fleet medians used when a calibration record lacks a value.
MEDIAN_CNOT_ERROR = 8.690e-3
MEDIAN_SX_ERROR = 2.860e-4

DEFAULT_DURATIONS_NS = {"SX": 35.0, "X": 35.0, "CNOT": 300.0}

# QubitCalibration field -> (record key, factor to SI units)
_QUBIT_FIELDS = {
    "t1": ("t1_us", 1e-6), "t2": ("t2_us", 1e-6),
    "frequency": ("freq_ghz", 1e9), "anharmonicity": ("anharm_ghz", 1e9),
    "readout_err": ("readout_err", 1.0), "p_meas0_prep1": ("p01", 1.0), "p_meas1_prep0": ("p10", 1.0),
    "readout_length": ("readout_ns", 1e-9), "sx_error": ("sx_error", 1.0),
}


@dataclass(frozen=True)
class QubitCalibration:
    """Per-qubit record; times in seconds, frequencies in Hz."""

    index: int
    t1: float
    t2: float
    frequency: float
    anharmonicity: float
    readout_err: float
    p_meas0_prep1: float  # zeta: P(measure 0 | prepared 1)
    p_meas1_prep0: float  # eta:  P(measure 1 | prepared 0)
    readout_length: float
    sx_error: float

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"qubit index {self.index} is negative")
        if self.t1 <= 0 or self.t2 <= 0:
            raise ValueError(f"qubit {self.index}: coherence times must be positive")
        if self.readout_length < 0:
            raise ValueError(f"qubit {self.index}: readout_length must be non-negative")
        for name in ("readout_err", "p_meas0_prep1", "p_meas1_prep0", "sx_error"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"qubit {self.index}: {name}={p} outside [0, 1]")


@dataclass(frozen=True)
class CnotCalibration:
    control: int
    target: int
    error: float

    def __post_init__(self):
        if self.control == self.target or min(self.control, self.target) < 0:
            raise ValueError(f"CNOT control {self.control} and target {self.target} "
                             "must be distinct non-negative qubits")
        if not 0.0 <= self.error <= 1.0:
            raise ValueError(f"CNOT({self.control},{self.target}) error outside [0, 1]")


@dataclass(frozen=True)
class DeviceCalibration:
    """Calibration rows keyed as they are looked up: qubits by index, CNOTs by (control, target).

    Each row must sit under its own key, and each CNOT row's qubits must be keys of ``qubits``."""

    qubits: dict[int, QubitCalibration]
    cnot: dict[tuple[int, int], CnotCalibration]
    durations: dict[str, float] = field(default_factory=dict)  # gate name -> seconds

    def __post_init__(self):
        for index, q in self.qubits.items():
            if q.index != index:
                raise ValueError(f"qubit {q.index}'s row is keyed as qubit {index}")
        for pair, c in self.cnot.items():
            if (c.control, c.target) != pair:
                raise ValueError(f"CNOT pair {(c.control, c.target)}'s row is keyed as {pair}")
            if unlisted := sorted(set(pair) - self.qubits.keys()):
                raise ValueError(f"CNOT pair {pair} is on qubit(s) {unlisted}, not in the qubit table")

    def qubit(self, index: int) -> QubitCalibration:
        if index not in self.qubits:
            raise ValueError(f"calibration has no qubit {index}")
        return self.qubits[index]

    def cnot_error(self, control: int, target: int) -> float:
        # error rates are symmetric in practice
        row = self.cnot.get((control, target)) or self.cnot.get((target, control))
        return MEDIAN_CNOT_ERROR if row is None else row.error


def _insert(table: dict, key, value, what: str) -> None:
    if key in table:
        raise ValueError(f"{what} appears twice")
    table[key] = value


def parse_calibration(source) -> DeviceCalibration:
    """Load a calibration record from a JSON file path or an already-parsed dict.

    Expected shape::

        {"qubits": [{"index": 0, "t1_us": ..., "t2_us": ..., "freq_ghz": ...,
                     "anharm_ghz": ..., "readout_err": ..., "p01": ...,
                     "p10": ..., "readout_ns": ..., "sx_error": ...}, ...],
         "cnot": [{"control": 0, "target": 1, "error": ...}, ...],
         "durations_ns": {"sx": 35, "cnot": 300}}

    ``p01`` is P(measure 0 | prepared 1), ``p10`` is P(measure 1 | prepared 0).
    Units are converted here (us -> s, GHz -> Hz, ns -> s).  ``sx_error`` may
    be omitted, in which case the fleet median is substituted.  Each qubit
    index, CNOT pair and gate duration has one row; durations are
    non-negative, and each CNOT row's qubits are rows of ``qubits``.
    """
    if isinstance(source, dict):
        raw = source
    else:
        with open(source) as fh:
            raw = json.load(fh)
    qubits: dict[int, QubitCalibration] = {}
    cnot: dict[tuple[int, int], CnotCalibration] = {}
    durations: dict[str, float] = {}
    try:
        for row in raw["qubits"]:
            row = {"sx_error": MEDIAN_SX_ERROR} | row
            num = {f: finite_number(row[k], k) * scale for f, (k, scale) in _QUBIT_FIELDS.items()}
            q = QubitCalibration(whole_number(row["index"], "index"), **num)
            _insert(qubits, q.index, q, f"qubit index {q.index}")
        for r in raw.get("cnot", ()):
            pair = tuple(whole_number(r[k], k) for k in ("control", "target"))
            c = CnotCalibration(*pair, finite_number(r["error"], "error"))
            _insert(cnot, pair, c, f"CNOT pair {pair}")
        for name, ns in raw.get("durations_ns", {}).items():
            ns = finite_number(ns, f"durations_ns.{name}")
            if ns < 0:
                raise ValueError(f"durations_ns.{name} must be non-negative, got {ns!r}")
            _insert(durations, name.upper(), ns * 1e-9, f"durations_ns.{name.upper()}")
        return DeviceCalibration(qubits, cnot, durations)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed calibration record: {exc}") from exc


# ---------------------------------------------------------------------------
# Elementary channels
# ---------------------------------------------------------------------------


def damping_kraus(t1: float, t2: float, duration: float) -> KrausSet:
    """Single-qubit T1/T2 decay over ``duration`` seconds.

    Amplitude damping with ``gamma = 1 - exp(-duration/t1)`` composed with
    pure dephasing ``lam = 1 - exp(-2 duration (1/t2 - 1/(2 t1)))``; together
    these reproduce population decay by ``exp(-duration/t1)`` and coherence
    decay by ``exp(-duration/t2)``.  ``t2`` is clamped to ``2 t1`` (with a
    warning) since faster transverse decay is inconsistent with this
    decomposition.
    """
    if t1 <= 0:
        raise ValueError("t1 must be positive")
    if t2 <= 0:
        raise ValueError("t2 must be positive")
    if duration < 0:
        raise ValueError("duration must be non-negative")
    if duration == 0:
        return KrausSet((np.eye(2, dtype=_C),))
    if t2 > 2 * t1:
        warnings.warn(
            f"t2={t2:.4g}s exceeds 2*t1={2 * t1:.4g}s; clamping t2 to 2*t1",
            stacklevel=2,
        )
        t2 = 2 * t1
    gamma = 1.0 - np.exp(-duration / t1)
    lam = 1.0 - np.exp(-2.0 * duration * (1.0 / t2 - 1.0 / (2.0 * t1)))
    amp = (
        np.array([[1, 0], [0, np.sqrt(1 - gamma)]], dtype=_C),
        np.array([[0, np.sqrt(gamma)], [0, 0]], dtype=_C),
    )
    deph = (
        np.array([[1, 0], [0, np.sqrt(1 - lam)]], dtype=_C),
        np.array([[0, 0], [0, np.sqrt(lam)]], dtype=_C),
    )
    ops = [d @ a for d in deph for a in amp]
    ops = [k for k in ops if np.abs(k).max() > 0]
    return KrausSet(tuple(ops))


def depolarizing_kraus(p: float, num_qubits: int) -> KrausSet:
    """Uniform depolarizing channel ``E(rho) = (1-p) rho + p I/d``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"depolarizing probability {p} outside [0, 1]")
    basis = pauli_basis(num_qubits)
    d = basis.dim
    ops = [np.sqrt(1.0 - p + p / d**2) * np.eye(d, dtype=_C)]
    if p > 0:
        coeff = np.sqrt(p) / d
        ops.extend(coeff * w for w in basis.operators[1:])
    return KrausSet(tuple(ops))


def compose_kraus(first: KrausSet, then: KrausSet) -> KrausSet:
    """Sequential composition: ``first`` acts on the state before ``then``."""
    return KrausSet(tuple(b @ a for b in then.operators for a in first.operators))


def column_stochastic(m, qubit: int) -> np.ndarray:
    """``m`` as a float array; raises unless it is 2x2, non-negative, with column sums 1 within 1e-12."""
    m = np.asarray(m, dtype=float)
    if m.shape != (2, 2) or not (abs(m.sum(0) - 1).max() <= 1e-12 and m.min() >= 0):  # a nan fails too
        raise ValueError(f"confusion matrix for qubit {qubit} is not column-stochastic")
    return m


def confusion_matrix(p_meas0_prep1: float, p_meas1_prep0: float) -> np.ndarray:
    """Column-stochastic readout matrix; column j is the prepared bit j."""
    zeta, eta = p_meas0_prep1, p_meas1_prep0
    return np.array([[1.0 - eta, zeta], [eta, 1.0 - zeta]])


# ---------------------------------------------------------------------------
# Assembled model
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)  # compared and hashed by identity, as arrays have no ==
class NoiseModel:
    """Per-gate Kraus noise plus per-qubit readout confusion, immutable once built.

    ``gate_noise`` maps ``(gate name, qubit tuple)`` to the KrausSet applied
    after the ideal gate on those qubits.  The pseudo-gate name ``"measure"``
    keyed per qubit carries decay over the readout window; execution paths
    apply it right before sampling.  Gates without an entry are noiseless
    (RZ/Ph are virtual).  Gate durations enter only through these Kraus
    sets; ``label`` is keyword-only.  Both maps are read-only copies of the
    caller's dicts, confusion matrices read-only :func:`column_stochastic` arrays.
    """

    gate_noise: Mapping[tuple[str, tuple[int, ...]], KrausSet]
    readout_confusion: Mapping[int, np.ndarray]
    label: str = field(default="calibrated", kw_only=True)

    def __post_init__(self):
        confusion = {q: read_only(column_stochastic(m, q)) for q, m in self.readout_confusion.items()}
        object.__setattr__(self, "gate_noise", MappingProxyType(dict(self.gate_noise)))
        object.__setattr__(self, "readout_confusion", MappingProxyType(confusion))

    def kraus_for(self, name: str, qubits: tuple[int, ...]) -> KrausSet | None:
        return self.gate_noise.get((name, tuple(qubits)))

    def superop_for(self, name: str, qubits: tuple[int, ...]) -> np.ndarray | None:
        """Superoperator of the noise after gate ``name`` on ``qubits``; None if noiseless.

        It is the entry's :attr:`KrausSet.superop`, built once per Kraus set,
        so views from :meth:`on_qubit` share the parent model's.
        """
        ks = self.kraus_for(name, qubits)
        return None if ks is None else ks.superop

    def measure_kraus(self, qubit: int) -> KrausSet | None:
        return self.gate_noise.get(("measure", (qubit,)))

    def _confusion(self, q: int) -> np.ndarray:
        if q not in self.readout_confusion:
            known = sorted(self.readout_confusion)
            raise ValueError(f"noise model has no qubit {q}: its readout confusion covers {known}")
        return self.readout_confusion[q]

    def confusion_for(self, num_qubits: int) -> list[np.ndarray]:
        return [self._confusion(q) for q in range(num_qubits)]

    def on_qubit(self, q: int) -> "NoiseModel":
        """Qubit q's one-qubit model: its single-qubit ``gate_noise`` entries
        (``"measure"`` included), relabelled to wire 0, and its confusion matrix."""
        entries = self.gate_noise.items()
        gate_noise = {(name, (0,)): ks for (name, wires), ks in entries if wires == (q,)}
        return NoiseModel(gate_noise, {0: self._confusion(q)}, label=self.label)


def noise_model_from_calibration(
    calib: DeviceCalibration,
    num_qubits: int = 2,
    qubit_map: tuple[int, ...] | None = None,
    label: str = "calibrated",
) -> NoiseModel:
    """Assemble a NoiseModel for a ``num_qubits`` register.

    ``qubit_map[i]`` names the calibration qubit backing circuit qubit ``i``
    (defaults to the identity mapping); its entries are distinct whole numbers,
    and ``num_qubits`` is a whole number >= 1.  SX, X and CNOT durations come from
    the calibration's ``durations_ns``, else from ``DEFAULT_DURATIONS_NS``;
    the measurement duration is each qubit's readout length.
    """
    if (num_qubits := whole_number(num_qubits, "num_qubits")) < 1:
        raise ValueError(f"num_qubits must be at least 1, got {num_qubits}")
    qubits = range(num_qubits) if qubit_map is None else qubit_map
    qubit_map = tuple(whole_number(q, "qubit_map entry") for q in qubits)
    if len(qubit_map) != num_qubits:
        raise ValueError("qubit_map length must equal num_qubits")
    if len(set(qubit_map)) != num_qubits:
        raise ValueError(f"qubit_map entries must be distinct, got {qubit_map}")
    dur = {k: v * 1e-9 for k, v in DEFAULT_DURATIONS_NS.items()} | calib.durations

    gate_noise: dict[tuple[str, tuple[int, ...]], KrausSet] = {}
    confusion: dict[int, np.ndarray] = {}

    gates = ("SX", "X", "CNOT") if num_qubits > 1 else ("SX", "X")  # CNOT only if there are pairs
    decay = []  # per qubit: its T1/T2 decay over each gate's duration and its readout, built once
    for q, phys in enumerate(qubit_map):
        qc = calib.qubit(phys)
        if qc.t2 > 2 * qc.t1:  # clamped once here, so a qubit warns once per model, not per duration
            msg = f"qubit {phys}: t2={qc.t2:.4g}s exceeds 2*t1={2 * qc.t1:.4g}s; clamping t2 to 2*t1"
            warnings.warn(msg, stacklevel=2)
        t2 = min(qc.t2, 2 * qc.t1)
        times = {name: dur[name] for name in gates} | {"measure": qc.readout_length}
        decay.append({name: damping_kraus(qc.t1, t2, t) for name, t in times.items()})
        depolarizing = depolarizing_kraus(qc.sx_error, 1)
        for name in ("SX", "X"):
            gate_noise[(name, (q,))] = compose_kraus(decay[q][name], depolarizing)
        gate_noise[("measure", (q,))] = decay[q]["measure"]
        confusion[q] = confusion_matrix(qc.p_meas0_prep1, qc.p_meas1_prep0)

    for i, j in itertools.permutations(range(num_qubits), 2):
        err = calib.cnot_error(qubit_map[i], qubit_map[j])
        pair = itertools.product(decay[i]["CNOT"].operators, decay[j]["CNOT"].operators)
        damp = KrausSet(tuple(np.kron(a, b) for a, b in pair))
        gate_noise[("CNOT", (i, j))] = compose_kraus(damp, depolarizing_kraus(err, 2))

    return NoiseModel(gate_noise, confusion, label=label)
