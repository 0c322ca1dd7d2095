"""Density-matrix circuit simulation with optional noise and shot sampling.

States are plain ``numpy`` density matrices (Hermitian, unit trace, PSD
within tolerance).  Sampling uses numpy's PCG64 generator seeded either by
an integer or a ``SeedSequence``; a fixed seed reproduces counts exactly,
which downstream determinism guarantees rely on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .gates import Circuit, embed_operator, gate_unitary, to_native
from .linalg import as_complex_matrix, dagger, kron_all
from .noise import NoiseModel

_C = np.complex128

_MEAS_ROT = {
    "Z": np.eye(2, dtype=_C),
    "X": gate_unitary("H"),
    "Y": gate_unitary("H") @ dagger(gate_unitary("Ph", (np.pi / 2,))),  # H S^dag
}


def ground_state(num_qubits: int) -> np.ndarray:
    rho = np.zeros((2**num_qubits, 2**num_qubits), dtype=_C)
    rho[0, 0] = 1.0
    return rho


def validate_density_matrix(
    rho: np.ndarray, herm_tol: float = 1e-9, trace_tol: float = 1e-9, psd_tol: float = 1e-8
) -> np.ndarray:
    rho = as_complex_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square")
    if np.abs(rho - dagger(rho)).max() > herm_tol:
        raise ValueError("density matrix is not Hermitian within tolerance")
    if abs(np.trace(rho) - 1.0) > trace_tol:
        raise ValueError(f"density matrix trace {np.trace(rho):.6g} != 1")
    w = np.linalg.eigvalsh(0.5 * (rho + dagger(rho)))
    if w.min() < -psd_tol:
        raise ValueError(f"density matrix has negative eigenvalue {w.min():.3e}")
    return rho


def apply_kraus(
    rho: np.ndarray, operators, qubits: tuple[int, ...], num_qubits: int
) -> np.ndarray:
    """Apply a Kraus channel on a subset of wires of the register."""
    out = np.zeros_like(rho)
    for k in operators:
        full = embed_operator(k, qubits, num_qubits)
        out += full @ rho @ dagger(full)
    return out


def simulate(
    c: Circuit,
    noise: NoiseModel | None = None,
    initial: np.ndarray | None = None,
) -> np.ndarray:
    """Run a circuit on a density matrix, gate by gate.

    Each gate conjugates the state by its embedded unitary, then (when a
    noise model is given) applies that gate's Kraus set on the same wires.
    Gates without a noise entry run clean, so lower circuits with
    :func:`choiqpt.gates.to_native` before noisy simulation.
    """
    dim = 2**c.num_qubits
    if initial is None:
        rho = ground_state(c.num_qubits)
    else:
        rho = validate_density_matrix(initial)
        if rho.shape != (dim, dim):
            raise ValueError(
                f"initial state dim {rho.shape[0]} does not match circuit width {c.num_qubits}"
            )
    for g in c.gates:
        u = embed_operator(g.unitary(), g.qubits, c.num_qubits)
        rho = u @ rho @ dagger(u)
        if noise is not None:
            ks = noise.kraus_for(g.name, g.qubits)
            if ks is not None:
                rho = apply_kraus(rho, ks.operators, g.qubits, c.num_qubits)
    return rho


def apply_measure_noise(rho: np.ndarray, noise: NoiseModel | None, num_qubits: int) -> np.ndarray:
    """Decay over the readout window, applied right before sampling."""
    if noise is None:
        return rho
    for q in range(num_qubits):
        ks = noise.measure_kraus(q)
        if ks is not None:
            rho = apply_kraus(rho, ks.operators, (q,), num_qubits)
    return rho


def measure_probabilities(rho: np.ndarray, setting: str) -> np.ndarray:
    """Outcome probabilities for a per-qubit Pauli measurement setting.

    ``setting`` is a string over {X, Y, Z}, one letter per qubit.  Each
    qubit is rotated into the computational frame (H for X, S^dag then H
    for Y, nothing for Z) and the diagonal is read out.  Outcome index
    treats qubit 0 as the most significant bit.
    """
    rho = as_complex_matrix(rho)
    num_qubits = len(setting)
    if rho.shape != (2**num_qubits, 2**num_qubits):
        raise ValueError(f"state dim {rho.shape[0]} does not match setting {setting!r}")
    try:
        rot = kron_all(_MEAS_ROT[b] for b in setting.upper())
    except KeyError as exc:
        raise ValueError(f"bad measurement basis {exc} in {setting!r}") from None
    rotated = rot @ rho @ dagger(rot)
    probs = np.real(np.diag(rotated)).copy()
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {total:.6g}, state is not normalized")
    np.clip(probs, 0.0, None, out=probs)
    return probs / probs.sum()


def circuit_probabilities(c: Circuit, noise: NoiseModel | None = None) -> np.ndarray:
    """Z-basis outcome probabilities of a circuit run from the ground state.

    With a noise model the circuit is first lowered to the native gate set
    so calibrated per-gate noise applies, and readout decay acts before the
    read-out.  Readout confusion is left to the caller, which applies it to
    sampled bits (:func:`sample_counts`) or to exact probabilities.
    """
    if noise is not None:
        c = to_native(c)
    rho = apply_measure_noise(simulate(c, noise), noise, c.num_qubits)
    return measure_probabilities(rho, "Z" * c.num_qubits)


@dataclass(frozen=True)
class CountsTable:
    """Measured outcome counts; bitstring keys, qubit 0 leftmost."""

    shots: int
    counts: dict[str, int]

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts do not sum to the shot total")

    def frequency(self, outcome: str) -> float:
        return self.counts.get(outcome, 0) / self.shots

    def as_vector(self, num_qubits: int) -> np.ndarray:
        return np.array(
            [self.counts.get(format(i, f"0{num_qubits}b"), 0) for i in range(2**num_qubits)],
            dtype=float,
        )

    def to_dict(self) -> dict:
        return {"shots": self.shots, "counts": dict(sorted(self.counts.items()))}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "CountsTable":
        return cls(int(d["shots"]), {k: int(v) for k, v in d["counts"].items()})


def _flip_counts(vec: np.ndarray, confusion, num_qubits: int, rng) -> np.ndarray:
    """Push sampled counts through per-qubit readout bit flips."""
    for q in range(num_qubits):
        m = np.asarray(confusion[q], dtype=float)
        if m.shape != (2, 2) or np.abs(m.sum(axis=0) - 1.0).max() > 1e-12:
            raise ValueError(f"confusion matrix for qubit {q} is not column-stochastic")
        out = np.zeros_like(vec)
        shift = num_qubits - 1 - q
        for idx in range(vec.size):
            n = int(vec[idx])
            bit = (idx >> shift) & 1
            flip_p = m[1 - bit, bit]
            n_flip = int(rng.binomial(n, flip_p))
            out[idx ^ (1 << shift)] += n_flip
            out[idx] += n - n_flip
        vec = out
    return vec


def sample_counts(
    probs: np.ndarray,
    shots: int,
    seed,
    confusion=None,
) -> CountsTable:
    """Multinomial shot sampling, optionally through readout confusion.

    ``seed`` may be an int or a ``numpy.random.SeedSequence``; identical
    seeds give identical tables.  When ``confusion`` (a sequence of 2x2
    column-stochastic matrices, one per qubit) is given, every sampled
    outcome bit is independently flipped per its matrix before tallying.
    """
    probs = np.asarray(probs, dtype=float)
    if shots <= 0:
        raise ValueError("shots > 0 required")
    if probs.min() < -1e-8:
        raise ValueError(f"negative probability {probs.min():.3e}")
    num_qubits = int(round(np.log2(probs.size)))
    if 2**num_qubits != probs.size:
        raise ValueError("probability vector length must be a power of two")
    if abs(probs.sum() - 1.0) > 1e-8:
        raise ValueError(f"probabilities sum to {probs.sum():.6g}")
    p = np.clip(probs, 0.0, None)
    p = p / p.sum()
    rng = np.random.default_rng(seed)
    vec = rng.multinomial(shots, p).astype(float)
    if confusion is not None:
        vec = _flip_counts(vec, confusion, num_qubits, rng)
    counts = {
        format(i, f"0{num_qubits}b"): int(vec[i]) for i in range(vec.size)
    }
    return CountsTable(shots, counts)
