"""Density-matrix circuit simulation with optional noise and shot sampling.

States are plain ``numpy`` density matrices, alone or stacked on a leading
batch axis, and are not validated.  Every noisy run first lowers its
circuit to the native gate set, so calibrated per-gate noise applies
(``to_native`` keeps its last 32 lowerings, so a circuit run again is not
lowered again).  Each gate acts as one local superoperator: the unitary's
``U (x) conj(U)`` (cached per gate and parameters), times its noise entry's
``sum_k K_k (x) conj(K_k)`` (:attr:`KrausSet.superop`) when it has one,
contracted by :func:`linalg.apply_local` with the gate's row and column
axes of the ``(2,) * 2K`` state tensor; readout decay acts the same way.
Readout confusion acts on outcome probabilities (:func:`apply_confusion`),
so one multinomial draw samples the recorded outcomes; tomography folds it
into each qubit's frame instead.  :func:`evolve` runs any states;
:func:`simulate` runs from the ground state, memoised (:func:`_from_ground`)
under the package's one memo policy, :func:`_memo_upto`.

Sampling uses numpy's PCG64 generator seeded by an int, a ``SeedSequence``
or a ``Generator``; a fixed seed reproduces counts exactly, which
downstream determinism guarantees rely on.  Probabilities are rounded onto
a 2^-40 grid before the draw (:func:`draw_counts`), so counts do not
depend on their last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, update_wrapper

import numpy as np

from .channels import kraus_superop, read_only
from .gates import Circuit, ga, gate_unitary, to_native
from .linalg import apply_local, as_complex_matrix, product_labels, whole_number
from .noise import NoiseModel, column_stochastic

_C = np.complex128

# Per-qubit basis change for each Pauli measurement basis, as (gate, *params)
# entries applied in order: it rotates the basis's +1/-1 eigenstates onto
# |0>/|1>.  The only definition of the bases (table order is plan order);
# ``tomography`` builds its read-out tensors by simulating these circuits.
MEAS_GATES = {"X": (("H",),), "Y": (("Ph", -math.pi / 2), ("H",)), "Z": ()}


def _token_circuit(label: str, table: dict, num_qubits: int | None, kind: str) -> Circuit:
    """Circuit applying ``table[token]`` to qubit q for the q-th token of ``label``."""
    gates = []
    for q, token in enumerate(label):
        if token not in table:
            raise ValueError(f"unknown {kind} {token!r}")
        gates.extend(ga(name, q, *params) for name, *params in table[token])
    return Circuit(num_qubits or len(label), tuple(gates))


def measurement_circuit(setting: str, num_qubits: int | None = None) -> Circuit:
    """Basis-change circuit rotating the setting into the computational frame."""
    return _token_circuit(setting.upper(), MEAS_GATES, num_qubits, "measurement basis")


def ground_state(num_qubits: int) -> np.ndarray:
    rho = np.zeros((2**num_qubits, 2**num_qubits), dtype=_C)
    rho[0, 0] = 1.0
    return rho


@lru_cache(maxsize=64)
def _unitary_superop(name: str, params: tuple[float, ...]) -> np.ndarray:
    return kraus_superop(gate_unitary(name, params)[None])


def _wires(qubits: tuple[int, ...], num_qubits: int) -> list[int]:
    """Row then column axes of ``qubits`` in a ``(B, 2, ..., 2)`` state tensor."""
    return [1 + q for q in qubits] + [1 + num_qubits + q for q in qubits]


def _memo_upto(max_qubits: int):
    """The one memo policy: an ``lru_cache`` keeps the read-only results of ``f(circuit, noise)``
    for its last 4 pairs of at most ``max_qubits`` qubits (the wrapper's ``max_qubits``); a wider
    call runs uncached and keeps nothing.  Worst cases: 4 x 1 MB for ``_from_ground`` (cap 8),
    4 x 2.65 MB for ``tomography._probabilities`` (cap 4), 4 x 1 MB for ``tomography._ideal_choi``
    (cap 4, called with ``noise=None``).  Equal noise models hit."""
    def decorate(f):
        kept = lru_cache(maxsize=4)(lambda c, noise: read_only(f(c, noise)))
        def memo(c, noise):
            return kept(c, noise) if c.num_qubits <= memo.max_qubits else f(c, noise)
        memo.max_qubits, memo.cache_info, memo.cache_clear = max_qubits, kept.cache_info, kept.cache_clear
        return update_wrapper(memo, f)
    return decorate


@_memo_upto(8)
def _from_ground(c: Circuit, noise: NoiseModel | None) -> np.ndarray:
    """The ground-state result of :func:`evolve`."""
    return evolve(ground_state(c.num_qubits), c, noise)


def simulate(c: Circuit, noise: NoiseModel | None = None) -> np.ndarray:
    """Run a circuit from the ground state into a new array: a copy of :func:`_from_ground`,
    the memoised :func:`evolve` run.  Given states run through :func:`evolve`, unvalidated."""
    return _from_ground(c, noise).copy()


def evolve(states: np.ndarray, c: Circuit, noise: NoiseModel | None = None) -> np.ndarray:
    """Execute a circuit on a state or a ``(B, d, d)`` stack of states.

    With a noise model the circuit is first lowered to the native gate set
    and each gate is followed by its noise entry.  States are not validated.
    The result is a new array, also for a circuit without gates.
    """
    if noise is not None:
        c = to_native(c)
    if not c.gates:
        return states.copy()
    t = states.reshape((-1,) + (2,) * (2 * c.num_qubits))
    for g in c.gates:
        s = _unitary_superop(g.name, g.params)
        n = noise.superop_for(g.name, g.qubits) if noise is not None else None
        if n is not None:
            s = n @ s
        t = apply_local(t, s, _wires(g.qubits, c.num_qubits))
    return t.reshape(states.shape)


def apply_measure_noise(rho: np.ndarray, noise: NoiseModel | None, num_qubits: int) -> np.ndarray:
    """Decay over the readout window, applied right before sampling (state or stack)."""
    if noise is None:
        return rho
    t = rho.reshape((-1,) + (2,) * (2 * num_qubits))
    for q in range(num_qubits):
        s = noise.superop_for("measure", (q,))
        if s is not None:
            t = apply_local(t, s, _wires((q,), num_qubits))
    return t.reshape(rho.shape)


def measure_probabilities(rho: np.ndarray, setting: str) -> np.ndarray:
    """Outcome probabilities for a per-qubit Pauli measurement setting.

    ``setting`` is a string over {X, Y, Z}, one letter per qubit.  Each
    qubit is rotated into the computational frame by its :data:`MEAS_GATES`
    entry and the diagonal is read out.  Outcome index treats qubit 0 as
    the most significant bit.
    """
    rho = as_complex_matrix(rho)
    num_qubits = len(setting)
    if rho.shape != (2**num_qubits, 2**num_qubits):
        raise ValueError(f"state dim {rho.shape[0]} does not match setting {setting!r}")
    return recorded_probabilities(np.diagonal(evolve(rho, measurement_circuit(setting))).real)


def apply_confusion(probs: np.ndarray, confusion) -> np.ndarray:
    """Recorded-outcome probabilities ``(C_0 (x) ... (x) C_{K-1}) p`` of a vector or a stack.

    Qubit q's column-stochastic 2x2 matrix acts along its axis of ``probs``
    viewed as ``(..., 2, ..., 2)``; no 2^K x 2^K matrix is built.
    """
    probs = np.asarray(probs, dtype=float)
    if 2 ** (k := len(confusion)) != probs.shape[-1]:  # one matrix per qubit, before any reshape
        raise ValueError(f"{k} confusion matrices for {probs.shape[-1]} outcomes; 2^K outcomes take K")
    t = probs.reshape(probs.shape[:-1] + (2,) * k)
    for q, m in enumerate(confusion):
        t = apply_local(t, column_stochastic(m, q), [t.ndim - k + q])
    return t.reshape(probs.shape)


def recorded_probabilities(probs: np.ndarray) -> np.ndarray:
    """Outcome probabilities (a vector or a stack) as recorded: each vector must sum
    to 1 within 1e-9; it is then clipped at 0 and renormalised.  Readout confusion
    is not applied here: tomography folds it into each qubit's frame, and
    :func:`circuit_probabilities` applies it to the result.
    """
    total = probs.sum(axis=-1)
    if np.abs(total - 1.0).max() > 1e-9:
        bad = total.flat[np.abs(total - 1.0).argmax()]
        raise ValueError(f"probabilities sum to {bad:.6g}, state is not normalized")
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum(axis=-1, keepdims=True)
    return probs


def circuit_probabilities(c: Circuit, noise: NoiseModel | None = None) -> np.ndarray:
    """Probabilities of the recorded Z-basis outcomes of a circuit run from the ground state.

    With a noise model the circuit is first lowered to the native gate set
    so calibrated per-gate noise applies, and readout decay
    (:func:`apply_measure_noise`) and confusion act in the read-out.
    """
    rho = apply_measure_noise(simulate(c, noise), noise, c.num_qubits)
    probs = recorded_probabilities(np.diagonal(rho).real)
    return probs if noise is None else apply_confusion(probs, noise.confusion_for(c.num_qubits))


@dataclass(frozen=True)
class CountsTable:
    """Measured outcome counts; bitstring keys, qubit 0 leftmost."""

    shots: int
    counts: dict[str, int]

    def __post_init__(self):
        if any(n < 0 for n in self.counts.values()):
            raise ValueError("counts must be non-negative")
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts do not sum to the shot total")

    @classmethod
    def _unchecked(cls, shots: int, counts: dict[str, int]) -> "CountsTable":
        """A table of counts its caller has already checked: ``__post_init__`` does not run."""
        table = object.__new__(cls)
        table.__dict__["shots"], table.__dict__["counts"] = shots, counts
        return table

    def frequency(self, outcome: str) -> float:
        return self.counts.get(outcome, 0) / self.shots

    def to_dict(self) -> dict:
        return {"shots": self.shots, "counts": dict(sorted(self.counts.items()))}


def draw_counts(probs: np.ndarray, shots: int, seed) -> np.ndarray:
    """Multinomial count vectors of ``shots`` draws, one per row of ``probs``.

    One ``default_rng(seed)`` (an int, a ``SeedSequence`` or a ``Generator``
    seed) draws the rows in order in one call, as a row-by-row loop on it
    would.  Each row is clipped at 0, normalised and rounded onto the 2^-40
    grid first, or counts would hang on the simulator's last bits: numpy's
    binomial draws n - Bin(n, 1 - p) for a conditional p > 0.5, so one ulp at
    a conditional of exactly 0.5 swaps two counts, and a zero left at 1e-33
    takes a draw from the generator that shifts the later outcomes and rows.
    Raises unless ``shots`` fits the generator's 64-bit count.
    """
    if shots >= 2**63:
        raise ValueError(f"shots {shots} exceeds the largest drawable count, 2**63 - 1")
    p = np.clip(probs, 0.0, None)
    p = p / p.sum(axis=-1, keepdims=True)
    p = np.round(p * 2.0**40) * 2.0**-40
    p = p / p.sum(axis=-1, keepdims=True)
    return np.random.default_rng(seed).multinomial(shots, p)


def sample_counts(
    probs: np.ndarray,
    shots: int,
    seed,
    confusion=None,
) -> CountsTable:
    """Multinomial shot sampling, optionally through readout confusion.

    The draw is :func:`draw_counts` on one row: ``seed`` may be an int, a
    ``SeedSequence`` or a ``Generator``, and identical seeds give identical
    tables.  When ``confusion`` (a sequence of 2x2 column-stochastic
    matrices, one per qubit) is given, :func:`apply_confusion` maps ``probs``
    before the draw, as if each sampled bit flipped per its matrix.  Raises
    unless ``shots`` is a whole number > 0, no probability is below -1e-8,
    and ``probs`` is one vector of length 2^K that sums to 1 within 1e-8.
    """
    probs = np.asarray(probs, dtype=float)
    shots = whole_number(shots, "shots")
    if shots <= 0:
        raise ValueError("shots > 0 required")
    if probs.ndim != 1:
        raise ValueError(f"probabilities must be one vector, not an array of shape {probs.shape}")
    if probs.min() < -1e-8:
        raise ValueError(f"negative probability {probs.min():.3e}")
    num_qubits = int(round(np.log2(probs.shape[-1])))
    if 2**num_qubits != probs.shape[-1]:
        raise ValueError("probability vector length must be a power of two")
    if abs(probs.sum() - 1.0) > 1e-8:
        raise ValueError(f"probabilities sum to {probs.sum():.6g}")
    p = probs if confusion is None else apply_confusion(probs, confusion)
    vec = draw_counts(p[None], shots, seed)[0].tolist()
    return CountsTable(shots, dict(zip(product_labels("01", num_qubits), vec)))
