"""Process tomography: plan generation, execution, reconstruction, projection.

The pipeline mirrors how one characterizes a gate on hardware:

1. prepare each qubit in one of {|0>, |1>, |+>, |+i>} (informationally
   complete product set) by the gates of its token in ``_PREP_GATES``,
2. measure every qubit in each of the X/Y/Z bases (all outcomes kept),
   rotated into the computational frame by ``simulator.MEAS_GATES``; both
   the circuits that run and the states and projectors that linear
   inversion assumes derive from these two gate tables, and every plan is
   the full 4^K x 3^K product of their tokens,
3. run the target between preparation and basis rotation; the frequencies
   are one (4^K, 3^K, 2^K) array, axes (preparation, setting, outcome).
   The simulation uses the plan's product structure instead of composing
   4^K x 3^K circuits, and simulates preparation and read-out per qubit,
   because their noise acts on one qubit at a time: the prepared stack
   grows one qubit at a time (3K stacked evolutions), the target runs once
   on the stack of 4^K prepared states, and each qubit's 3 basis changes
   and readout decay run once on its four matrix units |i><j|; contracting
   the target outputs with these K per-qubit effect tensors gives the
   probabilities, and every job's shots are drawn in one pass,
4. invert the Born-rule linear system for the Choi matrix qubit by qubit:
   the plan is a tensor product of one 4-preparation x 3-setting plan per
   qubit, so the least-squares solution applies the pseudo-inverse of the
   24 x 16 one-qubit design matrix, built once from the token tables,
   along each qubit axis of the frequency tensor (no dense 24^K x 16^K
   system is ever built),
5. optionally project the estimate onto the CPTP set: the nearest CPTP
   point is the PSD clip of ``R + L (x) I`` for the d x d Hermitian L that
   makes it trace preserving, and a dual Newton-CG solve finds L in a few
   eigendecompositions (see :func:`project_cptp`).

Per-job RNG seeds derive from ``SeedSequence((base_seed, job_index))`` so
jobs are independent and insensitive to execution order.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .channels import ChoiMatrix, choi_from_unitary, pauli_basis
from .gates import Circuit, circuit_unitary
from .linalg import dagger, frobenius, kron_all, partial_trace, whole_number
from .metrics import FidelityReport, fidelity_report
from .noise import NoiseModel
from .simulator import (
    MEAS_GATES,
    CountsTable,
    _token_circuit,
    apply_measure_noise,
    check_sampling,
    draw_counts,
    evolve,
    ground_state,
    recorded_probabilities,
)

# Per-qubit preparation from |0> for each token, as (gate, *params) entries
# applied in order; 'i' is the +1 eigenstate of Y.  Table order is plan order.
_PREP_GATES = {"0": (), "1": (("X",),), "+": (("H",),), "i": (("H",), ("Ph", math.pi / 2))}

# One-qubit rotation of each measurement basis into the computational frame.
_MEAS_ROT = {b: circuit_unitary(_token_circuit(b, MEAS_GATES, 1, "")) for b in MEAS_GATES}

PREP_TOKENS = tuple(_PREP_GATES)
SETTING_TOKENS = tuple(MEAS_GATES)


def _product_labels(tokens: tuple[str, ...], num_qubits: int) -> tuple[str, ...]:
    return tuple("".join(t) for t in itertools.product(tokens, repeat=num_qubits))


@dataclass(frozen=True)
class TomographyPlan:
    """Full factorial schedule: every K-fold product of ``PREP_TOKENS`` (4^K
    preparations) crossed with every K-fold product of ``SETTING_TOKENS``
    (3^K settings), each job run for ``shots`` shots."""

    num_qubits: int
    shots: int

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be at least 1")

    @property
    def preparations(self) -> tuple[str, ...]:
        return _product_labels(PREP_TOKENS, self.num_qubits)

    @property
    def settings(self) -> tuple[str, ...]:
        return _product_labels(SETTING_TOKENS, self.num_qubits)

    @property
    def num_jobs(self) -> int:
        return len(self.preparations) * len(self.settings)

    def jobs(self):
        """Canonical job order: preparation-major, setting-minor."""
        for prep in self.preparations:
            for setting in self.settings:
                yield prep, setting


def build_plan(num_qubits: int, shots: int = 4000) -> TomographyPlan:
    """The 4^K x 3^K :class:`TomographyPlan` on ``num_qubits`` wires."""
    return TomographyPlan(num_qubits, shots)


def prep_circuit(label: str, num_qubits: int | None = None) -> Circuit:
    """Circuit preparing the labeled product state from |0...0> (see ``_PREP_GATES``)."""
    return _token_circuit(label, _PREP_GATES, num_qubits, "preparation token")


def prep_density(label: str) -> np.ndarray:
    """Density matrix of the labeled product state, from its preparation circuit."""
    psi = circuit_unitary(prep_circuit(label))[:, 0]
    return np.outer(psi, psi.conj())


def measurement_circuit(setting: str, num_qubits: int | None = None) -> Circuit:
    """Basis-change circuit rotating the setting into the computational frame."""
    return _token_circuit(setting.upper(), MEAS_GATES, num_qubits, "measurement basis")


def outcome_projector(setting: str, outcome: int) -> np.ndarray:
    """Projector (in the unrotated frame) for one outcome of a setting."""
    mats = []
    num_qubits = len(setting)
    for q, basis in enumerate(setting.upper()):
        row = _MEAS_ROT[basis][(outcome >> (num_qubits - 1 - q)) & 1]
        mats.append(np.outer(row.conj(), row))  # R^dag |bit><bit| R
    return kron_all(mats)


# One ``jobs`` entry of ``dataset.json``: ``_JOB % data_block`` is the entry's template.
_JOB = '    {\n      %s,\n      "prep": "%%s",\n      "setting": "%%s"\n    }'


@dataclass(frozen=True)
class TomographyDataset:
    """Frequencies of every plan job as one ``(4^K, 3^K, 2^K)`` array with axes
    (preparation, setting, outcome) in plan order; ``counts`` maps each job to
    its sampled :class:`CountsTable`, or is ``None`` for exact probabilities."""

    plan: TomographyPlan
    frequencies: np.ndarray
    counts: dict[tuple[str, str], CountsTable] | None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        k = self.plan.num_qubits
        shape = (len(PREP_TOKENS) ** k, len(SETTING_TOKENS) ** k, 2**k)
        if np.shape(self.frequencies) != shape:
            raise ValueError(f"frequencies have shape {np.shape(self.frequencies)}, not {shape}")
        if not np.isfinite(self.frequencies).all():
            raise ValueError("frequencies must be finite")
        if self.counts is not None and self.counts.keys() != set(self.plan.jobs()):
            raise ValueError("counts do not cover exactly the plan's jobs")

    def to_dict(self) -> dict:
        jobs = []
        rows = np.reshape(self.frequencies, (self.plan.num_jobs, -1))
        for (prep, setting), row in zip(self.plan.jobs(), rows):
            entry: dict = {"prep": prep, "setting": setting}
            if self.counts is not None:
                entry["counts"] = self.counts[(prep, setting)].to_dict()
            else:
                entry["frequencies"] = [float(f) for f in row]
            jobs.append(entry)
        return {
            "num_qubits": self.plan.num_qubits,
            "shots": self.plan.shots,
            "metadata": self.metadata,
            "jobs": jobs,
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2, sort_keys=True)``, written from one
        template per job layout (``%r`` writes the finite frequencies as json does)."""
        if self.counts is None:
            floats = ",\n".join(["        %r"] * 2**self.plan.num_qubits)
            template = _JOB % ('"frequencies": [\n%s\n      ]' % floats)
            rows = np.reshape(self.frequencies, (self.plan.num_jobs, -1)).tolist()
            jobs = [template % (*row, *key) for key, row in zip(self.plan.jobs(), rows)]
        else:
            jobs, templates = [], {}  # one template per sorted outcome-key tuple
            for key in self.plan.jobs():
                tab = self.counts[key]
                outcomes = tuple(sorted(tab.counts))
                if outcomes not in templates:
                    lines = [f"          {json.dumps(o).replace('%', '%%')}: %d" for o in outcomes]
                    inner = "{\n" + ",\n".join(lines) + "\n        }" if lines else "{}"
                    block = '"counts": {\n        "counts": ' + inner + ',\n        "shots": %d\n      }'
                    templates[outcomes] = _JOB % block
                jobs.append(templates[outcomes] % (*map(tab.counts.get, outcomes), tab.shots, *key))
        metadata = json.dumps(self.metadata, indent=2, sort_keys=True).replace("\n", "\n  ")
        return '{\n  "jobs": [\n%s\n  ],\n  "metadata": %s,\n  "num_qubits": %d,\n  "shots": %d\n}' % (
            ",\n".join(jobs), metadata, self.plan.num_qubits, self.plan.shots
        )

    @classmethod
    def from_dict(cls, d: dict) -> "TomographyDataset":
        try:
            plan = build_plan(*(whole_number(d[f], f) for f in ("num_qubits", "shots")))
            k, keys = plan.num_qubits, list(plan.jobs())
            jobs = {(j["prep"], j["setting"]): j for j in d["jobs"]}
            missing = [key for key in keys if key not in jobs]
            if missing:
                raise ValueError(f"dataset is missing {len(missing)} plan job(s), e.g. {missing[0]}")
            outcomes = set(_product_labels(("0", "1"), k))
            counts = {} if any("counts" in jobs[key] for key in keys) else None
            rows = []
            for key in keys:
                if counts is not None:
                    if "counts" not in jobs[key]:
                        raise ValueError(f"job {key} has no counts, but other jobs of the dataset do")
                    counts[key] = tab = CountsTable.from_dict(jobs[key]["counts"])
                    if tab.shots != plan.shots:
                        msg = f"job {key} has {tab.shots} shots, not the dataset's {plan.shots}"
                        raise ValueError(msg)
                    unknown = sorted(set(tab.counts) - outcomes)
                    if unknown:
                        msg = f"job {key} has counts for {unknown}, which are not {k}-bit outcomes"
                        raise ValueError(msg)
                    rows.append(tab.as_vector(k) / tab.shots)
                    continue
                f = np.asarray(jobs[key]["frequencies"], dtype=float)
                if f.shape != (2**k,):
                    raise ValueError(f"job {key} has {f.size} frequencies, expected {2**k}")
                if not (f.min() >= -1e-9 and abs(f.sum() - 1.0) <= 1e-9):
                    raise ValueError(f"job {key} frequencies {f.tolist()} are not probabilities")
                rows.append(f)
            metadata = dict(d.get("metadata", {}))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed dataset record: {exc}") from exc
        shape = (len(plan.preparations), len(plan.settings), 2**k)
        return cls(plan, np.reshape(rows, shape), counts, metadata)


def _readout_effects(q: int, num_qubits: int, noise: NoiseModel | None) -> np.ndarray:
    """Qubit q's read-out tensor ``R[b, o, i, j] = <o| decay(basis_b(|i><j|)) |o>``.

    ``b`` runs over ``SETTING_TOKENS``.  The four matrix units ``|i><j|`` of
    qubit q, with every other wire at ``|0><0|``, run through the basis
    change of ``b`` on qubit q (and ``Z`` elsewhere), then readout decay;
    the other wires' trace-preserving noise leaves qubit q's marginal of the
    diagonal unchanged.
    """
    d, shift = 2**num_qubits, num_qubits - 1 - q
    units = np.zeros((2, 2, d, d), dtype=complex)
    for i, j in itertools.product((0, 1), repeat=2):
        units[i, j, i << shift, j << shift] = 1.0
    units = units.reshape(4, d, d)
    rotated = []
    for b in SETTING_TOKENS:
        c = measurement_circuit("Z" * q + b + "Z" * shift, num_qubits)
        rotated.append(evolve(units, c, noise) if c.gates else units)
    rho = apply_measure_noise(np.concatenate(rotated), noise, num_qubits)
    diag = np.diagonal(rho, axis1=-2, axis2=-1).reshape((-1, 2, 2) + (2,) * num_qubits)
    marginal = diag.sum(axis=tuple(3 + w for w in range(num_qubits) if w != q))  # (b, i, j, o)
    return marginal.transpose(0, 3, 1, 2)


def execute_plan(
    plan: TomographyPlan,
    target: Circuit,
    noise: NoiseModel | None = None,
    seed: int = 0,
    exact: bool = False,
) -> TomographyDataset:
    """Simulate every (preparation, setting) job of the plan.

    Nothing is simulated per job, and preparation and read-out are simulated
    per qubit, because their noise acts on one qubit at a time:

    - the prepared stack grows one qubit at a time: each of the qubit's
      preparation tokens runs once on the stack of the qubits before it
      (3K :func:`choiqpt.simulator.evolve` calls; token ``0`` has no gates);
    - the target runs once on the stack of the 4^K prepared states;
    - each qubit's basis changes and readout decay run once on its four
      matrix units (:func:`_readout_effects`), and contracting the target
      outputs with these K effect tensors gives the ``(4^K, 3^K, 2^K)``
      probabilities, which readout confusion then maps.

    ``exact=True`` records these probabilities as the frequencies; otherwise
    job i draws its counts from ``SeedSequence((seed, i))`` in one pass, and
    the frequencies are the stacked count vectors, per shot.
    """
    if target.num_qubits != plan.num_qubits:
        raise ValueError("target width does not match the plan")
    k, d = plan.num_qubits, 2**plan.num_qubits
    prepared = ground_state(k)[None]
    for q in range(k):
        stacks = []
        for token in PREP_TOKENS:
            c = prep_circuit("0" * q + token + "0" * (k - 1 - q), k)
            stacks.append(evolve(prepared, c, noise) if c.gates else prepared)
        prepared = np.stack(stacks, axis=1).reshape(-1, d, d)  # qubit 0 stays most significant
    x = evolve(prepared, target, noise).reshape((-1,) + (2,) * (2 * k))
    for q in range(k):
        # qubit q's (row, col) axes -> its (basis, outcome) axes at the end
        x = np.tensordot(x, _readout_effects(q, k, noise), axes=((1, 1 + k - q), (2, 3)))
    x = x.transpose([0] + [1 + 2 * q for q in range(k)] + [2 + 2 * q for q in range(k)])
    shape = (len(plan.preparations), len(plan.settings), d)
    freqs = recorded_probabilities(x.real.reshape(shape), noise)
    counts = None
    if not exact:  # the flattened (prep, setting) axes are in preparation-major job order
        rows = freqs.reshape(plan.num_jobs, d)
        check_sampling(rows, plan.shots)
        seeds = (np.random.SeedSequence((seed, i)) for i in range(plan.num_jobs))
        drawn = draw_counts(rows, plan.shots, seeds)
        labels = _product_labels(("0", "1"), k)
        counts = {
            key: CountsTable(plan.shots, dict(zip(labels, row)))
            for key, row in zip(plan.jobs(), drawn.tolist())
        }
        freqs = drawn.reshape(shape) / plan.shots
    metadata = {"seed": seed, "exact": exact, "noise": noise.label if noise is not None else None}
    return TomographyDataset(plan, freqs, counts, metadata)


# ---------------------------------------------------------------------------
# Linear-inversion reconstruction
# ---------------------------------------------------------------------------


def _one_qubit_dual() -> np.ndarray:
    """Dual frame of the one-qubit design ``A1``, axes (prep, setting, outcome, operator).

    ``A1[(p, s, b), (a, c)] = Tr[(prep_p^T (x) projector_sb) (P_a (x) P_c) / 2]``
    over the normalised Pauli operators on one qubit's (input, output) pair
    and the rows of ``PREP_TOKENS`` x ``SETTING_TOKENS`` x {0, 1}.  The dual
    row ``(p, s, b)`` is ``sum_a pinv(A1)[a, (p, s, b)] ops[a]`` with operator
    axes (in row, out row, in col, out col).  Raises if ``A1`` is rank
    deficient, i.e. the token tables do not span the operator space.
    """
    ops = np.stack(pauli_basis(2).operators) / 2  # (P_a (x) P_c) / 2 on (input, output)
    rows = [
        np.kron(prep_density(p).T, outcome_projector(s, b))
        for p in PREP_TOKENS for s in SETTING_TOKENS for b in (0, 1)
    ]
    a1 = np.einsum("rij,aji->ra", np.stack(rows), ops).real
    rank = np.linalg.matrix_rank(a1)
    if rank < 16:
        raise ValueError(
            f"one-qubit design matrix rank {rank} < 16: tokens are not informationally complete"
        )
    dual = np.tensordot(np.linalg.pinv(a1), ops.reshape(16, 2, 2, 2, 2), axes=(0, 0))
    return dual.reshape(len(PREP_TOKENS), len(SETTING_TOKENS), 2, 2, 2, 2, 2)


_DUAL = _one_qubit_dual()


def linear_inversion(dataset: TomographyDataset) -> ChoiMatrix:
    """Least-squares Choi estimate from measured frequencies.

    The K-qubit design matrix is a row- and column-permuted
    ``kron(A1, ..., A1)`` of the one-qubit design (see
    :func:`_one_qubit_dual`), so its pseudo-inverse is applied one qubit
    axis at a time.  Exact probabilities recover the true Choi matrix to
    solver precision; finite-shot input yields a Hermitian but possibly
    non-PSD estimate.
    """
    k = dataset.plan.num_qubits
    shape = (len(PREP_TOKENS),) * k + (len(SETTING_TOKENS),) * k + (2,) * k
    x = np.reshape(dataset.frequencies, shape)
    for remaining in range(k, 0, -1):
        # leading qubit's (prep, setting, outcome) axes -> its 4 operator axes at the end
        x = np.tensordot(x, _DUAL, axes=((0, remaining, 2 * remaining), (0, 1, 2)))
    # axes now (in row, out row, in col, out col) per qubit; Choi order is inputs first
    x = x.transpose([4 * q + role for role in range(4) for q in range(k)])
    d = 2**k
    return ChoiMatrix(d, d, x.reshape(d * d, d * d))


# ---------------------------------------------------------------------------
# CPTP projection
# ---------------------------------------------------------------------------

CPTP_TOL = 1e-10
CPTP_MAX_ITER = 100


@dataclass(frozen=True)
class ProjectionResult:
    """Projected Choi matrix; ``iterations`` counts Newton steps and ``delta``
    is the final trace-preserving residual ``||Tr_out C - I||_F``.  With R the
    Hermitian part of the raw estimate, ``distance`` is ``||C - R||_F`` and
    ``raw_min_eig`` the least eigenvalue of R."""

    choi: ChoiMatrix
    converged: bool
    iterations: int
    delta: float
    distance: float
    raw_min_eig: float


def _dual_point(r: np.ndarray, lam: np.ndarray):
    """Eigenpairs of ``R + L (x) I``, their PSD clip C, the dual gradient
    ``Tr_out C - I`` and the dual objective ``||C||_F^2 / 2 - Tr L``."""
    d = lam.shape[0]
    w, v = np.linalg.eigh(r + np.kron(lam, np.eye(d)))
    p = np.clip(w, 0.0, None)
    c = (v * p) @ dagger(v)
    return w, v, c, partial_trace(c, d, d) - np.eye(d), 0.5 * p @ p - np.trace(lam).real


def _newton_step(grad: np.ndarray, w: np.ndarray, v: np.ndarray, mu: float, tol: float):
    """Conjugate-gradient solve of ``(H + mu) s = -grad`` to residual ``tol``.

    H is the generalized Hessian of the dual at the eigenpairs (w, v) of
    ``R + L (x) I``: ``H(E) = Tr_out[V (Omega o V^dag (E (x) I) V) V^dag]``
    with ``Omega_ab = (max(w_a, 0) - max(w_b, 0)) / (w_a - w_b)``, which is 1
    where both eigenvalues are positive and 0 where neither is.  Each product
    costs two D x D matmuls; no D^2 x D^2 matrix is built.
    """
    d = grad.shape[0]
    p, pos = np.clip(w, 0.0, None), w > 0
    omega = np.divide(
        np.subtract.outer(p, p),
        np.subtract.outer(w, w),
        out=np.logical_and.outer(pos, pos).astype(float),
        where=np.not_equal.outer(pos, pos),
    )
    v_in = v.reshape(d, -1)  # rows: input index; columns: (output index, eigenvector)
    v_dag = dagger(v)

    def hessian(e):
        y = v_dag @ (e @ v_in).reshape(v.shape)  # V^dag (E (x) I) V
        return (v @ (omega * y)).reshape(d, -1) @ dagger(v_in) + mu * e

    step, res = np.zeros_like(grad), -grad
    direction, rho = res, np.vdot(res, res).real
    for _ in range(d * d):  # the real dimension of the d x d Hermitian matrices
        h = hessian(direction)
        a = rho / np.vdot(direction, h).real
        step, res = step + a * direction, res - a * h
        rho, prev = np.vdot(res, res).real, rho
        if rho < tol**2:
            break
        direction = res + (rho / prev) * direction
    return step


def project_cptp(
    raw: ChoiMatrix, tol: float = CPTP_TOL, max_iter: int = CPTP_MAX_ITER
) -> ProjectionResult:
    """Nearest CPTP Choi matrix in Frobenius norm, by a Newton-CG solve of the dual.

    With R the Hermitian part of ``raw`` and P+ the eigenvalue clip onto
    the PSD cone, the nearest CPTP point is ``C(L) = P+(R + L (x) I)`` for
    the d x d Hermitian L that minimises the convex dual
    ``theta(L) = ||P+(R + L (x) I)||_F^2 / 2 - Tr L``.  Its gradient is the
    trace-preserving residual ``Tr_out C(L) - I``, so every iterate is PSD
    and only trace preservation is solved for.  This is the semismooth
    Newton method of the nearest correlation matrix (Qi & Sun, SIAM J.
    Matrix Anal. Appl. 28, 360 (2006)) with the partial trace in place of
    the diagonal.

    The solve starts from the trace-preserving shift
    ``L = (I - Tr_out R) / d``, so a raw estimate whose shift is already
    PSD takes no step.  Each Newton step solves ``(H + mu) s = -g`` by
    conjugate gradients (:func:`_newton_step`), with ``mu = min(1e-4, |g|)``,
    and backtracks until theta shows sufficient decrease or the residual
    shrinks (near the solution theta's decrease falls below its rounding).
    Stops once ``delta = ||Tr_out C - I||_F`` is below ``tol``;
    ``iterations`` counts Newton steps, and after ``max_iter`` steps the
    last iterate is returned flagged as non-converged.
    """
    if raw.dim_in != raw.dim_out:
        msg = f"CPTP projection needs dim_in == dim_out, got {raw.dim_in} and {raw.dim_out}"
        raise ValueError(msg)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    d = raw.dim_in
    r = 0.5 * (raw.matrix + dagger(raw.matrix))
    lam = (np.eye(d) - partial_trace(r, d, d)) / d
    w, v, c, grad, theta = _dual_point(r, lam)
    delta, steps = frobenius(grad), 0
    while delta >= tol and steps < max_iter:
        steps += 1
        # forcing term min(0.1, |g|) |g| for quadratic convergence, floored at
        # tol / 10: the stopping rule needs no more, and CG stalls in rounding below it
        cg_tol = max(min(0.1, delta) * delta, 0.1 * tol)
        step = _newton_step(grad, w, v, min(1e-4, delta), cg_tol)
        slope, alpha = np.vdot(grad, step).real, 1.0
        for _ in range(30):
            trial_lam = lam + alpha * step
            trial = _dual_point(r, trial_lam)
            trial_delta = frobenius(trial[3])
            if trial[4] <= theta + 1e-4 * alpha * slope or trial_delta < delta:
                break
            alpha /= 2
        lam, delta, (w, v, c, grad, theta) = trial_lam, trial_delta, trial
    distance, raw_min_eig = frobenius(c - r), float(np.linalg.eigvalsh(r)[0])
    return ProjectionResult(ChoiMatrix(d, d, c), delta < tol, steps, delta, distance, raw_min_eig)


# ---------------------------------------------------------------------------
# End-to-end pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReconstructionOptions:
    """Reconstruction method; ``cptp_tol`` and ``max_iterations`` are the project_cptp defaults."""

    method: str = "linear_inversion_then_cptp"  # or "linear_inversion"
    cptp_tol: ClassVar[float] = CPTP_TOL
    max_iterations: ClassVar[int] = CPTP_MAX_ITER

    def __post_init__(self):
        if self.method not in ("linear_inversion", "linear_inversion_then_cptp"):
            raise ValueError(f"unknown reconstruction method {self.method!r}")


@dataclass(frozen=True)
class QptResult:
    choi: ChoiMatrix
    raw_choi: ChoiMatrix
    ideal_choi: ChoiMatrix
    report: FidelityReport
    dataset: TomographyDataset
    converged: bool
    projection: ProjectionResult | None = None  # diagnostics; not written to report.json

    def report_dict(self, shots: int | None = None, seed: int | None = None) -> dict:
        out = self.report.to_dict()
        out["converged"] = self.converged
        if shots is not None:
            out["shots"] = shots
        if seed is not None:
            out["seed"] = seed
        return out


def qpt(
    target: Circuit,
    noise: NoiseModel | None = None,
    shots: int = 4000,
    seed: int = 0,
    options: ReconstructionOptions | None = None,
    exact: bool = False,
) -> QptResult:
    """Full tomography of a circuit: plan, execute, invert, project, score.

    The fidelity in the report compares the estimate against the Choi
    matrix of the target's ideal unitary.
    """
    options = options or ReconstructionOptions()
    plan = build_plan(target.num_qubits, shots)
    dataset = execute_plan(plan, target, noise=noise, seed=seed, exact=exact)
    raw = linear_inversion(dataset)
    proj = None
    if options.method == "linear_inversion_then_cptp":
        proj = project_cptp(raw)
        choi, converged = proj.choi, proj.converged
    else:
        choi, converged = raw, True
    ideal = choi_from_unitary(circuit_unitary(target))
    report = fidelity_report(choi, ideal)
    return QptResult(choi, raw, ideal, report, dataset, converged, proj)
