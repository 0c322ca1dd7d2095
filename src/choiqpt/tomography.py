"""Process tomography: plan generation, execution, reconstruction, projection.

The pipeline mirrors how one characterizes a gate on hardware:

1. prepare each qubit in one of {|0>, |1>, |+>, |+i>} (informationally
   complete product set) by the gates of its token in ``_PREP_GATES``,
2. measure every qubit in each of the X/Y/Z bases (all outcomes kept),
   rotated into the computational frame by ``simulator.MEAS_GATES``; every
   plan is the full 4^K x 3^K product of the two tables' tokens,
3. run the target once, on the d^2 matrix units |i><j|, for the channel's
   Choi matrix (:func:`channel_choi`).  Preparation and read-out noise act
   on one qubit at a time, so each qubit's Born rule is one 24 x 16 frame
   (:func:`_frame`) of its SPAM table (:func:`_spam_table`: its 4 prepared
   states and its read-out tensor, simulated on one wire from the two gate
   tables, its readout confusion folded in).  Applying each frame along its
   qubit's axes of the Choi matrix (:func:`linalg.along_qubits`) gives the
   (4^K, 3^K, 2^K) recorded probabilities, axes (preparation, setting,
   outcome).  They depend on neither seed nor shots, so :func:`_probabilities`
   memoises them under the package's one memo policy (``simulator._memo_upto``),
4. invert the Born rule the same way: the pseudo-inverse of the noiseless
   frame acts along each qubit's axes of the frequencies (again
   :func:`linalg.along_qubits`; no dense 24^K x 16^K system is built),
5. optionally project the estimate onto the CPTP set: the nearest CPTP
   point is the PSD clip of ``R + L (x) I`` for the d x d Hermitian L that
   makes it trace preserving, and a dual Newton-CG solve finds L in a few
   eigendecompositions (see :func:`project_cptp`).

A sampled plan is one random stream: ``simulator.draw_counts`` draws every
job's counts, in job order, from one generator seeded by ``SeedSequence(seed)``.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import ClassVar

import numpy as np

from .channels import ChoiMatrix, choi_from_unitary, read_only
from .gates import Circuit, circuit_unitary
from .linalg import along_qubits, dagger, finite_number, frobenius, product_labels, whole_number
from .metrics import FidelityReport, fidelity_report
from .noise import NoiseModel
from .simulator import (
    MEAS_GATES,
    CountsTable,
    _memo_upto,
    _token_circuit,
    apply_measure_noise,
    draw_counts,
    evolve,
    ground_state,
    measurement_circuit,
    recorded_probabilities,
)

# Per-qubit preparation from |0> for each token, as (gate, *params) entries
# applied in order; 'i' is the +1 eigenstate of Y.  Table order is plan order.
_PREP_GATES = {"0": (), "1": (("X",),), "+": (("H",),), "i": (("H",), ("Ph", math.pi / 2))}

PREP_TOKENS = tuple(_PREP_GATES)
SETTING_TOKENS = tuple(MEAS_GATES)


def _record_shape(k: int) -> tuple[int, int, int]:
    """A K-qubit plan's record axes: (preparation, setting, outcome)."""
    return len(PREP_TOKENS) ** k, len(SETTING_TOKENS) ** k, 2**k


@dataclass(frozen=True)
class TomographyPlan:
    """Full factorial schedule: every K-fold product of ``PREP_TOKENS`` (4^K
    preparations) crossed with every K-fold product of ``SETTING_TOKENS``
    (3^K settings), each job run for ``shots`` shots (``None``: exact probabilities)."""

    num_qubits: int
    shots: int | None

    def __post_init__(self):  # stores both as ints
        k = whole_number(self.num_qubits, "num_qubits")
        shots = None if self.shots is None else whole_number(self.shots, "shots")
        if k < 1 or shots is not None and shots < 1:
            raise ValueError(f"plan needs num_qubits, shots >= 1, not {k}, {shots}")
        if shots is not None and shots >= 2**63:  # as in draw_counts, before simulating
            raise ValueError(f"shots {shots} exceeds the largest drawable count, 2**63 - 1")
        object.__setattr__(self, "num_qubits", k)
        object.__setattr__(self, "shots", shots)

    @property
    def preparations(self) -> tuple[str, ...]:
        return product_labels(PREP_TOKENS, self.num_qubits)

    @property
    def settings(self) -> tuple[str, ...]:
        return product_labels(SETTING_TOKENS, self.num_qubits)

    @property
    def num_jobs(self) -> int:
        return (len(PREP_TOKENS) * len(SETTING_TOKENS)) ** self.num_qubits

    def jobs(self):
        """Canonical job order: preparation-major, setting-minor; labels are built lazily."""
        k = self.num_qubits
        for prep in map("".join, itertools.product(PREP_TOKENS, repeat=k)):
            for setting in map("".join, itertools.product(SETTING_TOKENS, repeat=k)):
                yield prep, setting

    def has_job(self, key: tuple[str, str]) -> bool:
        """Whether ``key`` is a job of the plan, read from its tokens without listing the plan."""
        return all(
            isinstance(label, str) and len(label) == self.num_qubits and set(label) <= set(tokens)
            for label, tokens in zip(key, (PREP_TOKENS, SETTING_TOKENS))
        )


def build_plan(num_qubits: int, shots: int | None = 4000) -> TomographyPlan:
    """The 4^K x 3^K :class:`TomographyPlan` on ``num_qubits`` wires; ``shots=None`` is exact."""
    return TomographyPlan(num_qubits, shots)


def prep_circuit(label: str, num_qubits: int | None = None) -> Circuit:
    """Circuit preparing the labeled product state from |0...0> (see ``_PREP_GATES``)."""
    return _token_circuit(label, _PREP_GATES, num_qubits, "preparation token")


def _spam_table(noise: NoiseModel | None) -> tuple[np.ndarray, np.ndarray]:
    """One qubit's prepared states and read-out tensor, from one-qubit simulations.

    Returns the states of ``PREP_TOKENS`` prepared from ``|0>``, shape
    ``(4, 2, 2)``, and ``R[b, o, i, j] = sum_m C[o, m] <m| decay(basis_b(|i><j|)) |m>``,
    shape ``(3, 2, 2, 2)``: the four matrix units ``|i><j|`` run through the
    basis change of each of ``SETTING_TOKENS``, readout decay and the qubit's
    confusion matrix ``C`` (a complex product: no imaginary part is dropped).
    ``noise`` is a one-qubit model (:meth:`NoiseModel.on_qubit`), or ``None``: ``C = I``.
    """
    prep = np.concatenate([evolve(ground_state(1)[None], prep_circuit(t, 1), noise) for t in PREP_TOKENS])
    units = np.eye(4, dtype=complex).reshape(4, 2, 2)
    rotated = np.concatenate([evolve(units, measurement_circuit(b, 1), noise) for b in SETTING_TOKENS])
    diag = np.diagonal(apply_measure_noise(rotated, noise, 1), axis1=-2, axis2=-1)
    if noise is not None:
        diag = diag @ noise.confusion_for(1)[0].T
    return prep, diag.reshape(len(SETTING_TOKENS), 2, 2, 2).transpose(0, 3, 1, 2)


# One ``jobs`` entry of ``dataset.json``: ``_JOB % data_block`` is the entry's template.
_JOB = '    {\n      %s,\n      "prep": "%%s",\n      "setting": "%%s"\n    }'


@dataclass(frozen=True, eq=False)  # compared and hashed by identity, as arrays have no ==
class TomographyDataset:
    """Every plan job's record as one read-only ``(4^K, 3^K, 2^K)`` array, ``outcomes``,
    with axes (preparation, setting, outcome) in plan order: int64 counts, each row
    summing to the plan's shots, if the plan has shots, else float64 probabilities.
    ``frequencies`` and ``counts`` are derived from it; ``metadata`` is kept as a
    read-only copy of the mapping given.  Its ``seed`` (a whole number >= 0) and
    ``noise`` (a string) may be null or absent; ``exact``, if present, is
    ``shots is None``."""

    plan: TomographyPlan
    outcomes: np.ndarray
    metadata: Mapping = field(default_factory=dict)

    def __post_init__(self):  # the one check, for the constructor and for from_dict
        shots, shape = self.plan.shots, _record_shape(self.plan.num_qubits)
        x = read_only(np.asarray(self.outcomes))
        dtype = np.dtype(np.float64 if shots is None else np.int64)
        if x.dtype != dtype or x.shape != shape:
            raise ValueError(f"outcomes must be {dtype} of shape {shape}, not {x.dtype} {x.shape}")
        if not isinstance(self.metadata, Mapping):
            raise ValueError(f"metadata must be a JSON object, got {self.metadata!r}")
        if shots is None:  # written as a negation, so that a nan row fails too
            bad = ~((x.min(axis=-1) >= -1e-9) & (abs(x.sum(axis=-1) - 1.0) <= 1e-9))
            if bad.any():
                p, s = np.argwhere(bad)[0]
                key = (self.plan.preparations[p], self.plan.settings[s])
                raise ValueError(f"job {key} frequencies {x[p, s].tolist()} are not probabilities")
        else:
            if x.min() < 0:
                raise ValueError("counts must be non-negative")
            sums = x.sum(axis=-1), x.sum(axis=-1, dtype=float)  # the float sum shows an int64 wrap
            if (sums[0] != shots).any() or (abs(sums[1] - shots) > shots / 2).any():
                raise ValueError(f"counts do not sum to the shot total {shots}")
        if (seed := self.metadata.get("seed")) is not None and whole_number(seed, "metadata seed") < 0:
            raise ValueError(f"metadata seed must be a whole number >= 0, got {seed!r}")
        if not isinstance(noise := self.metadata.get("noise"), (str, type(None))):
            raise ValueError(f"metadata noise must be a string or null, got {noise!r}")
        if "exact" in self.metadata and (exact := self.metadata["exact"]) is not (shots is None):
            raise ValueError(f"metadata exact must be {shots is None} when shots={shots}, got {exact!r}")
        object.__setattr__(self, "outcomes", x)
        object.__setattr__(self, "metadata", MappingProxyType(dict(self.metadata)))

    @functools.cached_property
    def frequencies(self) -> np.ndarray:
        """Read-only ``outcomes / shots``, or ``outcomes`` itself if the plan has no shots."""
        if self.plan.shots is None:
            return self.outcomes
        f = self.outcomes / self.plan.shots
        f.flags.writeable = False
        return f

    @functools.cached_property
    def counts(self) -> MappingProxyType[tuple[str, str], CountsTable] | None:
        """Each job's :class:`CountsTable`, built from ``outcomes`` on first use (``None`` if exact).

        ``__post_init__`` has checked every row, so no table checks its own again."""
        if (shots := self.plan.shots) is None:
            return None
        labels, unchecked = product_labels("01", self.plan.num_qubits), CountsTable._unchecked
        keys = itertools.product(self.plan.preparations, self.plan.settings)  # plan.jobs() order
        tables = {key: unchecked(shots, dict(zip(labels, row))) for key, row in zip(keys, self._rows())}
        return MappingProxyType(tables)

    def _rows(self) -> list:  # each job's outcomes, in job order
        return self.outcomes.reshape(self.plan.num_jobs, -1).tolist()

    def to_json(self) -> str:
        """The ``dataset.json`` record, as ``json.dumps(record, indent=2, sort_keys=True)``
        writes it: ``{"num_qubits": K, "shots": S, "metadata": {...}, "jobs": [...]}`` with
        one entry per plan job in job order, ``{"prep": p, "setting": s, "counts": {"shots":
        S, "counts": {outcome: n, ...}}}`` if sampled, else ``{"prep": p, "setting": s,
        "frequencies": [...]}`` with ``"shots": null``.  It is written from one template over
        the job rows (``%r`` writes the finite frequencies as json does)."""
        labels = product_labels("01", self.plan.num_qubits)
        if self.plan.shots is None:
            floats = ",\n".join(["        %r"] * len(labels))
            template = _JOB % ('"frequencies": [\n%s\n      ]' % floats)
        else:
            ints = ",\n".join(f'          "{o}": %d' for o in labels)  # the %d stay for the rows
            block = '"counts": {\n        "counts": {\n%s\n        },\n        "shots": %d\n      }'
            template = _JOB % (block % (ints, self.plan.shots))
        keys = itertools.product(self.plan.preparations, self.plan.settings)  # plan.jobs() order
        jobs = [template % (*row, *key) for key, row in zip(keys, self._rows())]
        metadata = json.dumps(dict(self.metadata), indent=2, sort_keys=True).replace("\n", "\n  ")
        return '{\n  "jobs": [\n%s\n  ],\n  "metadata": %s,\n  "num_qubits": %d,\n  "shots": %s\n}' % (
            ",\n".join(jobs), metadata, self.plan.num_qubits, json.dumps(self.plan.shots)
        )

    @classmethod
    def from_dict(cls, d: dict) -> "TomographyDataset":
        """Load a :meth:`to_json` record; a sampled job's outcomes left out count as zero."""
        try:
            k = whole_number(d["num_qubits"], "num_qubits")
            sampled = any("counts" in j for j in d["jobs"])  # else exact: no shots
            plan = build_plan(k, whole_number(d["shots"], "shots") if sampled else None)
            jobs = {}
            for j in d["jobs"]:
                key = (j["prep"], j["setting"])
                if not plan.has_job(key):
                    raise ValueError(f"job {key} is not in the {k}-qubit plan")
                if key in jobs:
                    raise ValueError(f"job {key} has more than one record")
                jobs[key] = j
            if missing := plan.num_jobs - len(jobs):  # a wide plan is too long to list: jobs() is lazy
                first = next(key for key in plan.jobs() if key not in jobs)
                raise ValueError(f"dataset is missing {missing} plan job(s), e.g. {first}")
            labels, rows = product_labels("01", k), []
            for key in plan.jobs():
                if sampled:
                    if "counts" not in jobs[key]:
                        raise ValueError(f"job {key} has no counts, but other jobs of the dataset do")
                    record = jobs[key]["counts"]
                    if (shots := whole_number(record["shots"], "shots")) != plan.shots:
                        raise ValueError(f"job {key} has {shots} shots, not the dataset's {plan.shots}")
                    if not isinstance(raw := record["counts"], dict):
                        raise ValueError(f"counts {raw!r} are not a mapping of outcomes to counts")
                    if unknown := sorted(raw.keys() - labels):
                        raise ValueError(f"job {key} has counts for {unknown}, not {k}-bit outcomes")
                    row = [raw.get(o, 0) for o in labels]
                    try:  # json writes ints; any other number goes through whole_number
                        rows.append([n if type(n) is int else whole_number(n, "count") for n in row])
                    except ValueError:
                        raise ValueError(f"job {key} counts {raw} are not all whole numbers") from None
                    continue
                row = jobs[key]["frequencies"]
                if (dims := np.array(row, dtype=object).shape) != (2**k,):
                    got = f"{dims[0]} frequencies" if len(dims) == 1 else f"frequencies of shape {dims}"
                    raise ValueError(f"job {key} has {got}, expected {2**k}")
                try:  # json writes floats; any other number goes through finite_number
                    rows.append([f if type(f) is float else finite_number(f, "frequency") for f in row])
                except ValueError:
                    raise ValueError(f"job {key} frequencies {row} are not all numbers") from None
            outcomes = np.array(rows, dtype=np.int64 if sampled else np.float64).reshape(_record_shape(k))
        except (KeyError, TypeError, OverflowError) as exc:  # OverflowError: a count past int64
            raise ValueError(f"malformed dataset record: {exc}") from exc
        return cls(plan, outcomes, d.get("metadata", {}))


def channel_choi(target: Circuit, noise: NoiseModel | None = None) -> ChoiMatrix:
    """The simulated channel's Choi matrix ``C[(i, r), (j, s)] = E(|i><j|)[r, s]``, from
    one :func:`choiqpt.simulator.evolve` call on the d^2 matrix units ``|i><j|``."""
    d = 2**target.num_qubits
    out = evolve(np.eye(d * d, dtype=complex).reshape(-1, d, d), target, noise)
    return ChoiMatrix(d, d, out.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d))


def _frame(prep: np.ndarray, readout: np.ndarray) -> np.ndarray:
    """One qubit's Born rule as a 24 x 16 matrix, from a :func:`_spam_table`.

    ``F[(p, s, b), (j, l, i, k)] = prep_p[j, i] R[s, b, l, k]``, so ``F``
    times the flattened one-qubit Choi matrix ``C[(j, l), (i, k)]`` is
    ``Tr[(prep_p^T (x) E_sb) C]`` with the effect ``E_sb[k, l] = R[s, b, l, k]``.
    """
    return np.einsum("pji,sblk->psbjlik", prep, readout).reshape(24, 16)


_FRAME = _frame(*_spam_table(None))  # the noiseless frame, shared by every qubit


@_memo_upto(4)
def _probabilities(target: Circuit, noise: NoiseModel | None) -> np.ndarray:
    """The ``(4^K, 3^K, 2^K)`` recorded probabilities of every plan job.

    The target runs once (:func:`channel_choi`), and each qubit's frame acts
    along its axes of the Choi matrix (:func:`linalg.along_qubits`): ``_FRAME``
    without noise, else :func:`_frame` of its :func:`_spam_table` under
    :meth:`NoiseModel.on_qubit`, readout confusion included; only clipping
    and renormalising (:func:`simulator.recorded_probabilities`) follow.
    """
    k = target.num_qubits
    frames = [_FRAME if noise is None else _frame(*_spam_table(noise.on_qubit(q))) for q in range(k)]
    x = along_qubits(channel_choi(target, noise).matrix, frames, (2, 2, 2, 2), (4, 3, 2))
    x = x.real.reshape(_record_shape(k))  # a float copy: the complex product is freed here
    return recorded_probabilities(x)


def execute_plan(
    plan: TomographyPlan,
    target: Circuit,
    noise: NoiseModel | None = None,
    seed: int = 0,
) -> TomographyDataset:
    """Simulate every (preparation, setting) job of the plan.

    Nothing is simulated per job: the ``(4^K, 3^K, 2^K)`` probabilities come
    from :func:`_probabilities`, once per (target, noise model) pair.

    A plan without shots records these probabilities as its outcomes: the
    dataset shares the memoised read-only array.  Otherwise the plan is one
    stream: ``draw_counts`` draws every job's counts, in job order, from
    ``SeedSequence(seed)``, into one int64 array that the dataset keeps as its
    outcomes.  No per-job :class:`CountsTable` is built.
    """
    if target.num_qubits != plan.num_qubits:
        raise ValueError("target width does not match the plan")
    if (seed := whole_number(seed, "seed")) < 0:
        raise ValueError(f"seed must be a whole number >= 0, got {seed}")
    outcomes = _probabilities(target, noise)
    metadata = {"seed": seed, "exact": plan.shots is None, "noise": getattr(noise, "label", None)}
    if plan.shots is not None:
        rows = outcomes.reshape(plan.num_jobs, -1)  # (prep, setting) flattened in job order
        outcomes = draw_counts(rows, plan.shots, np.random.SeedSequence(seed)).reshape(outcomes.shape)
    return TomographyDataset(plan, outcomes, metadata)


# ---------------------------------------------------------------------------
# Linear-inversion reconstruction
# ---------------------------------------------------------------------------


def _one_qubit_dual(frame: np.ndarray) -> np.ndarray:
    """``pinv(F)``, 16 x 24, of a one-qubit frame ``F`` (:func:`_frame`); raises
    if ``F`` is rank deficient, i.e. the tokens do not span the operator space."""
    if (rank := np.linalg.matrix_rank(frame)) < 16:
        raise ValueError(
            f"one-qubit design matrix rank {rank} < 16: tokens are not informationally complete"
        )
    return np.linalg.pinv(frame)


_DUAL = _one_qubit_dual(_FRAME)


def linear_inversion(dataset: TomographyDataset) -> ChoiMatrix:
    """Least-squares Choi estimate from measured frequencies.

    The K-qubit design matrix is a permuted ``kron(F, ..., F)`` of the
    noiseless one-qubit frame ``F = _FRAME``, so its pseudo-inverse is
    ``_DUAL`` (:func:`_one_qubit_dual`) applied along each qubit's axes of
    the frequencies by :func:`linalg.along_qubits`.  Exact probabilities
    recover the true Choi matrix to solver precision; finite-shot input
    yields a Hermitian but possibly non-PSD estimate.
    """
    k, d = dataset.plan.num_qubits, 2**dataset.plan.num_qubits
    x = along_qubits(dataset.frequencies, [_DUAL] * k, (4, 3, 2), (2, 2, 2, 2))
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
    Hermitian part of the raw estimate, kept as ``raw_hermitian``, ``distance``
    is ``||C - R||_F`` and ``raw_min_eig`` the least eigenvalue of R, computed
    on first use."""

    choi: ChoiMatrix
    converged: bool
    iterations: int
    delta: float
    distance: float
    raw_hermitian: np.ndarray = field(repr=False, compare=False)

    @functools.cached_property
    def raw_min_eig(self) -> float:
        return float(np.linalg.eigvalsh(self.raw_hermitian)[0])


def _dual_point(r4: np.ndarray, eye: np.ndarray, eye_b: np.ndarray, lam: np.ndarray):
    """Eigenpairs of ``R + L (x) I`` (``eye_b = eye[:, None, :]`` broadcast onto R's ``(d, d, d, d)``
    view ``r4``), their PSD clip C, the dual gradient ``Tr_out C - I`` and the dual objective
    ``||C||_F^2 / 2 - Tr L``."""
    d = eye.shape[0]
    w, v = np.linalg.eigh((r4 + lam[:, None, :, None] * eye_b).reshape(d * d, d * d))
    p = np.maximum(w, 0.0)
    c = (v * p) @ v.conj().T
    tr_out = c.reshape(d, d, d, d).trace(axis1=1, axis2=3)
    return w, v, c, tr_out - eye, 0.5 * p @ p - lam.trace().real


def _newton_step(grad: np.ndarray, w: np.ndarray, v: np.ndarray, mu: float, tol: float):
    """Conjugate-gradient solve of ``(H + mu) s = -grad`` to residual ``tol``; ``grad`` is not written.

    H is the generalized Hessian of the dual at the eigenpairs (w, v) of
    ``R + L (x) I``: ``H(E) = Tr_out[V (Omega o V^dag (E (x) I) V) V^dag]``
    with ``Omega_ab = (max(w_a, 0) - max(w_b, 0)) / (w_a - w_b)``, which is 1
    where both eigenvalues are positive and 0 where neither is.  As ``w``
    ascends, Omega is those two blocks and ``w_a / (w_a - w_b)`` between them.
    Omega, V^dag and V_in^dag are built once per step; each product is four matmuls, two
    into the eigenbasis and two back.  The iterates update in place.
    """
    d = grad.shape[0]
    n = np.searchsorted(w, 0.0, side="right")  # w[:n] <= 0 < w[n:]
    omega = np.zeros((w.size, w.size))
    omega[n:, n:] = 1.0
    omega[n:, :n] = w[n:, None] / (w[n:, None] - w[:n])
    omega[:n, n:] = omega[n:, :n].T
    v_in = v.reshape(d, -1)  # rows: input index; columns: (output index, eigenvector)
    v_dag, v_in_dag = v.conj().T, v_in.conj().T
    step, res = np.zeros_like(grad), -grad
    direction, rho = res.copy(), float(np.vdot(res, res).real)
    for _ in range(d * d):  # the real dimension of the d x d Hermitian matrices
        y = v_dag @ (direction @ v_in).reshape(v.shape)  # V^dag (E (x) I) V
        h = (v @ (omega * y)).reshape(d, -1) @ v_in_dag + mu * direction
        a = rho / float(np.vdot(direction, h).real)
        step += a * direction
        res -= a * h
        rho, prev = float(np.vdot(res, res).real), rho
        if rho < tol**2:
            break
        direction *= rho / prev
        direction += res
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
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    d = raw.dim_in
    r = 0.5 * (raw.matrix + dagger(raw.matrix))
    r4, eye = r.reshape(d, d, d, d), np.eye(d)
    eye_b = eye[:, None, :]  # I's broadcast in L (x) I, built once
    lam = (eye - r4.trace(axis1=1, axis2=3)) / d
    w, v, c, grad, theta = _dual_point(r4, eye, eye_b, lam)
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
            trial = _dual_point(r4, eye, eye_b, trial_lam)
            trial_delta = frobenius(trial[3])
            if trial[4] <= theta + 1e-4 * alpha * slope or trial_delta < delta:
                break
            alpha /= 2
        lam, delta, (w, v, c, grad, theta) = trial_lam, trial_delta, trial
    return ProjectionResult(ChoiMatrix(d, d, c), delta < tol, steps, delta, frobenius(c - r), r)


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
        """The ``report.json`` record, read from the result: ``shots`` and ``exact`` from the plan,
        ``seed`` and ``noise`` from the dataset's metadata, ``method`` from ``choi is not raw_choi``.
        The keywords supply no value: a ValueError names each that is not the value recorded."""
        plan, meta = self.dataset.plan, self.dataset.metadata
        items = ("shots", plan.shots), ("seed", meta.get("seed"))  # as ints (3.0 is 3); None left out
        recorded = {key: whole_number(value, key) for key, value in items if value is not None}
        if shots is not None and (shots := whole_number(shots, "shots")) != plan.shots:
            raise ValueError(f"shots {shots} are not the plan's {plan.shots}")
        if seed is not None and (seed := whole_number(seed, "seed")) != recorded.get("seed"):
            raise ValueError(f"seed {seed} is not the dataset's {recorded.get('seed')}")
        method = "linear_inversion_then_cptp" if self.choi is not self.raw_choi else "linear_inversion"
        out = {**self.report.to_dict(), "converged": self.converged, "exact": plan.shots is None}
        return {**out, "method": method, "noise": meta.get("noise"), **recorded}


@_memo_upto(4)
def _ideal_choi(target: Circuit, noise: None) -> np.ndarray:
    """The Choi matrix of the target's ideal unitary; ``noise`` is ``None``, the memo's key slot."""
    return choi_from_unitary(circuit_unitary(target)).matrix


def qpt(
    target: Circuit,
    noise: NoiseModel | None = None,
    shots: int | None = 4000,
    seed: int = 0,
    options: ReconstructionOptions | None = None,
) -> QptResult:
    """Full tomography of a circuit: plan, execute, invert, project, score.

    ``shots=None`` uses exact probabilities.  The fidelity in the report
    compares the estimate against the Choi matrix of the target's ideal unitary,
    memoised per target (:func:`_ideal_choi`).
    """
    options = options or ReconstructionOptions()
    plan = build_plan(target.num_qubits, shots)
    dataset = execute_plan(plan, target, noise=noise, seed=seed)
    raw = linear_inversion(dataset)
    proj = None
    if options.method == "linear_inversion_then_cptp":
        proj = project_cptp(raw)
        choi, converged = proj.choi, proj.converged
    else:
        choi, converged = raw, True
    d = 2**target.num_qubits
    ideal = ChoiMatrix(d, d, _ideal_choi(target, None))  # shares the memoised read-only matrix
    report = fidelity_report(choi, ideal)
    return QptResult(choi, raw, ideal, report, dataset, converged, proj)
