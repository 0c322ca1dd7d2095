"""Process tomography: plan generation, execution, reconstruction, projection.

The pipeline mirrors how one characterizes a gate on hardware:

1. prepare each qubit in one of {|0>, |1>, |+>, |+i>} (informationally
   complete product set) by the gates of its token in ``_PREP_GATES``,
2. measure every qubit in each of the X/Y/Z bases (all outcomes kept),
   rotated into the computational frame by ``simulator.MEAS_GATES``; both
   the circuits that run and the states and projectors that linear
   inversion assumes derive from these two gate tables, and every plan is
   the full 4^K x 3^K product of their tokens,
3. run the target between preparation and basis rotation, collecting counts;
   the simulation uses the plan's product structure instead of composing
   4^K x 3^K circuits: the 4^K preparation circuits run once each, the
   target once on the stack of prepared states, and each of the 3^K basis
   changes (with readout decay) once on the stack of target outputs,
4. invert the Born-rule linear system for the Choi matrix qubit by qubit:
   the plan is a tensor product of one 4-preparation x 3-setting plan per
   qubit, so the least-squares solution applies the pseudo-inverse of the
   24 x 16 one-qubit design matrix, built once from the token tables,
   along each qubit axis of the frequency tensor (no dense 24^K x 16^K
   system is ever built),
5. optionally project the estimate onto the CPTP set (Dykstra-corrected
   alternating projections between the PSD cone and the trace-preserving
   affine subspace).

Per-job RNG seeds derive from ``SeedSequence((base_seed, job_index))`` so
jobs are independent and insensitive to execution order.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import ChoiMatrix, choi_from_unitary, pauli_basis
from .gates import Circuit, circuit_unitary
from .linalg import dagger, frobenius, kron_all, partial_trace
from .metrics import FidelityReport, fidelity_report
from .noise import NoiseModel
from .simulator import (
    MEAS_GATES,
    CountsTable,
    _token_circuit,
    evolve,
    ground_state,
    sample_counts,
    z_probabilities,
)

_C = np.complex128

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


@dataclass(frozen=True)
class TomographyDataset:
    """Frequencies (and raw counts when sampled) for every plan job."""

    plan: TomographyPlan
    frequencies: dict[tuple[str, str], np.ndarray]
    counts: dict[tuple[str, str], CountsTable] | None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        missing = [key for key in self.plan.jobs() if key not in self.frequencies]
        if missing:
            raise ValueError(f"dataset is missing {len(missing)} plan job(s), e.g. {missing[0]}")
        d = 2**self.plan.num_qubits
        for key in self.plan.jobs():
            if np.shape(self.frequencies[key]) != (d,):
                raise ValueError(
                    f"job {key} has {np.size(self.frequencies[key])} frequencies, expected {d}"
                )
            if self.counts is not None and key not in self.counts:
                raise ValueError(f"job {key} has no counts, but other jobs of the dataset do")

    def to_dict(self) -> dict:
        jobs = []
        for prep, setting in self.plan.jobs():
            entry: dict = {"prep": prep, "setting": setting}
            if self.counts is not None:
                entry["counts"] = self.counts[(prep, setting)].to_dict()
            else:
                entry["frequencies"] = [float(f) for f in self.frequencies[(prep, setting)]]
            jobs.append(entry)
        return {
            "num_qubits": self.plan.num_qubits,
            "shots": self.plan.shots,
            "metadata": self.metadata,
            "jobs": jobs,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, d: dict) -> "TomographyDataset":
        freqs: dict[tuple[str, str], np.ndarray] = {}
        counts: dict[tuple[str, str], CountsTable] | None = None
        try:
            plan = build_plan(int(d["num_qubits"]), int(d["shots"]))
            outcomes = set(_product_labels(("0", "1"), plan.num_qubits))
            jobs = {(j["prep"], j["setting"]): j for j in d["jobs"]}
            for key in plan.jobs():
                job = jobs.get(key)
                if job is None:  # left for __post_init__ to report
                    continue
                if "counts" in job:
                    tab = CountsTable.from_dict(job["counts"])
                    unknown = sorted(set(tab.counts) - outcomes)
                    if unknown:
                        raise ValueError(
                            f"job {key} has counts for {unknown}, "
                            f"which are not {plan.num_qubits}-bit outcomes"
                        )
                    if counts is None:
                        counts = {}
                    counts[key] = tab
                    freqs[key] = tab.as_vector(plan.num_qubits) / tab.shots
                else:
                    freqs[key] = np.asarray(job["frequencies"], dtype=float)
            metadata = dict(d.get("metadata", {}))
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed dataset record: {exc}") from exc
        return cls(plan, freqs, counts, metadata)


def execute_plan(
    plan: TomographyPlan,
    target: Circuit,
    noise: NoiseModel | None = None,
    seed: int = 0,
    exact: bool = False,
) -> TomographyDataset:
    """Simulate every (preparation, setting) job of the plan.

    Nothing is simulated per job: the preparations, the target and each
    basis change run once each on stacks of states through
    :func:`choiqpt.simulator.evolve`; with noise, the read-out applies
    readout decay and confusion to outcome probabilities.  ``exact=True``
    records these probabilities instead of sampled counts.
    """
    if target.num_qubits != plan.num_qubits:
        raise ValueError("target width does not match the plan")
    k = plan.num_qubits
    ground = ground_state(k)[None]
    prepared = np.concatenate(
        [evolve(ground, prep_circuit(p, k), noise) for p in plan.preparations]
    )
    outputs = evolve(prepared, target, noise)
    probs = np.stack(
        [
            z_probabilities(evolve(outputs, measurement_circuit(s, k), noise), noise)
            for s in plan.settings
        ],
        axis=1,
    )
    # axes (prep, setting, outcome) flatten to preparation-major, setting-minor job order
    probs = probs.reshape(plan.num_jobs, 2**k)
    freqs: dict[tuple[str, str], np.ndarray] = {}
    counts: dict[tuple[str, str], CountsTable] | None = None if exact else {}
    for job_index, (key, p) in enumerate(zip(plan.jobs(), probs)):
        if exact:
            freqs[key] = p
        else:
            counts[key] = sample_counts(p, plan.shots, np.random.SeedSequence((seed, job_index)))
            freqs[key] = counts[key].as_vector(k) / plan.shots
    metadata = {
        "seed": seed,
        "exact": exact,
        "noise": noise.label if noise is not None else None,
    }
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
    plan = dataset.plan
    k = plan.num_qubits
    f = np.stack([dataset.frequencies[key] for key in plan.jobs()])
    x = f.reshape((len(PREP_TOKENS),) * k + (len(SETTING_TOKENS),) * k + (2,) * k)
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


@dataclass(frozen=True)
class ProjectionResult:
    choi: ChoiMatrix
    converged: bool
    iterations: int
    delta: float


def _project_tp(m: np.ndarray, d: int) -> np.ndarray:
    """Orthogonal projection onto the affine subspace Tr_out C = I."""
    tr_out = partial_trace(m, d, d, keep="a")
    return m + np.kron((np.eye(d) - tr_out) / d, np.eye(d, dtype=_C))


def project_cptp(raw: ChoiMatrix, tol: float = 1e-10, max_iter: int = 2000) -> ProjectionResult:
    """Nearest-CPTP projection by Dykstra-corrected alternating projections.

    Alternates the trace-preserving affine projection with eigenvalue
    clipping onto the PSD cone (the Dykstra correction rides on the cone
    step).  Stops when successive iterates differ by less than ``tol`` in
    Frobenius norm; hitting ``max_iter`` returns the best iterate flagged
    as non-converged.
    """
    d = raw.dim_in
    c = 0.5 * (raw.matrix + dagger(raw.matrix))
    correction = np.zeros_like(c)
    delta = np.inf
    for iteration in range(1, max_iter + 1):
        prev = c
        c = _project_tp(c, d)
        y = c + correction
        y = 0.5 * (y + dagger(y))
        w, v = np.linalg.eigh(y)
        c_psd = (v * np.clip(w, 0.0, None)) @ dagger(v)
        correction = y - c_psd
        c = c_psd
        delta = frobenius(c - prev)
        if delta < tol:
            return ProjectionResult(ChoiMatrix(d, d, c), True, iteration, delta)
    return ProjectionResult(ChoiMatrix(d, d, c), False, max_iter, delta)


# ---------------------------------------------------------------------------
# End-to-end pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReconstructionOptions:
    method: str = "linear_inversion_then_cptp"  # or "linear_inversion"
    cptp_tol: float = 1e-10
    max_iterations: int = 2000

    def __post_init__(self):
        if self.method not in ("linear_inversion", "linear_inversion_then_cptp"):
            raise ValueError(f"unknown reconstruction method {self.method!r}")
        if self.cptp_tol <= 0:
            raise ValueError("cptp_tol must be positive")


@dataclass(frozen=True)
class QptResult:
    choi: ChoiMatrix
    raw_choi: ChoiMatrix
    ideal_choi: ChoiMatrix
    report: FidelityReport
    dataset: TomographyDataset
    converged: bool

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
    if options.method == "linear_inversion_then_cptp":
        proj = project_cptp(raw, tol=options.cptp_tol, max_iter=options.max_iterations)
        choi, converged = proj.choi, proj.converged
    else:
        choi, converged = raw, True
    ideal = choi_from_unitary(circuit_unitary(target))
    report = fidelity_report(choi, ideal)
    return QptResult(choi, raw, ideal, report, dataset, converged)
