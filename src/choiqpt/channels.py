"""Channel representations (Choi, Kraus, chi, PTM) and conversions.

Conventions
-----------
The Choi matrix is unnormalized, ``C = sum_{k,m} |k><m| (x) E(|k><m|)``,
so trace-preserving channels have ``Tr C = d`` and the input factor comes
first in the tensor product.  The chi matrix expands a channel over the
bare (unnormalized) Pauli operators, ``E(rho) = sum chi_mn W_m rho W_n^dag``,
which makes the identity channel's chi a single unit entry at (II, II).
The superoperator acts on row-major vectorised density matrices.
The Pauli ordering is lexicographic: II, IX, IY, IZ, XI, ..., ZZ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .gates import ID2, PAULI_X, PAULI_Y, PAULI_Z
from .linalg import (
    PSD_TOL,
    along_qubits,
    as_complex_matrix,
    dagger,
    eig_hermitian,
    frobenius,
    is_unitary,
    kron_all,
    product_labels,
    whole_number,
)

_C = np.complex128

_PAULI_1Q = {"I": ID2, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}


@dataclass(frozen=True, eq=False)  # compared and hashed by identity, as arrays have no ==
class PauliBasis:
    """Ordered tensor-product Pauli operators for ``num_qubits`` wires."""

    labels: tuple[str, ...]
    operators: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


@lru_cache(maxsize=8)
def pauli_basis(num_qubits: int) -> PauliBasis:
    labels = product_labels("IXYZ", num_qubits)
    return PauliBasis(labels, tuple(kron_all(_PAULI_1Q[c] for c in label) for label in labels))


@dataclass(frozen=True, eq=False)  # compared and hashed by identity, as arrays have no ==
class ChoiMatrix:
    """Bipartite operator of a d-to-d channel (input factor first); ``dim_in`` must equal ``dim_out``."""

    dim_in: int
    dim_out: int
    matrix: np.ndarray

    def __post_init__(self):
        for name in ("dim_in", "dim_out"):
            if (dim := whole_number(getattr(self, name), name)) < 1:
                raise ValueError(f"{name} must be at least 1, got {dim}")
            object.__setattr__(self, name, dim)
        if self.dim_in != self.dim_out:
            raise ValueError(f"Choi matrix needs dim_in == dim_out, got {self.dim_in} and {self.dim_out}")
        m = as_complex_matrix(self.matrix)
        d = self.dim_in * self.dim_out
        if m.shape != (d, d):
            raise ValueError(f"Choi matrix shape {m.shape}, expected {(d, d)}")
        object.__setattr__(self, "matrix", m)

    def normalized(self) -> np.ndarray:
        """Trace-one view of the Choi matrix (the 'Choi state')."""
        return self.matrix / np.trace(self.matrix)


def read_only(a: np.ndarray) -> np.ndarray:
    """``a`` itself if it is read-only and owns its data, else a read-only copy."""
    if a.flags.writeable or not a.flags.owndata:
        a = a.copy()
        a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)  # compared and hashed by identity, as arrays have no ==
class KrausSet:
    """Trace-preserving Kraus operators, held as read-only copies so ``superop`` cannot go stale."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(read_only(as_complex_matrix(k)) for k in self.operators)
        if not ops:
            raise ValueError("empty Kraus set")
        d = ops[0].shape[0]
        if any(k.shape != (d, d) for k in ops):
            raise ValueError("Kraus operators must share a square shape")
        total = sum(dagger(k) @ k for k in ops)
        dev = np.abs(total - np.eye(d)).max()
        if dev > 1e-8:
            raise ValueError(f"Kraus set is not trace-preserving (deviation {dev:.3e})")
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]

    @cached_property
    def superop(self) -> np.ndarray:
        """The channel's :func:`kraus_superop`, built on first use; read-only, as holders share it."""
        return read_only(kraus_superop(self.operators))


@dataclass(frozen=True, eq=False)  # compared and hashed by identity, as arrays have no ==
class ChiMatrix:
    """Process matrix over an operator basis (labels track the ordering)."""

    matrix: np.ndarray
    labels: tuple[str, ...]


@dataclass(frozen=True, eq=False)  # compared and hashed by identity, as arrays have no ==
class PTMatrix:
    """Real transfer matrix R[m,n] = Tr(W_m E(W_n)) / d over the Pauli basis."""

    matrix: np.ndarray
    labels: tuple[str, ...]


# ---------------------------------------------------------------------------
# Constructors and the probability rule
# ---------------------------------------------------------------------------


def choi_from_unitary(u: np.ndarray) -> ChoiMatrix:
    """Choi matrix of the unitary channel rho -> u rho u^dag.

    Rank one by construction: ``C = |v><v|`` with ``v = sum_k |k> (x) u|k>``
    and ``Tr C = d``.
    """
    u = as_complex_matrix(u)
    if not is_unitary(u):
        raise ValueError("input matrix is not unitary within tolerance")
    d = u.shape[0]
    v = u.T.reshape(d * d)  # v[(k, r)] = u[r, k]
    return ChoiMatrix(d, d, np.outer(v, v.conj()))


def apply_choi(c: ChoiMatrix, rho: np.ndarray) -> np.ndarray:
    """Channel action ``E(rho) = Tr_in[(rho^T (x) I) C]``.

    Accepts any d x d input matrix, not only density matrices; acceptance
    criterion 11 compares it with :func:`outcome_probability`.
    """
    rho = as_complex_matrix(rho)
    d = c.dim_in
    if rho.shape != (d, d):
        raise ValueError(f"state shape {rho.shape} does not match channel input dim {d}")
    c4 = c.matrix.reshape(d, d, d, d)
    return np.einsum("km,krms->rs", rho, c4)


def outcome_probability(c: ChoiMatrix, prep: np.ndarray, projector: np.ndarray) -> float:
    """Born probability ``Tr[(prep^T (x) projector) C]``.

    Evaluated directly on the Choi matrix, independently of
    :func:`apply_choi`, so the two routes can cross-check each other.
    """
    prep = as_complex_matrix(prep)
    projector = as_complex_matrix(projector)
    d = c.dim_in
    if prep.shape != (d, d) or projector.shape != (d, d):
        raise ValueError("preparation/projector dimensions do not match the channel")
    c4 = c.matrix.reshape(d, d, d, d)
    p = np.einsum("mk,rs,mskr->", prep, projector, c4)
    return float(p.real)


# ---------------------------------------------------------------------------
# Representation conversions
# ---------------------------------------------------------------------------


def kraus_to_choi(kraus: KrausSet) -> ChoiMatrix:
    """The realigned superoperator, ``C[(k, r), (m, s)] = S[(r, s), (k, m)]``."""
    d = kraus.dim
    s = kraus.superop.reshape(d, d, d, d)
    return ChoiMatrix(d, d, s.transpose(2, 0, 3, 1).reshape(d * d, d * d))


def kraus_superop(operators) -> np.ndarray:
    """Superoperator ``S = sum_k K_k (x) conj(K_k)`` of a stack of Kraus operators.

    ``S`` acts on the row-major vectorisation ``vec(rho)[i*d + j] = rho[i, j]``,
    so ``vec(E(rho)) = S vec(rho)`` and composed channels multiply their
    superoperators (Wood, Biamonte & Cory, arXiv:1111.6950).
    """
    k = np.asarray(operators, dtype=_C)
    d = k.shape[-1]
    return np.einsum("kac,kbd->abcd", k, k.conj()).reshape(d * d, d * d)


def choi_to_kraus(c: ChoiMatrix) -> KrausSet:
    """Extract Kraus operators from the Choi eigendecomposition.

    Eigenvalues at or below 1e-10 are dropped (negatives down to -1e-7 are
    numerical noise); anything below -1e-7 means the map is not CP and raises.
    """
    w, v = eig_hermitian(c.matrix)
    if w.min() < -1e-7:
        raise ValueError(f"Choi matrix is not PSD (min eigenvalue {w.min():.3e})")
    d = c.dim_in
    ops = []
    for lam, vec in zip(w, v.T):
        if lam <= 1e-10:
            continue
        k = np.sqrt(lam) * vec.reshape(d, d).T
        ops.append(k)
    return KrausSet(tuple(ops))


# One qubit's 16 x 16 Pauli changes of basis on its (in, out, in', out') Choi axes, with
# w_m[(k, r)] = W_m[r, k]: to chi conj(w_m) w_n / 4, back w_m conj(w_n), to the PTM
# W_m[s, r] W_n[k, l] / 2; their K-fold tensor powers are the K-qubit conversions.
_PAULI_1 = np.stack(pauli_basis(1).operators)
_W = _PAULI_1.transpose(0, 2, 1).reshape(4, 4)
_TO_CHI = np.einsum("mx,ny->mnxy", _W.conj(), _W).reshape(16, 16) / 4
_FROM_CHI = np.einsum("mx,ny->xymn", _W, _W.conj()).reshape(16, 16)
_TO_PTM = np.einsum("msr,nkl->mnkrls", _PAULI_1, _PAULI_1).reshape(16, 16) / 2


def _num_qubits(dim: float) -> int:
    """K of a channel on K qubits, from its dimension 2^K; any other dimension raises."""
    k = round(math.log2(dim)) if dim > 0 else -1
    if k < 0 or 2**k != dim:
        raise ValueError(f"Pauli basis needs a power-of-two dimension, got {dim:g}")
    return k


def choi_to_chi(c: ChoiMatrix) -> ChiMatrix:
    """Expand a channel over the Pauli basis of its qubits: chi_mn = <w_m| C |w_n> / d^2.

    The change of basis acts qubit by qubit (:func:`linalg.along_qubits`),
    so no 4^K x 4^K basis matrix is built.
    """
    k = _num_qubits(c.dim_in)
    chi = along_qubits(c.matrix, [_TO_CHI] * k, (2, 2, 2, 2), (4, 4))
    return ChiMatrix(chi.reshape(4**k, 4**k), product_labels("IXYZ", k))


def chi_to_choi(chi: ChiMatrix) -> ChoiMatrix:
    """Inverse of :func:`choi_to_chi`: ``C = sum_mn chi_mn |w_m><w_n|``, qubit by qubit."""
    k = _num_qubits(np.shape(chi.matrix)[0] ** 0.5)  # chi is d^2 x d^2
    c = along_qubits(chi.matrix, [_FROM_CHI] * k, (4, 4), (2, 2, 2, 2))
    return ChoiMatrix(2**k, 2**k, c.reshape(4**k, 4**k))


def choi_to_ptm(c: ChoiMatrix) -> PTMatrix:
    """Pauli transfer matrix R[m,n] = Tr(W_m E(W_n)) / d, qubit by qubit.

    ``Tr(W_m E(W_n)) = Tr[(W_n^T (x) W_m) C]`` factors over the qubits, so
    :func:`linalg.along_qubits` applies one 16 x 16 map per qubit.  Entries
    are real for Hermiticity-preserving channels; a residual imaginary part
    above tolerance raises.
    """
    k = _num_qubits(c.dim_in)
    r = along_qubits(c.matrix, [_TO_PTM] * k, (2, 2, 2, 2), (4, 4)).reshape(4**k, 4**k)
    worst_imag = float(np.abs(r.imag).max())
    if worst_imag > 1e-9:
        raise ValueError(f"transfer matrix has imaginary residue {worst_imag:.3e}")
    return PTMatrix(r.real, product_labels("IXYZ", k))


# ---------------------------------------------------------------------------
# Physicality report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CptpReport:
    hermitian_dev: float
    min_eig: float
    tp_dev: float

    @property
    def passes(self) -> bool:
        return self.hermitian_dev <= PSD_TOL and self.min_eig >= -PSD_TOL and self.tp_dev <= 1e-8


def is_cptp(c: ChoiMatrix) -> CptpReport:
    """Report Hermiticity deviation, min eigenvalue, and the TP residual ``||Tr_out C - I||_F``.

    Complete positivity is the minimum eigenvalue of the symmetrized matrix.
    ``passes`` bounds the first two by ``PSD_TOL`` (1e-9) and the residual by 1e-8.
    The residual is the one :func:`~choiqpt.tomography.project_cptp` stops on, computed
    the same way, so for a projected estimate it equals ``ProjectionResult.delta``.
    """
    m, d = c.matrix, c.dim_in
    m_dag = m.conj().T
    herm_dev = float(np.abs(m - m_dag).max())
    w = np.linalg.eigvalsh(0.5 * (m + m_dag))
    tp_dev = frobenius(m.reshape(d, d, d, d).trace(axis1=1, axis2=3) - np.eye(d))
    return CptpReport(herm_dev, float(w.min()), tp_dev)


# ---------------------------------------------------------------------------
# Export formats
# ---------------------------------------------------------------------------


def matrix_to_json_dict(m: np.ndarray, dim: int) -> dict:
    m = np.asarray(m)
    return {
        "dim": dim,
        "re": [[float(x) for x in row] for row in m.real],
        "im": [[float(x) for x in row] for row in m.imag],
    }


def choi_to_json(c: ChoiMatrix) -> str:
    """``json.dumps(matrix_to_json_dict(...), indent=2, sort_keys=True)``, from one template."""
    n = c.matrix.shape[0]
    rows = ",\n".join(["    [\n" + ",\n".join(["      %r"] * n) + "\n    ]"] * n)
    template = '{\n  "dim": %d,\n  "im": [\n' + rows + '\n  ],\n  "re": [\n' + rows + "\n  ]\n}"
    return template % (c.dim_in, *c.matrix.imag.ravel().tolist(), *c.matrix.real.ravel().tolist())


def matrix_csv(m: np.ndarray, part: str = "re") -> str:
    """CSV of the real or imaginary part, one matrix row per line, from one ``%.12g`` template."""
    m = np.asarray(m)
    data = m.real if part == "re" else m.imag
    rows, cols = data.shape
    template = "\n".join([",".join(["%.12g"] * cols)] * rows) + "\n"
    return template % tuple(data.ravel().tolist())
