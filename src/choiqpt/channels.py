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

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import (
    PSD_TOL,
    UNITARY_TOL,
    as_complex_matrix,
    dagger,
    eig_hermitian,
    frobenius,
    is_unitary,
    kron_all,
    partial_trace,
)

_C = np.complex128

_PAULI_1Q = {
    "I": np.eye(2, dtype=_C),
    "X": np.array([[0, 1], [1, 0]], dtype=_C),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=_C),
    "Z": np.array([[1, 0], [0, -1]], dtype=_C),
}


@dataclass(frozen=True)
class PauliBasis:
    """Ordered tensor-product Pauli operators for ``num_qubits`` wires."""

    labels: tuple[str, ...]
    operators: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


@lru_cache(maxsize=8)
def pauli_basis(num_qubits: int) -> PauliBasis:
    labels = []
    ops = []
    for combo in itertools.product("IXYZ", repeat=num_qubits):
        labels.append("".join(combo))
        ops.append(kron_all(_PAULI_1Q[c] for c in combo))
    return PauliBasis(tuple(labels), tuple(ops))


@dataclass(frozen=True)
class ChoiMatrix:
    """Bipartite operator characterizing a channel (input factor first)."""

    dim_in: int
    dim_out: int
    matrix: np.ndarray

    def __post_init__(self):
        m = as_complex_matrix(self.matrix)
        d = self.dim_in * self.dim_out
        if m.shape != (d, d):
            raise ValueError(f"Choi matrix shape {m.shape}, expected {(d, d)}")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.dim_in

    def normalized(self) -> np.ndarray:
        """Trace-one view of the Choi matrix (the 'Choi state')."""
        return self.matrix / np.trace(self.matrix)


@dataclass(frozen=True)
class KrausSet:
    """Trace-preserving set of Kraus operators."""

    operators: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(as_complex_matrix(k) for k in self.operators)
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


@dataclass(frozen=True)
class ChiMatrix:
    """Process matrix over an operator basis (labels track the ordering)."""

    matrix: np.ndarray
    labels: tuple[str, ...]


@dataclass(frozen=True)
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
    if not is_unitary(u, UNITARY_TOL):
        raise ValueError("input matrix is not unitary within tolerance")
    d = u.shape[0]
    v = u.T.reshape(d * d)  # v[(k, r)] = u[r, k]
    return ChoiMatrix(d, d, np.outer(v, v.conj()))


def apply_choi(c: ChoiMatrix, rho: np.ndarray) -> np.ndarray:
    """Channel action ``E(rho) = Tr_in[(rho^T (x) I) C]``.

    Defined for any input matrix of the right dimension; density-matrix
    validation is the caller's concern (the PTM conversion feeds Paulis).
    """
    rho = as_complex_matrix(rho)
    d_in, d_out = c.dim_in, c.dim_out
    if rho.shape != (d_in, d_in):
        raise ValueError(f"state shape {rho.shape} does not match channel input dim {d_in}")
    c4 = c.matrix.reshape(d_in, d_out, d_in, d_out)
    return np.einsum("km,krms->rs", rho, c4)


def outcome_probability(c: ChoiMatrix, prep: np.ndarray, projector: np.ndarray) -> float:
    """Born probability ``Tr[(prep^T (x) projector) C]``.

    Evaluated directly on the Choi matrix, independently of
    :func:`apply_choi`, so the two routes can cross-check each other.
    """
    prep = as_complex_matrix(prep)
    projector = as_complex_matrix(projector)
    d_in, d_out = c.dim_in, c.dim_out
    if prep.shape != (d_in, d_in) or projector.shape != (d_out, d_out):
        raise ValueError("preparation/projector dimensions do not match the channel")
    c4 = c.matrix.reshape(d_in, d_out, d_in, d_out)
    p = np.einsum("mk,rs,mskr->", prep, projector, c4)
    return float(p.real)


# ---------------------------------------------------------------------------
# Representation conversions
# ---------------------------------------------------------------------------


def kraus_to_choi(kraus: KrausSet) -> ChoiMatrix:
    d = kraus.dim
    c = np.zeros((d * d, d * d), dtype=_C)
    for k in kraus.operators:
        v = k.T.reshape(d * d)
        c += np.outer(v, v.conj())
    return ChoiMatrix(d, d, c)


def kraus_superop(operators) -> np.ndarray:
    """Superoperator ``S = sum_k K_k (x) conj(K_k)`` of a stack of Kraus operators.

    ``S`` acts on the row-major vectorisation ``vec(rho)[i*d + j] = rho[i, j]``,
    so ``vec(E(rho)) = S vec(rho)`` and composed channels multiply their
    superoperators (Wood, Biamonte & Cory, arXiv:1111.6950).
    """
    k = np.asarray(operators, dtype=_C)
    d = k.shape[-1]
    return np.einsum("kac,kbd->abcd", k, k.conj()).reshape(d * d, d * d)


def choi_to_kraus(c: ChoiMatrix, cutoff: float = 1e-10, neg_tol: float = 1e-7) -> KrausSet:
    """Extract Kraus operators from the Choi eigendecomposition.

    Eigenvalues below ``cutoff`` are dropped; negatives within ``-neg_tol``
    are clipped to zero, anything more negative means the map is not CP and
    raises.
    """
    w, v = eig_hermitian(c.matrix)
    if w.min() < -neg_tol:
        raise ValueError(f"Choi matrix is not PSD (min eigenvalue {w.min():.3e})")
    d_in, d_out = c.dim_in, c.dim_out
    ops = []
    for lam, vec in zip(w, v.T):
        if lam <= cutoff:
            continue
        k = np.sqrt(lam) * vec.reshape(d_in, d_out).T
        ops.append(k)
    return KrausSet(tuple(ops))


def _pauli_choi_vectors(basis: PauliBasis) -> np.ndarray:
    """Rows v_m with v_m[(k, r)] = W_m[r, k] (Choi vectors of the basis)."""
    d = basis.dim
    return np.array([w.T.reshape(d * d) for w in basis.operators])


def choi_to_chi(c: ChoiMatrix) -> ChiMatrix:
    """Expand a channel over the Pauli basis of its qubits: chi_mn = <w_m| C |w_n> / d^2."""
    d = c.dim_in
    num_qubits = int(round(np.log2(d)))
    if 2**num_qubits != d:
        raise ValueError("Pauli basis needs a power-of-two dimension")
    basis = pauli_basis(num_qubits)
    v = _pauli_choi_vectors(basis)
    chi = (v.conj() @ c.matrix @ v.T) / d**2
    return ChiMatrix(chi, basis.labels)


def chi_to_choi(chi: ChiMatrix) -> ChoiMatrix:
    n = chi.matrix.shape[0]
    d = int(round(np.sqrt(n)))
    v = _pauli_choi_vectors(pauli_basis(int(round(np.log2(d)))))
    c = v.T @ np.asarray(chi.matrix, dtype=_C) @ v.conj()
    return ChoiMatrix(d, d, c)


def choi_to_ptm(c: ChoiMatrix) -> PTMatrix:
    """Pauli transfer matrix R[m,n] = Tr(W_m E(W_n)) / d.

    Entries are real for Hermiticity-preserving channels; a residual
    imaginary part above tolerance raises.
    """
    d = c.dim_in
    basis = pauli_basis(int(round(np.log2(d))))
    w = np.stack(basis.operators)
    # Tr(W_m E(W_n)) = Tr[(W_n^T (x) W_m) C], summed over C's (in, out, in, out) axes
    r = np.einsum("msr,nkl,krls->mn", w, w, c.matrix.reshape(d, d, d, d), optimize=True) / d
    worst_imag = float(np.abs(r.imag).max())
    if worst_imag > 1e-9:
        raise ValueError(f"transfer matrix has imaginary residue {worst_imag:.3e}")
    return PTMatrix(r.real, basis.labels)


# ---------------------------------------------------------------------------
# Physicality report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CptpReport:
    hermitian_dev: float
    min_eig: float
    tp_dev: float
    tol: float

    @property
    def passes(self) -> bool:
        return (
            self.hermitian_dev <= self.tol
            and self.min_eig >= -self.tol
            and self.tp_dev <= max(self.tol, 1e-8)
        )


def is_cptp(c: ChoiMatrix, tol: float = PSD_TOL) -> CptpReport:
    """Report Hermiticity deviation, min eigenvalue, and the TP residual.

    The TP residual is ``||Tr_out C - I||_F``; complete positivity is the
    minimum eigenvalue of the symmetrized matrix.
    """
    m = c.matrix
    herm_dev = float(np.abs(m - dagger(m)).max())
    h = 0.5 * (m + dagger(m))
    w = np.linalg.eigvalsh(h)
    tr_out = partial_trace(m, c.dim_in, c.dim_out, keep="a")
    tp_dev = frobenius(tr_out - np.eye(c.dim_in))
    return CptpReport(herm_dev, float(w.min()), tp_dev, tol)


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


def matrix_from_json_dict(d: dict) -> tuple[np.ndarray, int]:
    m = np.asarray(d["re"], dtype=float) + 1j * np.asarray(d["im"], dtype=float)
    return m, int(d["dim"])


def choi_to_json(c: ChoiMatrix) -> str:
    return json.dumps(matrix_to_json_dict(c.matrix, c.dim_in), indent=2, sort_keys=True)


def choi_from_json(text: str) -> ChoiMatrix:
    m, dim = matrix_from_json_dict(json.loads(text))
    return ChoiMatrix(dim, dim, m)


def matrix_csv(m: np.ndarray, part: str = "re") -> str:
    """CSV of the real or imaginary part, one matrix row per line."""
    m = np.asarray(m)
    data = m.real if part == "re" else m.imag
    return "\n".join(",".join(f"{x:.12g}" for x in row) for row in data) + "\n"
