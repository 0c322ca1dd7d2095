"""Dense complex linear algebra shared by the whole package.

Everything here operates on plain ``numpy`` arrays of dtype complex128.
Choi matrices are 4^K x 4^K (16x16 for two qubits, 64x64 and 256x256 for
three and four), so all routines are dense and exact; there is no sparse
or GPU path.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

# Centralized tolerance constants.
HERM_TOL = 1e-9
UNITARY_TOL = 1e-9
PSD_TOL = 1e-9


def as_complex_matrix(m) -> np.ndarray:
    """Coerce input to a 2-D complex128 array, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix contains non-finite entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conjugate(np.transpose(m))


def kron_all(mats) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left factor outermost."""
    mats = list(mats)
    if not mats:
        return np.eye(1, dtype=np.complex128)
    return reduce(np.kron, [as_complex_matrix(m) for m in mats])


def partial_trace(m: np.ndarray, dim_a: int, dim_b: int, keep: str = "a") -> np.ndarray:
    """Trace out one tensor factor of a (dim_a*dim_b)-dimensional operator.

    ``keep="a"`` returns the dim_a x dim_a marginal (factor B traced out),
    ``keep="b"`` the dim_b x dim_b one.  The total trace is preserved.
    """
    m = as_complex_matrix(m)
    d = dim_a * dim_b
    if m.shape != (d, d):
        raise ValueError(f"matrix shape {m.shape} incompatible with dims ({dim_a},{dim_b})")
    t = m.reshape(dim_a, dim_b, dim_a, dim_b)
    if keep.lower() == "a":
        return np.einsum("ijkj->ik", t)
    if keep.lower() == "b":
        return np.einsum("ijil->jl", t)
    raise ValueError(f"keep must be 'a' or 'b', got {keep!r}")


def eig_hermitian(m: np.ndarray, tol: float = HERM_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    The input is symmetrized before factoring; a deviation from Hermiticity
    larger than ``tol`` is an error.  Returns eigenvalues sorted descending
    and the matching unitary of column eigenvectors, so that
    ``m == v @ diag(w) @ v.conj().T`` up to numerical noise.
    """
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    dev = np.abs(m - dagger(m)).max()
    if dev > tol:
        raise ValueError(f"matrix is not Hermitian within {tol} (deviation {dev:.3e})")
    h = 0.5 * (m + dagger(m))
    w, v = np.linalg.eigh(h)
    return w[::-1], v[:, ::-1]


def is_unitary(u: np.ndarray, tol: float = UNITARY_TOL) -> bool:
    u = as_complex_matrix(u)
    if u.shape[0] != u.shape[1]:
        return False
    return np.abs(dagger(u) @ u - np.eye(u.shape[0])).max() <= tol


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def psd_sqrt(m: np.ndarray, neg_tol: float = 1e-7) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix via eigendecomposition.

    Eigenvalues in [-neg_tol, 0) are treated as numerical noise and clipped;
    anything more negative raises.
    """
    w, v = eig_hermitian(m, tol=max(HERM_TOL, neg_tol))
    if w.min() < -neg_tol:
        raise ValueError(f"matrix is not PSD (min eigenvalue {w.min():.3e})")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ dagger(v)
