"""Complex linear algebra, the qubit-order convention, and input checks.

Everything here operates on plain ``numpy`` arrays of dtype complex128.
Choi matrices are 4^K x 4^K (16x16 for two qubits, 64x64 and 256x256 for
three and four).  Qubit 0 is the leftmost label character and the slowest
axis: :func:`product_labels` builds every label, :func:`apply_local` makes
every local contraction, and :func:`along_qubits` applies one small map per
qubit, never the K-qubit matrix.  Both contract as ``np.tensordot`` does, without
its Python wrapper: one transpose, then one 2-D ``np.dot``, the BLAS call it ends
in.  The rest is dense and exact; there is no sparse or GPU path.
"""

from __future__ import annotations

import itertools
import math
import numbers
from functools import lru_cache, reduce

import numpy as np

# Centralized tolerance constants.
HERM_TOL = 1e-9
PSD_TOL = 1e-9


def as_complex_matrix(m) -> np.ndarray:
    """Coerce input to a 2-D complex128 array, rejecting NaN/Inf entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.isfinite(a).all():  # a complex entry is finite when both its parts are
        raise ValueError("matrix contains non-finite entries")
    return a


def whole_number(value, name: str) -> int:
    """``value`` as an int; a ValueError naming ``name`` if it is not a whole number."""
    # a bool (json's true) is an int, and numpy's bool_ is no numbers.Real: neither
    # is taken as a number here; inf % 1 and nan % 1 are nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and value % 1 == 0:
        return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def finite_number(value, name: str) -> float:
    """``value`` as a float; a ValueError naming ``name`` if it is not a finite number."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):  # as in whole_number
        raise ValueError(f"{name} must be a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return x


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.conjugate(np.transpose(m))


def kron_all(mats) -> np.ndarray:
    """Kronecker product of a sequence of matrices, left factor outermost."""
    mats = list(mats)
    if not mats:
        return np.eye(1, dtype=np.complex128)
    return reduce(np.kron, [as_complex_matrix(m) for m in mats])


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


def is_unitary(u: np.ndarray) -> bool:
    u = as_complex_matrix(u)
    if u.shape[0] != u.shape[1]:
        return False
    return np.abs(dagger(u) @ u - np.eye(u.shape[0])).max() <= 1e-9


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def psd_sqrt(m: np.ndarray) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix via eigendecomposition.

    Eigenvalues in [-1e-7, 0) are treated as numerical noise and clipped;
    anything more negative, or a Hermiticity deviation above 1e-7, raises.
    """
    w, v = eig_hermitian(m, tol=1e-7)
    if w.min() < -1e-7:
        raise ValueError(f"matrix is not PSD (min eigenvalue {w.min():.3e})")
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ dagger(v)


@lru_cache(maxsize=16)
def product_labels(tokens, num_qubits: int) -> tuple[str, ...]:
    """Every ``num_qubits``-fold product of ``tokens`` as a string, qubit 0 leftmost and slowest."""
    return tuple("".join(t) for t in itertools.product(tokens, repeat=num_qubits))


def apply_local(t: np.ndarray, m: np.ndarray, axes) -> np.ndarray:
    """Contract the 2^n x 2^n matrix ``m`` with the n size-2 ``axes`` of ``t``, axes kept in place.

    ``axes[0]`` is the most significant bit of ``m``'s rows and columns; a superoperator on
    row-major ``vec(rho)`` (Wood, Biamonte & Cory, arXiv:1111.6950) takes row axes, then columns.
    The ``axes`` (non-negative) lead in one transpose; the result is a transposed view.
    """
    perm = [*axes, *(a for a in range(t.ndim) if a not in axes)]
    back = sorted(range(t.ndim), key=perm.__getitem__)  # the inverse permutation
    d = 1 << len(axes)
    out = np.dot(np.reshape(m, (d, d)), t.transpose(perm).reshape(d, t.size // d))
    return out.reshape([t.shape[a] for a in perm]).transpose(back)


def along_qubits(x, maps, sizes, out_sizes) -> np.ndarray:
    """Apply ``maps[q]`` along qubit q's axes of a role-major tensor.

    ``x`` has one group of K axes per role, of size ``sizes[role]``, qubit 0
    first in each group.  ``maps[q]`` is a ``prod(out_sizes) x prod(sizes)``
    matrix acting on qubit q's axes (roles in order); the result is role-major
    over ``out_sizes``.  No matrix on more than one qubit is built.
    """
    k, n, n_out = len(maps), len(sizes), len(out_sizes)
    cols, rows = math.prod(sizes), math.prod(out_sizes)
    x = np.reshape(x, [size for size in sizes for _ in range(k)])
    for q, m in enumerate(maps):  # qubit q's axes lead each role's group; its new axes go last
        lead = list(range(0, n * (k - q), k - q))
        rest = [a for a in range(x.ndim) if a not in lead]
        out = np.dot(x.transpose(rest + lead).reshape(-1, cols), np.reshape(m, (rows, cols)).T)
        x = out.reshape([x.shape[a] for a in rest] + list(out_sizes))
    return x.transpose([n_out * q + role for role in range(n_out) for q in range(k)])
