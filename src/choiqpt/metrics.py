"""Fidelity measures between reconstructed channels and ideal targets."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, asdict

import numpy as np

from .channels import ChoiMatrix, is_cptp
from .linalg import HERM_TOL, as_complex_matrix, dagger, eig_hermitian, psd_sqrt


def state_fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity ``(Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2``."""
    rho = as_complex_matrix(rho)
    sigma = as_complex_matrix(sigma)
    if rho.shape != sigma.shape:
        raise ValueError("states must share a dimension")
    sr = psd_sqrt(rho)
    inner = sr @ sigma @ sr
    w, _ = eig_hermitian(inner, tol=1e-7)
    if w.min() < -1e-7:
        raise ValueError(f"inner matrix not PSD (min eigenvalue {w.min():.3e})")
    w = np.clip(w, 0.0, None)
    # suppress eigen-noise (sqrt blows up roundoff-scale junk eigenvalues)
    w[w < w.max() * 1e-12] = 0.0
    return float(np.sum(np.sqrt(w)) ** 2)


def process_fidelity(measured: ChoiMatrix, ideal: ChoiMatrix) -> float:
    """Entanglement (process) fidelity of a measured channel to an ideal one.

    For a unitary ideal the Choi state ``rho = |phi><phi|`` is pure, and the
    overlap ``<phi| C_meas/Tr(C_meas) |phi>`` is ``Tr(rho C_meas) / Tr(C_meas)``.
    An ideal with ``Tr rho^2 < 1 - 2e-7`` falls back (with a warning) to the
    Uhlmann fidelity of the two normalized Choi states; a non-Hermitian one raises.
    """
    if measured.dim_in != ideal.dim_in:
        raise ValueError("channel dimensions do not match")
    rho = ideal.normalized()
    dev = np.abs(rho - dagger(rho)).max()
    if dev > HERM_TOL:
        raise ValueError(f"ideal Choi matrix is not Hermitian (deviation {dev:.3e})")
    if np.vdot(rho, rho).real < 1.0 - 2e-7:  # ideal Choi state not pure
        warnings.warn(
            "ideal channel is not unitary (Choi not rank one); "
            "falling back to Uhlmann fidelity of Choi states",
            stacklevel=2,
        )
        return state_fidelity(measured.normalized(), rho)
    return float(np.vdot(rho, measured.normalized()).real)


@dataclass(frozen=True)
class FidelityReport:
    process_fidelity: float
    average_gate_fidelity: float
    tp_deviation: float
    min_eigenvalue: float

    def to_dict(self) -> dict:
        return asdict(self)


def fidelity_report(measured: ChoiMatrix, ideal: ChoiMatrix) -> FidelityReport:
    """Bundle process fidelity (clipped to [0, 1]) with physicality stats.

    The average gate fidelity obeys ``F_avg = (d F_P + 1) / (d + 1)``
    exactly, by construction.
    """
    fp = min(1.0, max(0.0, process_fidelity(measured, ideal)))
    d = measured.dim_in
    favg = (d * fp + 1.0) / (d + 1.0)
    rep = is_cptp(measured)
    return FidelityReport(fp, favg, rep.tp_dev, rep.min_eig)
