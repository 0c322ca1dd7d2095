import importlib.resources
import time

import numpy as np
import pytest

from choiqpt import noise_model_from_calibration, parse_calibration


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-random unitary via QR with phase correction."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_hermitian(rng: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    a = rng.normal(scale=scale, size=(d, d)) + 1j * rng.normal(scale=scale, size=(d, d))
    return 0.5 * (a + a.conj().T)


def random_kraus_ops(rng: np.random.Generator, d: int, n_env: int = 3) -> list[np.ndarray]:
    """Random CPTP channel via a Haar isometry split into Kraus blocks."""
    g = rng.normal(size=(d * n_env, d)) + 1j * rng.normal(size=(d * n_env, d))
    q, _ = np.linalg.qr(g)
    return [q[i * d : (i + 1) * d, :] for i in range(n_env)]


def random_effect(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random POVM-style effect: PSD with eigenvalues in [0, 1]."""
    v = random_unitary(rng, d)
    return v @ np.diag(rng.uniform(0, 1, size=d)).astype(complex) @ v.conj().T


class Stopwatch:
    def __init__(self, limit_s: float):
        self.limit = limit_s
        self.start = time.perf_counter()

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def check(self):
        assert self.elapsed < self.limit, f"runtime {self.elapsed:.1f}s over {self.limit}s limit"


def data_path(name: str) -> str:
    return str(importlib.resources.files("choiqpt").joinpath(f"data/{name}"))


@pytest.fixture(scope="session")
def tab1_path() -> str:
    return data_path("ibm_perth_tab1.json")


@pytest.fixture(scope="session")
def perth_noise(tab1_path):
    return noise_model_from_calibration(parse_calibration(tab1_path), num_qubits=2)
