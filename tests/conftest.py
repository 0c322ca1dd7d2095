import importlib.resources
import time

import numpy as np
import pytest

from choiqpt import ground_state, noise_model_from_calibration, parse_calibration, to_native
from choiqpt.linalg import kron_all
from choiqpt.tomography import measurement_circuit, prep_circuit


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


def embed_operator(op: np.ndarray, qubits: tuple[int, ...], num_qubits: int) -> np.ndarray:
    """Operator on the ordered wires ``qubits`` as a full-register matrix (oracle).

    Built as ``kron(op, I)`` with the tensor factors then permuted so that the
    operator's first factor lands on ``qubits[0]``.
    """
    rest = [q for q in range(num_qubits) if q not in qubits]
    full = np.kron(op, np.eye(2 ** len(rest)))
    order = list(qubits) + rest
    perm = [order.index(q) for q in range(num_qubits)]
    t = full.reshape((2,) * (2 * num_qubits))
    return t.transpose(perm + [p + num_qubits for p in perm]).reshape(2**num_qubits, 2**num_qubits)


def apply_kraus(rho: np.ndarray, operators, qubits: tuple[int, ...], num_qubits: int) -> np.ndarray:
    """Kraus channel on some wires, each operator embedded in the full register (oracle)."""
    out = np.zeros_like(rho)
    for k in operators:
        full = embed_operator(k, qubits, num_qubits)
        out += full @ rho @ full.conj().T
    return out


def oracle_simulate(c, noise=None, initial=None) -> np.ndarray:
    """Gate-by-gate density-matrix simulation with embedded unitaries and Kraus sums (oracle)."""
    rho = ground_state(c.num_qubits) if initial is None else initial
    for g in c.gates:
        u = embed_operator(g.unitary(), g.qubits, c.num_qubits)
        rho = u @ rho @ u.conj().T
        ks = noise.kraus_for(g.name, g.qubits) if noise is not None else None
        if ks is not None:
            rho = apply_kraus(rho, ks.operators, g.qubits, c.num_qubits)
    return rho


def oracle_measure_noise(rho: np.ndarray, noise, num_qubits: int) -> np.ndarray:
    for q in range(num_qubits):
        ks = noise.measure_kraus(q)
        if ks is not None:
            rho = apply_kraus(rho, ks.operators, (q,), num_qubits)
    return rho


def oracle_job_frequencies(plan, target, noise, job_indices) -> dict:
    """Exact frequencies of the given plan jobs, one composed circuit per job (oracle)."""
    k = plan.num_qubits
    jobs = list(plan.jobs())
    out = {}
    for i in job_indices:
        prep, setting = jobs[i]
        circ = prep_circuit(prep, k).extended(target, measurement_circuit(setting, k))
        if noise is not None:
            circ = to_native(circ)
        rho = oracle_simulate(circ, noise)
        if noise is not None:
            rho = oracle_measure_noise(rho, noise, k)
        p = np.clip(np.real(np.diag(rho)), 0.0, None)
        p = p / p.sum()
        if noise is not None:
            p = kron_all(noise.confusion_for(k)).real @ p
        out[(prep, setting)] = p
    return out


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
