import importlib.resources
import json
import time
from xml.sax.saxutils import escape

import numpy as np
import pytest

from choiqpt import ground_state, noise_model_from_calibration, parse_calibration, to_native
from choiqpt.channels import ChoiMatrix, matrix_to_json_dict, pauli_basis
from choiqpt.linalg import dagger, frobenius, kron_all, product_labels
from choiqpt.simulator import CountsTable
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


def oracle_apply_local(t: np.ndarray, m: np.ndarray, axes) -> np.ndarray:
    """``linalg.apply_local`` as ``np.tensordot`` then ``np.moveaxis`` (oracle)."""
    n = len(axes)
    out = np.tensordot(np.reshape(m, (2,) * (2 * n)), t, axes=(range(n, 2 * n), axes))
    return np.moveaxis(out, range(n), axes)


def oracle_along_qubits(x, maps, sizes, out_sizes) -> np.ndarray:
    """``linalg.along_qubits`` as one ``np.tensordot`` per qubit (oracle)."""
    k, n, n_out = len(maps), len(sizes), len(out_sizes)
    x = np.reshape(x, [size for size in sizes for _ in range(k)])
    for q, m in enumerate(maps):  # qubit q's axes lead; its new axes go last
        m = np.reshape(m, tuple(out_sizes) + tuple(sizes))
        x = np.tensordot(x, m, axes=(range(0, n * (k - q), k - q), range(-n, 0)))
    return x.transpose([n_out * q + role for role in range(n_out) for q in range(k)])


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


def oracle_kraus_to_choi(operators) -> np.ndarray:
    """Choi matrix as the sum of outer products of the Kraus operators' vectors (oracle)."""
    d = operators[0].shape[0]
    c = np.zeros((d * d, d * d), dtype=complex)
    for k in operators:
        v = k.T.reshape(d * d)
        c += np.outer(v, v.conj())
    return c


def _pauli_choi_vectors(d: int) -> np.ndarray:
    """Rows v_m with v_m[(k, r)] = W_m[r, k]: the dense 4^K x 4^K matrix of Pauli Choi vectors."""
    return np.array([w.T.reshape(d * d) for w in pauli_basis(int(round(np.log2(d)))).operators])


def oracle_choi_to_chi(c: np.ndarray, d: int) -> np.ndarray:
    """chi = v* C v^T / d^2 over the dense Pauli Choi vectors (oracle)."""
    v = _pauli_choi_vectors(d)
    return v.conj() @ c @ v.T / d**2


def oracle_chi_to_choi(chi: np.ndarray, d: int) -> np.ndarray:
    """C = v^T chi v* over the dense Pauli Choi vectors (oracle)."""
    v = _pauli_choi_vectors(d)
    return v.T @ chi @ v.conj()


def oracle_choi_to_ptm(c: np.ndarray, d: int) -> np.ndarray:
    """R[m, n] = Tr[(W_n^T (x) W_m) C] / d from the stacked K-qubit Paulis (oracle)."""
    w = np.stack(pauli_basis(int(round(np.log2(d)))).operators)
    return np.einsum("msr,nkl,krls->mn", w, w, c.reshape(d, d, d, d), optimize=True) / d


def oracle_measure_noise(rho: np.ndarray, noise, num_qubits: int) -> np.ndarray:
    for q in range(num_qubits):
        ks = noise.measure_kraus(q)
        if ks is not None:
            rho = apply_kraus(rho, ks.operators, (q,), num_qubits)
    return rho


def oracle_job_frequencies(plan, target, noise, job_indices) -> dict:
    """Exact frequencies of the given plan jobs, gate by gate through each job's composed circuit
    (oracle).  Lowering is per gate, so each preparation's ``prep + target`` runs once and each
    setting's basis change runs on from that state: the gate sequence is the composed circuit's."""
    k = plan.num_qubits
    jobs = list(plan.jobs())
    lower = (lambda c: c) if noise is None else to_native
    prepared, out = {}, {}
    for i in job_indices:
        prep, setting = jobs[i]
        if prep not in prepared:
            prepared[prep] = oracle_simulate(lower(prep_circuit(prep, k).extended(target)), noise)
        rho = oracle_simulate(lower(measurement_circuit(setting, k)), noise, initial=prepared[prep])
        if noise is not None:
            rho = oracle_measure_noise(rho, noise, k)
        p = np.clip(np.real(np.diag(rho)), 0.0, None)
        p = p / p.sum()
        if noise is not None:
            p = kron_all(noise.confusion_for(k)).real @ p
        out[(prep, setting)] = p
    return out


def oracle_dataset_counts(plan, drawn: np.ndarray) -> dict:
    """Each job's :class:`CountsTable` from the ``(num_jobs, 2^K)`` draw, job by job (oracle)."""
    labels = product_labels("01", plan.num_qubits)
    return {
        key: CountsTable(plan.shots, dict(zip(labels, row)))
        for key, row in zip(plan.jobs(), drawn.tolist())
    }


def output_trace(m: np.ndarray, d: int) -> np.ndarray:
    """``Tr_out`` of a d^2 x d^2 operator, input factor first, by ``np.einsum`` (oracle)."""
    return np.einsum("ijkj->ik", np.reshape(m, (d, d, d, d)))


def tp_step(m: np.ndarray, d: int) -> np.ndarray:
    """Orthogonal projection onto Tr_out C = I: add ``(I - Tr_out C) / d`` (x) I."""
    t = m.reshape(d, d, d, d)
    shift = (np.eye(d) - output_trace(m, d)) / d
    return (t + shift[:, None, :, None] * np.eye(d)[None, :, None, :]).reshape(m.shape)


def dykstra_cptp(m: np.ndarray, d: int, tol: float, max_iter: int = 100_000) -> np.ndarray:
    """Nearest CPTP matrix by Dykstra-corrected alternating projections (oracle).

    Alternates the trace-preserving step with eigenvalue clipping onto the
    PSD cone, the Dykstra correction riding on the cone step, until
    successive iterates differ by less than ``tol`` in Frobenius norm.
    """
    c = 0.5 * (m + m.conj().T)
    correction = np.zeros_like(c)
    for _ in range(max_iter):
        prev = c
        y = tp_step(c, d) + correction
        y = 0.5 * (y + y.conj().T)
        w, v = np.linalg.eigh(y)
        c = (v * np.clip(w, 0.0, None)) @ v.conj().T
        correction = y - c
        if np.linalg.norm(c - prev) < tol:
            return c
    raise AssertionError(f"Dykstra oracle did not converge in {max_iter} iterations")


def _oracle_dual_point(r: np.ndarray, lam: np.ndarray):
    d = lam.shape[0]
    w, v = np.linalg.eigh(r + np.kron(lam, np.eye(d)))
    p = np.clip(w, 0.0, None)
    c = (v * p) @ dagger(v)
    return w, v, c, output_trace(c, d) - np.eye(d), 0.5 * p @ p - np.trace(lam).real


def oracle_newton_step(grad, w, v, mu, tol):
    d = grad.shape[0]
    p, pos = np.clip(w, 0.0, None), w > 0
    omega = np.divide(
        np.subtract.outer(p, p),
        np.subtract.outer(w, w),
        out=np.logical_and.outer(pos, pos).astype(float),
        where=np.not_equal.outer(pos, pos),
    )
    v_in = v.reshape(d, -1)
    v_dag = dagger(v)

    def hessian(e):
        y = v_dag @ (e @ v_in).reshape(v.shape)
        return (v @ (omega * y)).reshape(d, -1) @ dagger(v_in) + mu * e

    step, res = np.zeros_like(grad), -grad
    direction, rho = res, np.vdot(res, res).real
    for _ in range(d * d):
        h = hessian(direction)
        a = rho / np.vdot(direction, h).real
        step, res = step + a * direction, res - a * h
        rho, prev = np.vdot(res, res).real, rho
        if rho < tol**2:
            break
        direction = res + (rho / prev) * direction
    return step


def oracle_project_cptp(m: np.ndarray, d: int, tol: float = 1e-10, max_iter: int = 100):
    """The dual Newton-CG projection with ``np.kron``, ``output_trace`` and
    ``np.clip`` on every dual point (oracle): ``(choi, iterations, delta,
    distance, raw_min_eig)`` as ``tomography.project_cptp`` computes them."""
    r = 0.5 * (m + dagger(m))
    lam = (np.eye(d) - output_trace(r, d)) / d
    w, v, c, grad, theta = _oracle_dual_point(r, lam)
    delta, steps = frobenius(grad), 0
    while delta >= tol and steps < max_iter:
        steps += 1
        cg_tol = max(min(0.1, delta) * delta, 0.1 * tol)
        step = oracle_newton_step(grad, w, v, min(1e-4, delta), cg_tol)
        slope, alpha = np.vdot(grad, step).real, 1.0
        for _ in range(30):
            trial_lam = lam + alpha * step
            trial = _oracle_dual_point(r, trial_lam)
            trial_delta = frobenius(trial[3])
            if trial[4] <= theta + 1e-4 * alpha * slope or trial_delta < delta:
                break
            alpha /= 2
        lam, delta, (w, v, c, grad, theta) = trial_lam, trial_delta, trial
    return c, steps, delta, frobenius(c - r), float(np.linalg.eigvalsh(r)[0])


def oracle_dataset_dict(ds) -> dict:
    """A dataset's ``dataset.json`` record, built job by job from its outcomes (oracle)."""
    labels, shots = product_labels("01", ds.plan.num_qubits), ds.plan.shots
    rows = ds.outcomes.reshape(ds.plan.num_jobs, -1).tolist()
    jobs = [
        {"prep": p, "setting": s, "frequencies": row} if shots is None
        else {"prep": p, "setting": s, "counts": {"shots": shots, "counts": dict(zip(labels, row))}}
        for (p, s), row in zip(ds.plan.jobs(), rows)
    ]
    return {"num_qubits": ds.plan.num_qubits, "shots": shots, "metadata": dict(ds.metadata), "jobs": jobs}


def oracle_dataset_json(ds) -> str:
    """``dataset.json`` as the pure-Python json encoder writes it (oracle)."""
    return json.dumps(oracle_dataset_dict(ds), indent=2, sort_keys=True)


def oracle_choi_json(c) -> str:
    """``choi.json`` as the pure-Python json encoder writes it (oracle)."""
    return json.dumps(matrix_to_json_dict(c.matrix, c.dim_in), indent=2, sort_keys=True)


def read_choi_json(text: str) -> ChoiMatrix:
    """The Choi matrix of a ``choi.json`` text, bit for bit (the package writes it, never reads it)."""
    d = json.loads(text)
    m = np.asarray(d["re"], dtype=complex)
    m.imag = d["im"]  # not re + 1j * im, which turns -0.0 parts into 0.0
    return ChoiMatrix(d["dim"], d["dim"], m)


def oracle_matrix_csv(m: np.ndarray, part: str = "re") -> str:
    """``choi_{re,im}.csv`` written one f-string per element (oracle for ``channels.matrix_csv``)."""
    m = np.asarray(m)
    data = m.real if part == "re" else m.imag
    return "\n".join(",".join(f"{x:.12g}" for x in row) for row in data) + "\n"


_FONT = 'font-family="Helvetica,Arial,sans-serif"'


def _oracle_svg_header(width: float, height: float, title: str) -> list[str]:
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
            f'font-size="14" {_FONT}>{escape(title)}</text>'
        )
    return parts


def oracle_svg_hinton(matrix: np.ndarray, labels, title: str = "") -> str:
    """Hinton diagram drawn one entry at a time (oracle for ``viz.svg_hinton``)."""
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    cell = 26.0
    margin_left, margin_top = 64.0, 56.0
    width = margin_left + n * cell + 20
    height = margin_top + n * cell + 20
    parts = _oracle_svg_header(width, height, title)
    parts.append(
        f'<rect x="{margin_left}" y="{margin_top}" width="{n * cell}" '
        f'height="{n * cell}" fill="#e8e8e8" stroke="#999"/>'
    )
    vmax = max(np.abs(m).max(), 1e-6)
    for j, lab in enumerate(labels):
        x = margin_left + (j + 0.5) * cell
        parts.append(
            f'<text x="{x:.1f}" y="{margin_top - 6:.1f}" text-anchor="middle" '
            f'font-size="9" {_FONT}>{escape(lab)}</text>'
        )
    for i, lab in enumerate(labels):
        y = margin_top + (i + 0.5) * cell + 3
        parts.append(
            f'<text x="{margin_left - 6:.1f}" y="{y:.1f}" text-anchor="end" '
            f'font-size="9" {_FONT}>{escape(lab)}</text>'
        )
    for i in range(n):
        for j in range(n):
            v = m[i, j]
            if abs(v) / vmax < 1e-6:
                continue
            side = cell * 0.92 * np.sqrt(abs(v) / vmax)
            cx = margin_left + (j + 0.5) * cell
            cy = margin_top + (i + 0.5) * cell
            x, y = cx - side / 2, cy - side / 2
            if v >= 0:
                style = 'fill="#2b6cb0"'
            else:
                style = 'fill="white" stroke="#c53030" stroke-width="1.5"'
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{side:.2f}" '
                f'height="{side:.2f}" {style}/>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _oracle_iso(i: float, j: float, z: float, geom) -> tuple[float, float]:
    ox, oy, ux, uy, hz = geom
    return ox + (j - i) * ux, oy + (j + i) * uy - z * hz


def oracle_svg_city(matrix: np.ndarray, labels, title: str = "") -> str:
    """City plot drawn one bar and one point at a time (oracle for ``viz.svg_city``)."""
    m = np.asarray(matrix, dtype=float)
    n = m.shape[0]
    vmax = max(np.abs(m).max(), 1e-6)
    ux, uy = 16.0, 8.0
    hz = 90.0 / vmax
    width = 2 * n * ux + 120
    height = 2 * n * uy + 200
    ox = width / 2
    oy = 140.0
    geom = (ox, oy, ux, uy, hz)
    parts = _oracle_svg_header(width, height, title)
    for k in range(n + 1):
        x1, y1 = _oracle_iso(k, 0, 0, geom)
        x2, y2 = _oracle_iso(k, n, 0, geom)
        parts.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            f'stroke="#ccc" stroke-width="0.6"/>'
        )
        x1, y1 = _oracle_iso(0, k, 0, geom)
        x2, y2 = _oracle_iso(n, k, 0, geom)
        parts.append(
            f'<line x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" '
            f'stroke="#ccc" stroke-width="0.6"/>'
        )
    for k, lab in enumerate(labels):
        x, y = _oracle_iso(k + 0.5, -0.4, 0, geom)
        parts.append(
            f'<text x="{x:.1f}" y="{y:.1f}" text-anchor="end" font-size="8" '
            f'{_FONT}>{escape(lab)}</text>'
        )
        x, y = _oracle_iso(-0.4, k + 0.5, 0, geom)
        parts.append(
            f'<text x="{x:.1f}" y="{y:.1f}" text-anchor="start" font-size="8" '
            f'{_FONT}>{escape(lab)}</text>'
        )

    def face(points, color) -> str:
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
        return f'<polygon points="{pts}" fill="{color}" stroke="#333" stroke-width="0.4"/>'

    pos = {"top": "#6fa8dc", "left": "#3d85c6", "right": "#2a5d8f"}
    neg = {"top": "#ea9999", "left": "#cc4125", "right": "#94301a"}
    half = 0.36
    for s in range(2 * n - 1):  # back-to-front diagonals
        for i in range(n):
            j = s - i
            if not 0 <= j < n:
                continue
            v = m[i, j]
            if abs(v) / vmax < 1e-4:
                continue
            colors = pos if v >= 0 else neg
            ci, cj = i + 0.5, j + 0.5
            corners = [
                (ci - half, cj - half),
                (ci - half, cj + half),
                (ci + half, cj + half),
                (ci + half, cj - half),
            ]
            top = [_oracle_iso(a, b, v, geom) for a, b in corners]
            base = [_oracle_iso(a, b, 0, geom) for a, b in corners]
            hi, lo = (top, base) if v >= 0 else (base, top)
            parts.append(face([hi[1], hi[2], lo[2], lo[1]], colors["left"]))
            parts.append(face([hi[2], hi[3], lo[3], lo[2]], colors["right"]))
            parts.append(face(hi if v >= 0 else lo, colors["top"]))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def oracle_svg_counts_bar(counts: dict, shots: int, title: str = "") -> str:
    """Count histogram drawn one bar and one element at a time (oracle for ``viz.svg_counts_bar``)."""
    keys = sorted(counts)
    bar_w, gap = 56.0, 22.0
    margin_left, base_y, plot_h = 60.0, 250.0, 190.0
    width = margin_left + len(keys) * (bar_w + gap) + 30
    parts = _oracle_svg_header(width, base_y + 50, title)
    parts.append(
        f'<line x1="{margin_left - 10}" y1="{base_y}" x2="{width - 15}" '
        f'y2="{base_y}" stroke="#333"/>'
    )
    fmax = max(max(counts.values()) / shots, 1e-9)
    for k, key in enumerate(keys):
        f = counts[key] / shots
        h = plot_h * f / fmax
        x = margin_left + k * (bar_w + gap)
        parts.append(
            f'<rect x="{x:.1f}" y="{base_y - h:.1f}" width="{bar_w}" '
            f'height="{h:.1f}" fill="#2b6cb0"/>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{base_y + 16:.1f}" text-anchor="middle" '
            f'font-size="12" {_FONT}>{escape(key)}</text>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.1f}" y="{base_y - h - 6:.1f}" text-anchor="middle" '
            f'font-size="10" {_FONT}>{counts[key]} ({f:.4f})</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


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
