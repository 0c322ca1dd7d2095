"""One benchmark process: set up one workload, then run its ops in a closed loop.

``run.py`` starts this file in a fresh interpreter with the repository's
``src/`` on ``PYTHONPATH``, so set-up time and peak RSS belong to a single
workload.  The process prints one JSON object as its last stdout line.

Modes:

* ``setup``   set up, run the untimed warm-up op, report ``setup_s`` and exit;
* ``measure`` set up, then time untraced ops until ``--seconds`` have passed;
* ``trace``   set up, then run each op twice per seed, untraced and as the
  traced sequence of public calls that ``qpt()`` / ``cmd_run`` make, and
  check that both give the same result.

Spans are recorded only around the benchmark's own calls into the package;
nothing inside ``src/`` is hooked.  Between ops the process samples a
numpy-only reference kernel, which ``run.py`` uses to rescale times to a
nominal machine speed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import choiqpt
from choiqpt import (
    QptResult,
    ReconstructionOptions,
    build_plan,
    choi_from_unitary,
    choi_to_chi,
    circuit_unitary,
    execute_plan,
    fidelity_report,
    is_cptp,
    linear_inversion,
    load_circuit,
    measure_probabilities,
    noise_model_from_calibration,
    parse_calibration,
    project_cptp,
    qpt,
    sample_counts,
    simulate,
    to_native,
    tomography,
    viz,
)
from choiqpt import cli
from choiqpt.channels import matrix_csv, matrix_to_json_dict
from choiqpt.simulator import apply_measure_noise
from choiqpt.tomography import measurement_circuit, prep_circuit

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"
DATA_DIR = Path(choiqpt.__file__).resolve().parent / "data"

# Per-op seeds cycle through a pool drawn from the workload seed, so seeds
# recur within a run and the CLI's byte-identical-output guarantee is checked.
SEED_POOL = 4
SEED_INDEPENDENT_COUNTS = ("tomography.jobs", "gates.native_gates", "noise.kraus_ops", "simulator.shots")

REF_LOOPS = 1_000

DIRECT_SHOTS = 7_168
DIRECT_P00 = 6680 / 7168


@dataclass(frozen=True)
class Bands:
    """Output checks from the acceptance criteria (05, 06, 07)."""

    noisy_fp: tuple[float, float] = (0.85, 0.93)
    direct_p00_tol: float = 0.03
    clean_fp: tuple[float, float] = (0.95, 1.0)


def op_seeds(workload_seed: int) -> tuple[list[int], int]:
    """The per-op seed pool and the warm-up seed, derived from the workload seed."""
    state = np.random.SeedSequence(workload_seed).generate_state(SEED_POOL + 1)
    seeds = [int(s) for s in state]
    return seeds[:SEED_POOL], seeds[SEED_POOL]


def reference_seconds() -> float:
    """Time one pass of a fixed numpy-only kernel.

    The kernel has the instruction mix of the package's simulator (small
    ``kron`` and conjugation steps in a Python loop) but calls nothing in the
    package, so its time tracks the machine's speed, not the code under test.
    """
    flip = np.array([[0, 1], [1, 0]], dtype=complex)
    eye = np.eye(2)
    rho = np.eye(4, dtype=complex)
    t = time.perf_counter()
    for _ in range(REF_LOOPS):
        u = np.kron(flip, eye)
        rho = u @ rho @ u.conj().T
        rho = rho / np.trace(rho)
    return time.perf_counter() - t


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


def plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Tracer:
    """In-memory spans: name, op id, parent span index, start and end."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op: int | None = None

    @contextmanager
    def span(self, name: str):
        rec = {
            "name": name,
            "op": self.op,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def self_times(self, op: int) -> dict[str, float]:
        """Seconds per span name for one op, minus the time its child spans cover."""
        out: dict[str, float] = {}
        idx = [i for i, s in enumerate(self.spans) if s["op"] == op]
        for i in idx:
            s = self.spans[i]
            out[s["name"]] = out.get(s["name"], 0.0) + s["end"] - s["start"]
            if s["parent"] is not None:
                p = self.spans[s["parent"]]
                out[p["name"]] -= s["end"] - s["start"]
        return out


# ---------------------------------------------------------------------------
# The public call sequences of qpt() and the direct execution
# ---------------------------------------------------------------------------


def qpt_steps(call, target, noise, shots: int, seed: int):
    """``qpt()`` as its sequence of public calls, each made through ``call``."""
    options = ReconstructionOptions()
    plan = call("tomography.build_plan", build_plan, target.num_qubits, shots)
    dataset = call("tomography.execute_plan", execute_plan, plan, target, noise=noise, seed=seed)
    raw = call("tomography.linear_inversion", linear_inversion, dataset)
    proj = call(
        "tomography.project_cptp",
        project_cptp,
        raw,
        tol=options.cptp_tol,
        max_iter=options.max_iterations,
    )
    unitary = call("gates.circuit_unitary", circuit_unitary, target)
    ideal = call("channels.choi_from_unitary", choi_from_unitary, unitary)
    report = call("metrics.fidelity_report", fidelity_report, proj.choi, ideal)
    return QptResult(proj.choi, raw, ideal, report, dataset, proj.converged), proj


def direct_execution(call, circuit, noise, seed: int):
    """Lower, simulate, decay, read out and sample, as ``qpt execute`` does."""
    native = call("gates.to_native", to_native, circuit)
    rho = call("simulator.simulate", simulate, native, noise)
    rho = call("simulator.apply_measure_noise", apply_measure_noise, rho, noise, circuit.num_qubits)
    probs = call("simulator.measure_probabilities", measure_probabilities, rho, "Z" * circuit.num_qubits)
    confusion = noise.confusion_for(circuit.num_qubits)
    return call("simulator.sample_counts", sample_counts, probs, DIRECT_SHOTS, seed, confusion=confusion)


def noise_work(plan, target, noise) -> tuple[int, int]:
    """Native gates and Kraus operators the noisy plan executes, counted from outside."""
    if noise is None:
        return 0, 0
    gates = kraus = 0
    for prep, setting in plan.jobs():
        circ = prep_circuit(prep, plan.num_qubits).extended(
            target, measurement_circuit(setting, plan.num_qubits)
        )
        native = to_native(circ)
        gates += len(native.gates)
        for g in native.gates:
            ks = noise.kraus_for(g.name, g.qubits)
            kraus += len(ks.operators) if ks is not None else 0
        for q in range(plan.num_qubits):
            ks = noise.measure_kraus(q)
            kraus += len(ks.operators) if ks is not None else 0
    return gates, kraus


def design_mb_computed(plan) -> float:
    """MB of design matrix and basis stack the process computed, set-up included.

    Read from ``tomography._design``'s cache from outside; 0 when the package
    no longer builds a dense design matrix.
    """
    design = getattr(tomography, "_design", None)
    if design is None or not hasattr(design, "cache_info"):
        return 0.0
    misses = design.cache_info().misses
    a, bstack = design(plan.preparations, plan.settings, plan.num_qubits)
    return misses * (a.nbytes + bstack.nbytes) / 1e6


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Noisy2q:
    """``qpt(SQSCZ)`` under the ibm_perth_tab1 model at 4,000 shots, then a
    7,168-shot direct execution."""

    name = "noisy_2q"
    shots = 4_000

    def __init__(self, setup_times: dict[str, float]):
        path = DATA_DIR / "ibm_perth_tab1.json"
        t = time.perf_counter()
        calib = parse_calibration(str(path))
        setup_times["noise.parse_calibration.s"] = time.perf_counter() - t
        t = time.perf_counter()
        self.noise = noise_model_from_calibration(calib, num_qubits=2, label=path.name)
        setup_times["noise.noise_model_from_calibration.s"] = time.perf_counter() - t
        self.circuit = load_circuit(str(DATA_DIR / "sqscz_circuit.json"))
        self._noise_work: tuple[int, int] | None = None

    def run(self, seed: int) -> dict:
        res = qpt(self.circuit, noise=self.noise, shots=self.shots, seed=seed)
        table = direct_execution(plain_call, self.circuit, self.noise, seed)
        return self._outcome(res, table)

    def run_traced(self, seed: int, tracer: Tracer) -> dict:
        res, proj = qpt_steps(tracer.call, self.circuit, self.noise, self.shots, seed)
        table = direct_execution(tracer.call, self.circuit, self.noise, seed)
        out = self._outcome(res, table)
        out["iterations"] = proj.iterations
        return out

    @staticmethod
    def _outcome(res, table) -> dict:
        return {
            "fidelity": res.report.process_fidelity,
            "converged": res.converged,
            "choi": res.choi.matrix,
            "plan": res.dataset.plan,
            "shots": sum(t.shots for t in res.dataset.counts.values()) + table.shots,
            "direct_counts": table.counts,
            "p00": table.frequency("00"),
        }

    def check(self, out: dict, seed: int, bands: Bands) -> list[str]:
        problems = []
        if not out["converged"]:
            problems.append("CPTP projection did not converge")
        lo, hi = bands.noisy_fp
        if not lo <= out["fidelity"] <= hi:
            problems.append(f"F_P {out['fidelity']:.4f} outside [{lo}, {hi}]")
        if abs(out["p00"] - DIRECT_P00) > bands.direct_p00_tol:
            problems.append(f"direct P(00) {out['p00']:.4f} not within {bands.direct_p00_tol} of {DIRECT_P00:.4f}")
        return problems

    @staticmethod
    def same(a: dict, b: dict) -> bool:
        return (
            np.array_equal(a["choi"], b["choi"])
            and a["fidelity"] == b["fidelity"]
            and a["direct_counts"] == b["direct_counts"]
        )

    def counts(self, out: dict) -> dict[str, float]:
        if self._noise_work is None:
            self._noise_work = noise_work(out["plan"], self.circuit, self.noise)
        gates, kraus = self._noise_work
        return {
            "gates.native_gates": gates,
            "noise.kraus_ops": kraus,
            "simulator.shots": out["shots"],
            "cli.bytes_written": 0,
        }

    def close(self):
        pass


class Clean2qCli:
    """``qpt run`` on the SQSCZ circuit at 11,000 shots without noise."""

    name = "clean_2q_cli"
    shots = 11_000
    recurring_files = ("dataset.json", "choi.json", "report.json")

    def __init__(self, setup_times: dict[str, float]):
        self.circuit_path = str(DATA_DIR / "sqscz_circuit.json")
        work = OUT_DIR / f"work-{os.getpid()}"
        self.dirs = {"untraced": work / "untraced", "traced": work / "traced"}
        self.work = work
        self.digests: dict[int, str] = {}

    def run(self, seed: int) -> dict:
        out = self.dirs["untraced"]
        code = cli.main([
            "run", "--circuit", self.circuit_path, "--shots", str(self.shots),
            "--seed", str(seed), "--out", str(out),
        ])
        return {"code": code, "dir": out}

    def run_traced(self, seed: int, tracer: Tracer) -> dict:
        """``cmd_run`` as its sequence of public calls, writing to a second directory."""
        out = self.dirs["traced"]
        call = tracer.call
        circuit = call("gates.load_circuit", load_circuit, self.circuit_path)
        result, proj = qpt_steps(call, circuit, None, self.shots, seed)
        choi = result.choi.matrix
        with tracer.span("cli.write"):
            _write(out / "dataset.json", result.dataset.to_json() + "\n")
            _write(out / "choi.json", _json_dumps(matrix_to_json_dict(choi, result.choi.dim_in)))
            report = result.report_dict(shots=self.shots, seed=seed)
            report.update(method="linear_inversion_then_cptp", exact=False, noise=None)
            _write(out / "report.json", _json_dumps(report))
            _write(out / "choi_re.csv", matrix_csv(choi, "re"))
            _write(out / "choi_im.csv", matrix_csv(choi, "im"))
        labels = _choi_labels(circuit.num_qubits)
        for part, values, title in (("re", choi.real, "Re C"), ("im", choi.imag, "Im C")):
            svg = call("viz.svg_city", viz.svg_city, values, labels, title)
            call("cli.write", _write, out / f"choi_{part}_city.svg", svg)
        chi = call("channels.choi_to_chi", choi_to_chi, result.choi)
        for part, values, title in (("re", chi.matrix.real, "Re chi"), ("im", chi.matrix.imag, "Im chi")):
            svg = call("viz.svg_hinton", viz.svg_hinton, values, chi.labels, title)
            call("cli.write", _write, out / f"chi_{part}_hinton.svg", svg)
        rep = call("channels.is_cptp", is_cptp, result.choi)
        with tracer.span("cli.write"):
            print(
                f"process fidelity {result.report.process_fidelity:.6f}  "
                f"avg gate fidelity {result.report.average_gate_fidelity:.6f}  "
                f"min eig {rep.min_eig:.2e}  tp dev {rep.tp_dev:.2e}"
            )
            print(f"outputs written to {out}/")
        return {"code": 0, "dir": out, "plan": result.dataset.plan, "iterations": proj.iterations}

    def check(self, out: dict, seed: int, bands: Bands) -> list[str]:
        if out["code"] != 0:
            return [f"exit code {out['code']}"]
        problems = []
        report = json.loads((out["dir"] / "report.json").read_text())
        lo, hi = bands.clean_fp
        if not lo <= report["process_fidelity"] <= hi:
            problems.append(f"F_P {report['process_fidelity']:.4f} outside [{lo}, {hi}]")
        digest = hashlib.sha256(
            b"".join((out["dir"] / f).read_bytes() for f in self.recurring_files)
        ).hexdigest()
        if self.digests.setdefault(seed, digest) != digest:
            problems.append(f"outputs for recurring seed {seed} are not byte-identical")
        return problems

    @staticmethod
    def same(a: dict, b: dict) -> bool:
        files = sorted(p.name for p in a["dir"].iterdir())
        return files == sorted(p.name for p in b["dir"].iterdir()) and all(
            (a["dir"] / f).read_bytes() == (b["dir"] / f).read_bytes() for f in files
        )

    def counts(self, out: dict) -> dict[str, float]:
        plan = out["plan"]
        return {
            "gates.native_gates": 0,
            "noise.kraus_ops": 0,
            "simulator.shots": plan.num_jobs * plan.shots,
            "cli.bytes_written": sum(p.stat().st_size for p in out["dir"].iterdir()),
        }

    def close(self):
        for d in self.dirs.values():
            if d.exists():
                for p in d.iterdir():
                    p.unlink()
                d.rmdir()
        if self.work.exists():
            self.work.rmdir()


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _choi_labels(num_qubits: int) -> list[str]:
    d = 2**num_qubits
    return [f"{k:0{num_qubits}b}{r:0{num_qubits}b}" for k in range(d) for r in range(d)]


WORKLOADS = {cls.name: cls for cls in (Noisy2q, Clean2qCli)}


# ---------------------------------------------------------------------------
# Loops
# ---------------------------------------------------------------------------


def run_ops(workload, seeds: list[int], seconds: float, min_ops: int, bands: Bands) -> dict:
    """Closed loop, one client: time untraced ops and count failed output checks.

    The reference kernel runs before the first op and after every op, so
    ``ref_s[i]`` and ``ref_s[i + 1]`` bracket op ``i``.  ``cycles`` are each
    op's share of the loop's time: the op and its check, without the kernel.
    """
    times: list[float] = []
    cycles: list[float] = []
    failures: list[str] = []
    ref_s = [reference_seconds()]
    start = time.perf_counter()
    while True:
        seed = seeds[len(times) % len(seeds)]
        t = time.perf_counter()
        try:
            out = workload.run(seed)
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            out, problems = None, [f"raised {exc!r}"]
        times.append(time.perf_counter() - t)
        if out is not None:
            problems = workload.check(out, seed, bands)
        if problems:
            failures.append(f"op {len(times) - 1} seed {seed}: " + "; ".join(problems))
        cycles.append(time.perf_counter() - t)
        ref_s.append(reference_seconds())
        if time.perf_counter() - start >= seconds and len(times) >= min_ops:
            break
    return {
        "times": times,
        "cycles": cycles,
        "attempted": len(times),
        "failures": failures,
        "ref_s": ref_s,
    }


def run_traced(workload, seeds: list[int], seconds: float, min_ops: int, bands: Bands) -> dict:
    """Per seed: the untraced op and the traced call sequence, which must agree.

    As in ``run_ops``, ``ref_s[i]`` and ``ref_s[i + 1]`` bracket pair ``i``.
    """
    tracer = Tracer()
    times: dict[str, list[float]] = {"untraced": [], "traced": []}
    failures: list[str] = []
    counts: dict[str, float] = {}
    ref_s = [reference_seconds()]
    start = time.perf_counter()
    while True:
        i = len(times["traced"])
        seed = seeds[i % len(seeds)]
        tracer.op = i
        res = {}
        # Alternate which of the pair runs first, so drift does not show as overhead.
        for kind in ("untraced", "traced") if i % 2 == 0 else ("traced", "untraced"):
            t = time.perf_counter()
            if kind == "untraced":
                res[kind] = workload.run(seed)
            else:
                with tracer.span("op"):
                    res[kind] = workload.run_traced(seed, tracer)
            times[kind].append(time.perf_counter() - t)
        plain, out = res["untraced"], res["traced"]
        problems = workload.check(plain, seed, bands)
        if not workload.same(plain, out):
            problems.append("traced result differs from the untraced op")
        op_counts = {
            "tomography.jobs": out["plan"].num_jobs,
            "tomography.project_cptp.iterations": out["iterations"],
            **workload.counts(out),
        }
        if i == 0:
            counts = op_counts
        elif any(op_counts[k] != counts[k] for k in SEED_INDEPENDENT_COUNTS):
            problems.append(f"seed-independent counts changed: {op_counts}")
        if problems:
            failures.append(f"op {i} seed {seed}: " + "; ".join(problems))
        ref_s.append(reference_seconds())
        if time.perf_counter() - start >= seconds and i + 1 >= min_ops:
            break
    counts["tomography.design_mb_computed"] = design_mb_computed(out["plan"])
    return {
        **times,
        "attempted": i + 1,
        "failures": failures,
        "self_s": [tracer.self_times(op) for op in range(i + 1)],
        "counts": counts,
        "ref_s": ref_s,
        "spans": tracer.spans,
    }


def provenance() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {
        k: os.environ.get(k, "default")
        for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    }
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--t0", type=float, required=True, help="time.monotonic() at process start")
    parser.add_argument("--min-ops", type=int, required=True)
    args = parser.parse_args(argv)

    seeds, warm_seed = op_seeds(args.seed)
    bands = Bands()
    setup_times: dict[str, float] = {}
    workload = WORKLOADS[args.workload](setup_times)
    try:
        warm = workload.run(warm_seed)
        problems = workload.check(warm, warm_seed, bands)
        if problems:
            raise RuntimeError(f"warm-up op failed its output check: {problems}")
        setup_s = time.monotonic() - args.t0
        setup_ref_s = statistics.median(reference_seconds() for _ in range(3))
        result = {
            "setup_s": setup_s,
            "setup_ref_s": setup_ref_s,
            "setup_layers": setup_times,
            "provenance": provenance(),
        }
        if args.mode == "measure":
            result.update(run_ops(workload, seeds, args.seconds, args.min_ops, bands))
        elif args.mode == "trace":
            traced = run_traced(workload, seeds, args.seconds, args.min_ops, bands)
            OUT_DIR.mkdir(exist_ok=True)
            spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
            spans_path.write_text(json.dumps(traced.pop("spans")))
            result.update(traced, spans_file=str(spans_path.relative_to(BENCH_DIR.parent)))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        workload.close()
    sys.stdout.flush()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
