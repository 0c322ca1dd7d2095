#!/usr/bin/env python3
"""choiqpt benchmark runner.

    python3 perfbench/run.py --workload noisy_2q --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py                      # every workload, untraced then traced

Each run starts fresh ``worker.py`` processes, one after another, with the
repository's ``src/`` on their import path (the package need not be
installed).  An untraced run reports the end-to-end metrics named in
``BENCHMARK.json``; a traced run (``--trace 1``) reports the per-layer ones.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Full results, with provenance, go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# setup_s is the median over this many fresh processes (the measuring one included).
SETUP_RUNS = 3
# A run, set-up included, must end well within 180 s.
RUN_BUDGET_S = 170.0
# op_s_tail needs at least 10 ops beyond the reported percentile.
MIN_OPS = 11
# Nominal time of one reference-kernel sample (worker.reference_seconds), about
# its median on the 2-vCPU machine the first baseline was taken on.
REF_NOMINAL_S = 0.05


class BenchError(Exception):
    pass


def read_loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(workload: str, seed: int, seconds: float, mode: str, min_ops: int, deadline: float) -> dict:
    """Run one fresh worker process and return the JSON object it prints last."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left to start a {mode} process for {workload}")
    cmd = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--min-ops", str(min_ops), "--t0", repr(time.monotonic()),
    ]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process for {workload} did not finish within the run budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process for {workload} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least 10 ops beyond it: (value, percentile, ops beyond)."""
    s = sorted(times)
    n = len(s)
    if n <= 10:  # too few ops: report the slowest
        return s[-1], 100.0, 0
    return s[n - 11], 100.0 * (n - 10) / n, 10


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: bool, short: bool) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    load_before = read_loadavg()
    if trace:
        raw = spawn(workload, seed, seconds, "trace", 1, deadline)
    else:
        raw = spawn(workload, seed, seconds, "measure", 1 if short else MIN_OPS, deadline)
        setups = [raw] + [
            spawn(workload, seed, seconds, "setup", 1, deadline)
            for _ in range(1 if short else SETUP_RUNS - 1)
        ]
    load_after = read_loadavg()

    attempted = raw["attempted"]
    failed = len(raw["failures"])
    # Times are rescaled to a nominal machine speed: the host's speed drifts by
    # tens of percent within and between runs, and the reference kernel run
    # just before and after each op tracks that drift while calling nothing
    # in the package.
    ref_s = raw["ref_s"]
    factors = [REF_NOMINAL_S / ((a + b) / 2) for a, b in zip(ref_s, ref_s[1:])]
    detail: dict = {"ref_s_median": statistics.median(ref_s)}
    if trace:
        per_op = [{n: v * k for n, v in d.items()} for d, k in zip(raw["self_s"], factors)]
        names = sorted({n for d in per_op for n in d})
        self_s = {n: statistics.median(d.get(n, 0.0) for d in per_op) for n in names}
        untraced_p50 = statistics.median(t * k for t, k in zip(raw["untraced"], factors))
        traced_p50 = statistics.median(t * k for t, k in zip(raw["traced"], factors))
        setup_scale = REF_NOMINAL_S / raw["setup_ref_s"]
        available = {
            **{f"{name}.s": v for name, v in self_s.items()},
            **{name: v * setup_scale for name, v in raw["setup_layers"].items()},
            **raw["counts"],
            "bench.untraced_op.s": untraced_p50,
            "bench.traced_op.s": traced_p50,
        }
        detail.update(
            wall={"bench.untraced_op.s": statistics.median(raw["untraced"]),
                  "bench.traced_op.s": statistics.median(raw["traced"])},
            tracing_overhead_s=traced_p50 - untraced_p50,
            self_share={n: v / traced_p50 for n, v in self_s.items()},
        )
        wanted = spec["per_layer"]
    else:
        times = [t * k for t, k in zip(raw["times"], factors)]
        tail_s, tail_pct, beyond = tail(times)
        available = {
            "op_s_p50": statistics.median(times),
            "op_s_tail": tail_s,
            "ops_per_s": attempted / sum(c * k for c, k in zip(raw["cycles"], factors)),
            "setup_s": statistics.median(s["setup_s"] * REF_NOMINAL_S / s["setup_ref_s"] for s in setups),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
        detail.update(
            wall={
                "op_s_p50": statistics.median(raw["times"]),
                "op_s_tail": tail(raw["times"])[0],
                "ops_per_s": attempted / sum(raw["cycles"]),
                "setup_s": [s["setup_s"] for s in setups],
            },
            op_s_tail_percentile=tail_pct, op_s_tail_beyond=beyond, ops=attempted,
            fail_frac=failed / attempted, op_times_s=raw["times"], ref_s=ref_s,
        )
        wanted = spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in available]
    if missing:
        raise BenchError(f"{workload} did not measure {missing}")
    metrics = {m["name"]: {"value": available[m["name"]], "unit": m["unit"]} for m in wanted}
    provenance = {
        **raw["provenance"],
        "git_commit": git_commit(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    full = {**result, "failures": raw["failures"], "detail": detail, "provenance": provenance,
            "all_measured": available}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(full, indent=2))
    return full


def report(full: dict, workload: str) -> None:
    for name, m in full["metrics"].items():
        print(f"{workload:<14} {name:<40} {m['value']:<14.6g} {m['unit']}")
    d = full["detail"]
    print(f"{workload:<14} reference kernel median {d['ref_s_median']:.4g} s (nominal {REF_NOMINAL_S} s)")
    if "op_s_tail_percentile" in d:
        print(f"{workload:<14} op_s_tail is p{d['op_s_tail_percentile']:.1f} of {d['ops']} ops "
              f"({d['op_s_tail_beyond']} beyond); fail_frac {d['fail_frac']:.4g}; wall op_s_p50 "
              f"{d['wall']['op_s_p50']:.4g} s")
    else:
        print(f"{workload:<14} tracing overhead {d['tracing_overhead_s']:+.4g} s per op; share of traced op time:")
        for name, share in d["self_share"].items():
            print(f"{'':<16}{name:<40} {share:7.2%}")
    for line in full["failures"][:20]:
        print(f"{workload:<14} FAILED {line}")
    print(f"{workload:<14} provenance {json.dumps(full['provenance'], sort_keys=True)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload from BENCHMARK.json (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: both, untraced first")
    parser.add_argument("--short", action="store_true", help="1 s and one set-up per run, for the benchmark's own tests")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (ROOT / "src" / "choiqpt" / "__init__.py").is_file():
        print(f"error: {ROOT} has no BENCHMARK.json or no src/choiqpt to benchmark", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else names
    seconds = args.seconds if args.seconds is not None else 1 if args.short else spec["run_seconds"]
    traces = [bool(args.trace)] if args.trace is not None else [False, True]

    results = {}
    try:
        for trace in traces:
            for workload in workloads:
                full = run_workload(spec, workload, args.seed, seconds, trace, args.short)
                report(full, workload)
                results[f"{workload}/trace{int(trace)}"] = full
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (full,) = results.values()
        last = {k: full[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        last = {k: {f: r[f] for f in ("correct", "attempted", "failed", "metrics")} for k, r in results.items()}
    print(json.dumps(last))
    return 0


if __name__ == "__main__":
    sys.exit(main())
