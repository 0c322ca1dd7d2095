"""The benchmark worker, run in-process: one op of each workload.

``perfbench/worker.py`` drives the package through its public API
(``dataset.counts``, ``QptResult`` built positionally, ``ReconstructionOptions``
fields, ...).  Loading it here makes a break of that API fail this suite
instead of showing up only as failed ops in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"


@pytest.fixture
def worker(monkeypatch, tmp_path):
    spec = importlib.util.spec_from_file_location("perfbench_worker", WORKER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses resolve annotations here
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT_DIR", tmp_path)
    return module


def test_worker_runs_one_op_of_each_workload(worker):
    seeds, _ = worker.op_seeds(0)
    bands = worker.Bands()
    assert worker.WORKLOADS
    for name, cls in worker.WORKLOADS.items():
        workload = cls({})
        try:
            out = workload.run(seeds[0])
            assert workload.check(out, seeds[0], bands) == [], name
            assert workload.same(out, out), name
            traced = workload.run_traced(seeds[0], worker.Tracer())
            assert workload.same(out, traced), name
            assert workload.counts(traced)["simulator.shots"] > 0, name
        finally:
            workload.close()
