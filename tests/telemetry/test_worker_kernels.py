"""Executor workers run the kernel backend the parent chose, fork or spawn.

The process default is the one kernels switch, and the EngineSpec carries
it to the workers: a spawned child never sees the parent's
``set_default_kernels`` override, so the worker entry applies the spec's
value before it builds its engine.  The backend a worker ran is read off
its trace: only the compiled scatter counts the CSR entries it walked
(``kernels.scatter_gradient.entries``).
"""

from __future__ import annotations

import multiprocessing

import pytest

import repro.kernels as kernels_mod
from repro import telemetry
from repro.attacks import grid_jobs
from repro.attacks.scheduler import SchedulingCampaignExecutor
from repro.graph.generators import erdos_renyi

COMPILED_ONLY = "kernels.scatter_gradient.entries"


@pytest.fixture(autouse=True)
def compiled_backend():
    if not kernels_mod.compiled_available():
        pytest.skip("compiled kernel backend unavailable")


def _worker_counters(tmp_path, start_method: str, **executor_options) -> "set[str]":
    """Counter names the workers of a 2-worker GradMaxSearch run traced."""
    graph = erdos_renyi(80, 0.1, rng=0)
    jobs = grid_jobs("gradmaxsearch", [[0], [1], [2], [3]], budgets=[2],
                     candidates="target_incident")
    executor = SchedulingCampaignExecutor(
        graph, workers=2, telemetry=tmp_path / "trace", **executor_options
    )
    executor._mp = multiprocessing.get_context(start_method)
    executor.run(jobs)
    telemetry.shutdown()
    counters = {
        e["name"] for e in telemetry.load_trace_dir(tmp_path / "trace")
        if e["kind"] == "counter" and e["worker"].startswith("worker-")
    }
    assert "kernels.scatter_gradient" in counters  # the workers did scatter
    return counters


def test_spawned_workers_apply_the_parent_default(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_KERNELS", raising=False)
    monkeypatch.setattr(kernels_mod, "_DEFAULT", None)
    kernels_mod.set_default_kernels("numpy")
    assert COMPILED_ONLY not in _worker_counters(tmp_path, "spawn")


def test_an_explicit_executor_value_beats_the_parent_default(tmp_path, use_kernels):
    use_kernels("compiled")
    assert COMPILED_ONLY not in _worker_counters(tmp_path, "fork", kernels="numpy")


def test_compiled_workers_count_their_entries(tmp_path, use_kernels):
    """The control: the probe does see compiled workers."""
    use_kernels("compiled")
    assert COMPILED_ONLY in _worker_counters(tmp_path, "spawn")
