"""Per-layer tracing from outside the program, and the per-layer metrics.

:func:`instrument` wraps the public entry points of every layer in
``repro.telemetry`` spans (and a few counters) for the duration of a
``with`` block, then restores the originals.  The wrappers are installed
on the classes and modules themselves, before any executor forks, so
forked workers inherit them; each worker writes its own trace file
through the ``telemetry`` worker spec the executors already pass along.

Only ``Tensor.backward`` is wrapped on the autograd layer: one span per
elementwise tensor op would cost more than the ops themselves.

:func:`layer_metrics` turns the merged trace records of a traced run into
the ``per_layer`` metrics named in ``BENCHMARK.json``.  ``.calls`` counts
calls, ``.self_s`` is span time minus child spans, ``.s`` and ``_s`` are
total time.  Which end-to-end metric each layer should move, and where it
is bypassed (its metrics read 0 there):

===========  =====================================  =====================
layer        should move                            bypassed on
===========  =====================================  =====================
store        setup_s on store-88k                   fig4-ci
graph        wall_s, cpu_s on sweep-10k             fig4-ci
kernels      wall_s on store-88k                    fig4-ci
oddball      wall_s on store-88k and fig4-ci        —
autograd     wall_s on fig4-ci                      store-88k, sweep-10k
attacks      wall_s, tau_mean on sweep-10k          —
campaign     wall_s, cpu_s on sweep-10k             —
scheduler    cpu_s, wall_s on sweep-10k             fig4-ci (serial)
experiments  setup_s, wall_s on fig4-ci             store-88k, sweep-10k
telemetry    — (tracing overhead, unnamed time)     —
===========  =====================================  =====================
"""

from __future__ import annotations

import functools
import statistics
import sys
from collections import defaultdict
from contextlib import contextmanager

from repro import telemetry
from repro.attacks import ATTACK_REGISTRY
from repro.attacks.campaign import CheckpointStore
from repro.attacks.candidates import (
    AdaptiveCandidateSet,
    BlockCandidateSet,
    CandidateSet,
)
from repro.attacks.scheduler import WorkQueue
from repro.autograd.tensor import Tensor
from repro.graph.incremental import IncrementalEgonetFeatures
from repro.oddball.detector import OddBall
from repro.oddball.surrogate import (
    DenseSurrogateEngine,
    SparseSurrogateEngine,
    SurrogateEngine,
)
from repro.store import GraphStore

from metrics import self_times, tail_percentile, unattributed_share

#: Engine methods traced as ``oddball.<name>`` spans.
ENGINE_METHODS = (
    "binarized_step", "relaxed_step", "candidate_gradient", "pair_gradient",
    "current_loss", "push_flip", "pop_flips", "retarget", "score_prefixes",
)
#: Kernels whose calls and time the per-layer metrics report.
KERNELS = ("scatter_gradient", "toggle_batch", "pair_values", "triangle_counts")
#: Attacks the workloads run (``attacks.<name>.self_s``).
ATTACKS = ("binarizedattack", "gradmaxsearch", "continuousa")

_S = 1e9


def _spanned(name):
    def make(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with telemetry.span(name):
                return func(*args, **kwargs)
        return wrapper
    return make


def _attack_spanned(func):
    @functools.wraps(func)
    def wrapper(self, *args, **kwargs):
        with telemetry.span(f"attacks.{self.name}"):
            return func(self, *args, **kwargs)
    return wrapper


def _candidates_spanned(name):
    def make(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with telemetry.span(name):
                result = func(*args, **kwargs)
            telemetry.count("bench.candidates.size", len(result))
            return result
        return wrapper
    return make


def _kernel_counted(kernel, span_name=None):
    """Count calls (and, for the scatter, input bytes) at a kernel dispatch."""
    def make(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            telemetry.count(f"bench.kernels.{kernel}.calls", 1)
            if kernel == "scatter_gradient":
                _self, csr, *arrays = args
                nbytes = csr.indptr.nbytes + csr.indices.nbytes + csr.data.nbytes
                nbytes += sum(a.nbytes for a in arrays if hasattr(a, "nbytes"))
                telemetry.count("bench.kernels.scatter_gradient.bytes", int(nbytes))
            if span_name is None:
                return func(*args, **kwargs)
            with telemetry.span(span_name):
                return func(*args, **kwargs)
        return wrapper
    return make


class _Patches:
    """Install wrappers on classes/modules and restore them afterwards."""

    def __init__(self):
        self._undo: "list[tuple[object, str, object]]" = []
        self._seen: "set[tuple[int, str]]" = set()

    def method(self, cls, name, make) -> None:
        owner = next(k for k in cls.__mro__ if name in k.__dict__)
        if (id(owner), name) in self._seen:
            return
        self._seen.add((id(owner), name))
        raw = owner.__dict__[name]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(make(raw.__func__))
        else:
            wrapped = make(raw)
        setattr(owner, name, wrapped)
        self._undo.append((owner, name, raw))

    def function(self, module_name: str, name: str, make) -> None:
        """Wrap a function in every ``repro`` module that imported it by name."""
        original = getattr(sys.modules[module_name], name)
        wrapped = make(original)
        for module in list(sys.modules.values()):
            module_id = getattr(module, "__name__", "") or ""
            if module_id.split(".")[0] == "repro" and getattr(module, name, None) is original:
                setattr(module, name, wrapped)
                self._undo.append((module, name, original))

    def restore(self) -> None:
        for owner, name, raw in reversed(self._undo):
            setattr(owner, name, raw)
        self._undo.clear()
        self._seen.clear()


@contextmanager
def instrument():
    """Wrap every layer's entry points in spans for the ``with`` block."""
    patches = _Patches()
    try:
        # store
        patches.function("repro.store.builder", "build_store", _spanned("store.build_store"))
        patches.method(GraphStore, "open", _spanned("store.open"))
        # graph (flip_batch is also the toggle_batch kernel's dispatch)
        patches.method(IncrementalEgonetFeatures, "flip", _spanned("graph.flip"))
        patches.method(IncrementalEgonetFeatures, "flip_batch",
                       _kernel_counted("toggle_batch", "graph.flip"))
        patches.method(IncrementalEgonetFeatures, "rollback", _spanned("graph.rollback"))
        patches.function("repro.graph.sparse", "egonet_features_sparse",
                         _spanned("graph.clean_features"))
        # kernels: the sparse engine's two kernel dispatch points
        patches.method(SparseSurrogateEngine, "_scatter", _kernel_counted("scatter_gradient"))
        patches.method(SparseSurrogateEngine, "_pair_values", _kernel_counted("pair_values"))
        # oddball
        for cls in (DenseSurrogateEngine, SparseSurrogateEngine):
            for name in ENGINE_METHODS:
                patches.method(cls, name, _spanned(f"oddball.{name}"))
        patches.method(SurrogateEngine, "create", _spanned("oddball.engine_build"))
        patches.method(SurrogateEngine, "from_spec", _spanned("oddball.engine_build"))
        patches.method(OddBall, "analyze", _spanned("oddball.analyze"))
        # autograd
        patches.method(Tensor, "backward", _spanned("autograd.backward"))
        # attacks, candidates, constraints
        for cls in ATTACK_REGISTRY.values():
            patches.method(cls, "attack", _attack_spanned)
        patches.method(CandidateSet, "build", _candidates_spanned("candidates.build"))
        for cls in (CandidateSet, AdaptiveCandidateSet, BlockCandidateSet):
            patches.method(cls, "refresh", _candidates_spanned("candidates.refresh"))
        patches.function("repro.attacks.constraints", "filter_valid_flips_engine",
                         _spanned("constraints.filter"))
        # campaign, scheduler
        patches.method(CheckpointStore, "append", _spanned("campaign.checkpoint_append"))
        patches.method(WorkQueue, "claim", _spanned("scheduler.claim"))
        patches.method(WorkQueue, "complete", _spanned("scheduler.complete"))
        # experiments
        patches.function("repro.experiments.common", "load_experiment_graph",
                         _spanned("experiments.load_graph"))
        patches.function("repro.experiments.common", "tau_for_budgets",
                         _spanned("experiments.tau_eval"))
        yield
    finally:
        patches.restore()


def layer_metrics(
    records: "list[dict]",
    *,
    overhead_pct: float,
    store_bytes: int,
    worker_stats: "list[dict]",
) -> "dict[str, tuple[float, str]]":
    """The ``per_layer`` metrics, as ``name -> (value, unit)``, of one traced run.

    ``records`` are the merged trace records of the traced set-up and the
    traced pass; ``worker_stats`` the executor's per-worker ``.stats`` of
    the traced pass (empty for serial workloads).
    """
    spans = [r for r in records if r.get("kind") == "span"]
    selfs = self_times(spans)
    calls: "dict[str, int]" = defaultdict(int)
    total: "dict[str, int]" = defaultdict(int)
    own: "dict[str, int]" = defaultdict(int)
    for record in spans:
        name = record["name"]
        calls[name] += 1
        total[name] += int(record["dur_ns"])
        own[name] += selfs[record["span"]]
    counters: "dict[str, list[int]]" = defaultdict(lambda: [0, 0])
    events: "dict[str, int]" = defaultdict(int)
    for record in records:
        if record.get("kind") == "counter":
            counters[record["name"]][0] += int(record["count"])
            counters[record["name"]][1] += int(record["total_ns"])
        elif record.get("kind") == "event":
            events[record["name"]] += 1

    out: "dict[str, tuple[float, str]]" = {}

    def seconds(name, value_ns):
        out[name] = (value_ns / _S, "s")

    def calls_and_self(name):
        out[f"{name}.calls"] = (calls[name], "count")
        seconds(f"{name}.self_s", own[name])

    # store
    seconds("store.build_s", total["store.build_store"])
    seconds("store.open_s", total["store.open"])
    out["store.bytes"] = (store_bytes, "bytes")
    # graph
    seconds("graph.clean_features_s", total["graph.clean_features"])
    calls_and_self("graph.flip")
    calls_and_self("graph.rollback")
    # kernels: calls from the dispatch wrappers, time from the program's counters
    for kernel in KERNELS:
        if kernel == "triangle_counts":  # the program counts one per call
            kernel_calls = counters[f"kernels.{kernel}"][0]
        else:
            kernel_calls = counters[f"bench.kernels.{kernel}.calls"][0]
        out[f"kernels.{kernel}.calls"] = (kernel_calls, "count")
        seconds(f"kernels.{kernel}.s", counters[f"kernels.{kernel}"][1])
    out["kernels.scatter_gradient.pairs"] = (counters["kernels.scatter_gradient"][0], "count")
    out["kernels.scatter_gradient.bytes_computed"] = (
        counters["bench.kernels.scatter_gradient.bytes"][0], "bytes"
    )
    # oddball
    seconds("oddball.engine_build_s", total["oddball.engine_build"])
    for name in ENGINE_METHODS:
        calls_and_self(f"oddball.{name}")
    seconds("oddball.analyze_s", total["oddball.analyze"])
    # autograd
    calls_and_self("autograd.backward")
    # attacks
    for attack in ATTACKS:
        seconds(f"attacks.{attack}.self_s", own[f"attacks.{attack}"])
    calls_and_self("candidates.build")
    calls_and_self("candidates.refresh")
    out["candidates.admissions"] = (counters["candidates.admissions"][0], "count")
    out["candidates.evictions"] = (counters["candidates.evictions"][0], "count")
    built = calls["candidates.build"] + calls["candidates.refresh"]
    out["candidates.size_mean"] = (
        counters["bench.candidates.size"][0] / built if built else 0.0, "count"
    )
    calls_and_self("constraints.filter")
    # campaign
    jobs = [int(r["dur_ns"]) / _S for r in spans if r["name"] == "job"]
    out["campaign.jobs"] = (len(jobs), "count")
    out["campaign.job_p50_s"] = (statistics.median(jobs) if jobs else 0.0, "s")
    tail = tail_percentile(jobs)
    out["campaign.job_tail_s"] = (tail[1] if tail else 0.0, "s")
    out["campaign.job_tail_pct"] = (tail[0] if tail else 0.0, "%")
    out["campaign.checkpoint_append.calls"] = (calls["campaign.checkpoint_append"], "count")
    seconds("campaign.checkpoint_append.s", total["campaign.checkpoint_append"])
    seconds("campaign.merge_s", total["executor.merge"])
    # scheduler
    for step in ("claim", "complete"):
        out[f"scheduler.{step}.calls"] = (calls[f"scheduler.{step}"], "count")
        seconds(f"scheduler.{step}.s", total[f"scheduler.{step}"])
    out["scheduler.worker_startup_s"] = (_worker_startup_s(spans), "s")
    seconds("scheduler.worker_idle_s", sum(
        selfs[r["span"]] for r in spans if r["name"] == "worker.run"
    ))
    out["scheduler.requeues"] = (events["scheduler.requeue"], "count")
    for stat in ("steals", "lost_leases", "duplicate_completions"):
        out[f"scheduler.{stat}"] = (
            sum(int(s.get(stat, 0)) for s in worker_stats), "count"
        )
    useful = sum(
        int(s.get("completions", 0)) - int(s.get("duplicate_completions", 0))
        for s in worker_stats
    )
    claims = calls["scheduler.claim"]
    out["scheduler.useful_ratio"] = (useful / claims if claims else 0.0, "ratio")
    # experiments
    seconds("experiments.load_graph_s", total["experiments.load_graph"])
    seconds("experiments.tau_eval_s", total["experiments.tau_eval"])
    # telemetry
    out["telemetry.overhead_pct"] = (overhead_pct, "%")
    out["trace.unattributed_share"] = (unattributed_share(spans), "ratio")
    return out


def _worker_startup_s(spans: "list[dict]") -> float:
    """Mean time from the executor's drain start to each worker's first claim."""
    drains = [int(r["start_ns"]) for r in spans if r["name"] == "executor.drain"]
    if not drains:
        return 0.0
    first_claim: "dict[str, int]" = {}
    for record in spans:
        if record["name"] == "scheduler.claim":
            start = int(record["start_ns"])
            worker = record["worker"]
            first_claim[worker] = min(first_claim.get(worker, start), start)
    if not first_claim:
        return 0.0
    drain = min(drains)
    return sum(start - drain for start in first_claim.values()) / len(first_claim) / _S
