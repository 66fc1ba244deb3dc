"""Tracer semantics: nesting, counters, configuration."""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro import telemetry
from repro.graph.generators import barabasi_albert
from repro.graph.sparse import to_sparse
from repro.oddball.surrogate import SurrogateEngine
from repro.telemetry import tracer as tracer_module


def _spans(events):
    return [e for e in events if e["kind"] == "span"]


class TestSpans:
    def test_nested_spans_parent_correctly(self, tmp_path):
        telemetry.configure(tmp_path, worker="main")
        with telemetry.span("outer") as outer:
            with telemetry.span("inner") as inner:
                pass
        telemetry.shutdown()
        events = telemetry.load_trace_dir(tmp_path)
        by_name = {e["name"]: e for e in _spans(events)}
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["parent"] == by_name["outer"]["span"]
        assert inner.span_id != outer.span_id
        # the inner span closed first, so it appears first in the file
        assert by_name["inner"]["dur_ns"] <= by_name["outer"]["dur_ns"]

    def test_span_ids_are_worker_qualified(self, tmp_path):
        tracer = telemetry.configure(tmp_path, worker="w7")
        with tracer.span("a") as span:
            assert span.span_id.startswith("w7:")

    def test_annotate_extends_attrs(self, tmp_path):
        telemetry.configure(tmp_path, worker="main")
        with telemetry.span("op", fixed=1) as span:
            span.annotate(extra="yes")
        telemetry.shutdown()
        (span_record,) = _spans(telemetry.load_trace_dir(tmp_path))
        assert span_record["attrs"] == {"fixed": 1, "extra": "yes"}


class TestStoreBuildSpans:
    def test_build_phases_nest_under_store_build(self, tmp_path):
        from repro.store import build_store

        telemetry.configure(tmp_path / "trace", worker="main")
        build_store("blogcatalog", cache_dir=tmp_path / "stores", scale=0.2)
        telemetry.shutdown()
        records = telemetry.load_trace_dir(tmp_path / "trace")
        spans = _spans(records)
        (build,) = [s for s in spans if s["name"] == "store.build"]
        phases = sorted(
            (s for s in spans if s["parent"] == build["span"]),
            key=lambda s: s["start_ns"],
        )
        assert [s["name"] for s in phases] == [
            "store.build.edge_keys",
            "store.build.write_csr",
            "store.build.features",
        ]
        assert sum(s["dur_ns"] for s in phases) <= build["dur_ns"]
        # the triangle count reports through its kernel counter
        assert any(
            r["kind"] == "counter" and r["name"] == "kernels.triangle_counts"
            for r in records
        )


class TestAttributePurity:
    def test_numpy_scalar_rejected(self, tmp_path):
        telemetry.configure(tmp_path, worker="main")
        with pytest.raises(TypeError, match="JSON primitive"):
            telemetry.span("op", value=np.float64(1.0))

    def test_container_rejected(self, tmp_path):
        tracer = telemetry.configure(tmp_path, worker="main")
        with pytest.raises(TypeError, match="JSON primitive"):
            tracer.event("op", value=[1, 2])

    def test_exact_primitives_accepted(self, tmp_path):
        tracer = telemetry.configure(tmp_path, worker="main")
        tracer.event("op", s="x", i=1, f=1.5, b=True, n=None)
        telemetry.shutdown()
        (event,) = telemetry.load_trace_dir(tmp_path)
        assert event["attrs"] == {"s": "x", "i": 1, "f": 1.5, "b": True,
                                  "n": None}


class TestCounters:
    def test_counters_flush_when_root_span_closes(self, tmp_path):
        telemetry.configure(tmp_path, worker="main")
        with telemetry.span("root"):
            telemetry.count("kernels.toggle_batch", 3, 900)
            telemetry.count("kernels.toggle_batch", 2, 100)
            assert telemetry.load_trace_dir(tmp_path) == []  # not yet durable
        counters = [
            e for e in telemetry.load_trace_dir(tmp_path)
            if e["kind"] == "counter"
        ]
        assert counters == [{
            "kind": "counter", "name": "kernels.toggle_batch",
            "trace": counters[0]["trace"], "worker": "main",
            "count": 5, "total_ns": 1000,
        }]

    def test_scatter_counts_walked_entries(self, tmp_path, use_kernels):
        """The compiled scatter reports the CSR entries it walked: for one
        target with every other node as partner, the cheaper of the
        target's two-hop volume (push) and the partners' rows (pull)."""
        graph = barabasi_albert(80, 3, rng=11)
        n, hub = graph.number_of_nodes, 0
        rows = np.zeros(n - 1, dtype=np.intp)
        cols = np.arange(1, n, dtype=np.intp)
        use_kernels("compiled")
        engine = SurrogateEngine.create(graph, [hub], (rows, cols))
        telemetry.configure(tmp_path, worker="main")
        engine.candidate_gradient()
        telemetry.shutdown()
        counters = {
            e["name"]: e["count"]
            for e in telemetry.load_trace_dir(tmp_path)
            if e["kind"] == "counter"
        }
        csr = to_sparse(graph)
        degree = np.diff(csr.indptr)
        push = int(degree[csr.indices[csr.indptr[hub]:csr.indptr[hub + 1]]].sum())
        pull = int(degree[1:].sum())
        assert push < pull
        assert counters["kernels.scatter_gradient.entries"] == push
        assert counters["kernels.scatter_gradient"] == n - 1

    @pytest.mark.parametrize("kernels", ["numpy", "compiled"])
    def test_scatter_counts_its_delta(self, tmp_path, kernels, use_kernels):
        """Each scatter counts its Δ-overlay entries: the flips a gradient
        folds into the cached CSR, here two pending probes and then none."""
        graph = barabasi_albert(80, 3, rng=11)
        rows, cols = np.triu_indices(graph.number_of_nodes, k=1)
        use_kernels(kernels)
        engine = SurrogateEngine.create(graph, [0], (rows, cols))
        engine.candidate_gradient()  # materialises the cached CSR
        engine.push_flip(0, 5)
        engine.push_flip(3, 9)
        telemetry.configure(tmp_path, worker="main")
        engine.candidate_gradient()
        engine.pop_flips(2)
        engine.candidate_gradient()
        telemetry.shutdown()
        counters = {
            e["name"]: e["count"]
            for e in telemetry.load_trace_dir(tmp_path)
            if e["kind"] == "counter"
        }
        assert counters["kernels.scatter_gradient.delta"] == 2
        assert counters["kernels.scatter_gradient"] == 2 * rows.size

    def test_adaptive_refresh_counts_its_pool(self, tmp_path):
        """An adaptive-gradient refresh counts its novel pool before the
        admission cap; the cap admits at most that many pairs."""
        from repro.attacks import GradMaxSearch

        graph = barabasi_albert(300, 8, rng=3)
        telemetry.configure(tmp_path, worker="main")
        with telemetry.span("root"):
            GradMaxSearch().attack(
                graph, [5], budget=4, candidates="adaptive_gradient"
            )
        telemetry.shutdown()
        counters = {
            e["name"]: e["count"]
            for e in telemetry.load_trace_dir(tmp_path)
            if e["kind"] == "counter"
        }
        assert counters["candidates.pool"] >= counters["candidates.admissions"] > 0
        # hub entrants pool more pairs than one refresh may admit
        assert counters["candidates.pool"] > counters["candidates.admissions"]

    def test_adaptive_refresh_counts_carried_pairs(self, tmp_path, monkeypatch):
        """Each refresh hands the engine its pair cache along the lineage:
        every pair of the refreshed-from set is carried
        (``candidates.carried``), and only the initial set and the
        admissions are read off the graph (``kernels.pair_values``)."""
        from repro.attacks import GradMaxSearch
        from repro.attacks.candidates import AdaptiveCandidateSet

        parents = []
        refresh = AdaptiveCandidateSet.refresh

        def recording(self, flips, engine=None):
            refreshed = refresh(self, flips, engine)
            if refreshed is not self:
                parents.append(len(self))
            return refreshed

        monkeypatch.setattr(AdaptiveCandidateSet, "refresh", recording)
        graph = barabasi_albert(300, 8, rng=3)
        telemetry.configure(tmp_path, worker="main")
        with telemetry.span("root"):
            GradMaxSearch().attack(
                graph, [5], budget=4, candidates="adaptive_gradient"
            )
        telemetry.shutdown()
        counters = {
            e["name"]: e["count"]
            for e in telemetry.load_trace_dir(tmp_path)
            if e["kind"] == "counter"
        }
        assert parents
        assert counters["candidates.carried"] == sum(parents)
        assert counters["kernels.pair_values"] == (
            graph.number_of_nodes - 1 + counters["candidates.admissions"]
        )

    def test_loss_only_objective_is_upgraded_once(self, tmp_path):
        """A gradient request at a graph version whose loss alone was
        evaluated runs only the backward half (``oddball.objective.upgraded``);
        a repeat, or a version evaluated with gradients, counts nothing."""
        graph = barabasi_albert(80, 3, rng=11)
        rows, cols = np.triu_indices(graph.number_of_nodes, k=1)
        engine = SurrogateEngine.create(graph, [0], (rows, cols))
        telemetry.configure(tmp_path, worker="main")
        loss = engine.current_loss()
        gradient = engine.candidate_gradient()
        engine.candidate_gradient()
        engine.apply_flip(0, 5)
        engine.candidate_gradient()
        engine.current_loss()
        telemetry.shutdown()
        upgraded = sum(
            e["count"] for e in telemetry.load_trace_dir(tmp_path)
            if e["kind"] == "counter" and e["name"] == "oddball.objective.upgraded"
        )
        assert upgraded == 1
        fresh = SurrogateEngine.create(graph, [0], (rows, cols))
        assert np.array_equal(gradient, fresh.candidate_gradient())
        assert loss == fresh.current_loss()

    def test_binarized_memo_counts_reused_iterates(self, tmp_path, monkeypatch):
        """A traced ``target_incident`` BinarizedAttack repeats flip sets at
        one graph state, so some but not all of its iterates are served
        from the engine's memo (``oddball.binarized_step.reused``).  Calls
        are counted as the benchmark harness does: one
        ``oddball.binarized_step`` span per call."""
        from repro.attacks import BinarizedAttack
        from repro.oddball.surrogate import SparseSurrogateEngine

        step = SparseSurrogateEngine.binarized_step

        def spanned(self, zdot_values):
            with telemetry.span("oddball.binarized_step"):
                return step(self, zdot_values)

        monkeypatch.setattr(SparseSurrogateEngine, "binarized_step", spanned)
        graph = barabasi_albert(300, 8, rng=3)
        telemetry.configure(tmp_path, worker="main")
        with telemetry.span("root"):
            BinarizedAttack(iterations=20).attack(
                graph, [5], budget=4, candidates="target_incident"
            )
        telemetry.shutdown()
        records = telemetry.load_trace_dir(tmp_path)
        calls = sum(
            r["kind"] == "span" and r["name"] == "oddball.binarized_step"
            for r in records
        )
        reused = sum(
            r["count"] for r in records
            if r["kind"] == "counter" and r["name"] == "oddball.binarized_step.reused"
        )
        assert 0 < reused < calls

    def test_close_flushes_pending_counters(self, tmp_path):
        telemetry.configure(tmp_path, worker="main")
        telemetry.count("loose", 1, 10)
        telemetry.shutdown()
        counters = [
            e for e in telemetry.load_trace_dir(tmp_path)
            if e["kind"] == "counter"
        ]
        assert [c["name"] for c in counters] == ["loose"]


class TestConfiguration:
    def test_off_by_default(self):
        assert telemetry.active_tracer() is None
        # null-safe helpers are no-ops rather than errors
        with telemetry.span("ignored") as span:
            assert span is None
        telemetry.event("ignored")
        telemetry.count("ignored")

    def test_env_auto_configures(self, tmp_path, monkeypatch):
        monkeypatch.setenv(telemetry.TELEMETRY_ENV, str(tmp_path))
        tracer_module._RESOLVED = False
        tracer = telemetry.active_tracer()
        assert tracer is not None
        assert tracer.worker == f"main-{os.getpid()}"
        assert tracer.directory == tmp_path

    def test_explicit_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(telemetry.TELEMETRY_ENV, str(tmp_path / "env"))
        explicit = tmp_path / "explicit"
        tracer = telemetry.configure(explicit, worker="main")
        assert tracer.directory == explicit
        assert telemetry.active_tracer() is tracer

    def test_reconfigure_closes_predecessor(self, tmp_path):
        first = telemetry.configure(tmp_path / "a", worker="main")
        first.count("pending", 1)
        telemetry.configure(tmp_path / "b", worker="main")
        # predecessor flushed its counters on the way out
        counters = [
            e for e in telemetry.load_trace_dir(tmp_path / "a")
            if e["kind"] == "counter"
        ]
        assert [c["name"] for c in counters] == ["pending"]

    def test_shutdown_disables(self, tmp_path):
        telemetry.configure(tmp_path, worker="main")
        telemetry.shutdown()
        assert telemetry.active_tracer() is None


class TestWorkerPlumbing:
    def test_worker_spec_off_is_none(self):
        assert telemetry.worker_spec("worker-0") is None

    def test_worker_spec_roundtrip(self, tmp_path):
        telemetry.configure(tmp_path, worker="main")
        with telemetry.span("drain"):
            spec = telemetry.worker_spec("worker-0")
        assert spec["worker"] == "worker-0"
        assert spec["dir"] == str(tmp_path)
        # the child's root spans hang under the parent's open span
        parent_tracer = telemetry.active_tracer()
        assert spec["parent"].startswith("main:")
        assert spec["trace"] == parent_tracer.trace
        child = telemetry.worker_configure(spec)
        assert child.worker == "worker-0"
        assert child.trace == parent_tracer.trace
        assert child.current_span_id() == spec["parent"]

    def test_worker_configure_none_disables(self, tmp_path):
        telemetry.configure(tmp_path, worker="main")
        assert telemetry.worker_configure(None) is None
        assert telemetry.active_tracer() is None
