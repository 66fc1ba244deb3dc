"""Executor semantics: draining a grid on worker processes is a wall-clock
lever, never a semantics change.  A parallel run must be bit-identical to
the serial :class:`AttackCampaign` on the same grid, checkpoints must
interoperate between serial and parallel runs, a run killed mid-drain
must resume — with a *different* worker count — to the same result, and a
failed run must keep every job it completed."""

import json
import pickle
import time

import numpy as np
import pytest
from scipy import sparse

from repro.attacks import (
    AttackCampaign,
    OddBallHeuristic,
    RandomAttack,
    SchedulingCampaignExecutor,
    WorkQueue,
    build_campaign,
    grid_jobs,
)
from repro.graph.generators import barabasi_albert
from repro.oddball.detector import OddBall
from repro.oddball.surrogate import (
    DenseSurrogateEngine,
    EngineSpec,
    SparseSurrogateEngine,
    SurrogateEngine,
)

ENGINES = {"dense": DenseSurrogateEngine, "sparse": SparseSurrogateEngine}

# graph_and_targets / sweep_jobs / assert_outcomes_identical come from
# tests/conftest.py (shared campaign fixtures)


class TestParallelSerialParity:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_identical_result_1_vs_4_workers(self, graph_and_targets, backend, sweep_jobs, assert_outcomes_identical):
        """The serial run on the sparse engine, or on the injected dense
        oracle, matches the 4-worker run bit for bit."""
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets)
        engine = DenseSurrogateEngine(graph, targets) if backend == "dense" else None
        serial = AttackCampaign(graph, engine=engine).run(jobs)
        parallel = build_campaign(graph, workers=4).run(jobs)
        assert_outcomes_identical(serial, parallel)
        assert serial.n == parallel.n

    def test_backend_keyword_accepts_only_auto_and_sparse(self, graph_and_targets):
        graph, _ = graph_and_targets
        for backend in ("auto", "sparse"):
            assert isinstance(build_campaign(graph, backend=backend), AttackCampaign)
            SchedulingCampaignExecutor(graph, backend=backend)
        for backend in ("dense", "gpu"):
            with pytest.raises(ValueError, match="'auto', 'sparse'"):
                build_campaign(graph, backend=backend)
            with pytest.raises(ValueError, match="'auto', 'sparse'"):
                build_campaign(graph, backend=backend, workers=2)
            with pytest.raises(ValueError, match="'auto', 'sparse'"):
                SchedulingCampaignExecutor(graph, backend=backend)

    def test_sparse_input_parity(self, graph_and_targets, sweep_jobs, assert_outcomes_identical):
        graph, targets = graph_and_targets
        csr = sparse.csr_matrix(graph.adjacency)
        jobs = sweep_jobs(targets, count=5)
        serial = AttackCampaign(csr).run(jobs)
        parallel = SchedulingCampaignExecutor(csr, workers=3).run(jobs)
        assert all(o.metadata["backend"] == "sparse" for o in parallel)
        assert_outcomes_identical(serial, parallel)

    def test_mixed_attack_grid_with_baselines(self, graph_and_targets, sweep_jobs, assert_outcomes_identical):
        """Gradient attacks AND injected-engine baselines shard identically."""
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets, count=3)
        jobs += grid_jobs(
            "binarizedattack", [targets[:3]], budgets=[2, 3],
            candidates="target_incident", iterations=30,
        )
        jobs += grid_jobs("random", [[t] for t in targets[:3]], budgets=[3],
                          candidates="target_incident", rng=5)
        jobs += grid_jobs("oddball-heuristic", [[t] for t in targets[:3]],
                          budgets=[3], rng=3)
        serial = AttackCampaign(graph).run(jobs)
        parallel = SchedulingCampaignExecutor(graph, workers=3).run(jobs)
        assert_outcomes_identical(serial, parallel)

    def test_more_workers_than_jobs(self, graph_and_targets, sweep_jobs):
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets, count=2)
        result = SchedulingCampaignExecutor(graph, workers=6).run(jobs)
        assert len(result) == 2

    def test_worker_observability(self, graph_and_targets, sweep_jobs):
        """The run's per-worker stats land on the executor and, unchanged,
        on the returned result."""
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets, count=6)
        executor = SchedulingCampaignExecutor(graph, workers=3)
        result = executor.run(jobs)
        assert len(executor.last_worker_stats) == 3
        assert sum(s["jobs"] for s in executor.last_worker_stats) == 6
        for stats in executor.last_worker_stats:
            assert stats["max_rss_kb"] > 0
        assert result.worker_stats == executor.last_worker_stats
        assert result.dead_workers == ()
        assert result.requeues == 0

    def test_build_campaign_switch(self, graph_and_targets):
        graph, _ = graph_and_targets
        assert isinstance(build_campaign(graph, workers=1), AttackCampaign)
        assert isinstance(
            build_campaign(graph, workers=2), SchedulingCampaignExecutor
        )

    def test_rejects_bad_worker_count(self, graph_and_targets):
        graph, _ = graph_and_targets
        with pytest.raises(ValueError, match="workers"):
            SchedulingCampaignExecutor(graph, workers=0)


class TestCheckpointInterop:
    def test_kill_and_resume_with_different_worker_count(
        self, graph_and_targets, tmp_path, sweep_jobs, assert_outcomes_identical
    ):
        """A parallel run killed mid-drain resumes under a new worker count.

        The kill is simulated faithfully: two worker shards are written in
        the shard checkpoint format (as a killed 2-worker run would leave
        them — completed jobs in per-worker shard files, never merged),
        then a fresh 3-worker executor must fold the leftovers in, run only
        the remainder, and match a fresh serial run bit-for-bit.
        """
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets)
        fresh = AttackCampaign(graph).run(jobs)

        checkpoint = tmp_path / "campaign.jsonl"
        AttackCampaign(graph, checkpoint_path=f"{checkpoint}.shard0").run(jobs[0:3])
        AttackCampaign(graph, checkpoint_path=f"{checkpoint}.shard1").run(jobs[3:5])
        assert (tmp_path / "campaign.jsonl.shard0").exists()
        assert not checkpoint.exists()  # parent never merged: a true kill

        resumed = SchedulingCampaignExecutor(
            graph, workers=3, checkpoint_path=checkpoint
        ).run(jobs)
        assert resumed.resumed_jobs == 5
        assert not list(tmp_path.glob("*.shard*"))  # shards merged + removed
        assert_outcomes_identical(fresh, resumed)

    def test_glob_metacharacters_in_checkpoint_name(
        self, graph_and_targets, tmp_path, sweep_jobs
    ):
        """Shard discovery is a literal prefix match, not a glob — a name
        like ``fig4[ci].json`` must not turn into a character class."""
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets, count=4)
        checkpoint = tmp_path / "fig4[ci].json"
        first = SchedulingCampaignExecutor(
            graph, workers=2, checkpoint_path=checkpoint
        ).run(jobs)
        assert len(first) == 4
        assert not list(tmp_path.glob("*.shard*"))
        resumed = SchedulingCampaignExecutor(
            graph, workers=3, checkpoint_path=checkpoint
        ).run(jobs)
        assert resumed.resumed_jobs == 4

    def test_parallel_resumes_serial_checkpoint(self, graph_and_targets, tmp_path, sweep_jobs, assert_outcomes_identical):
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets)
        checkpoint = tmp_path / "campaign.jsonl"
        AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs[:4])
        resumed = SchedulingCampaignExecutor(
            graph, workers=4, checkpoint_path=checkpoint
        ).run(jobs)
        assert resumed.resumed_jobs == 4
        assert_outcomes_identical(AttackCampaign(graph).run(jobs), resumed)

    def test_serial_resumes_parallel_checkpoint(self, graph_and_targets, tmp_path, sweep_jobs):
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets)
        checkpoint = tmp_path / "campaign.jsonl"
        SchedulingCampaignExecutor(
            graph, workers=3, checkpoint_path=checkpoint
        ).run(jobs)
        resumed = AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        assert resumed.resumed_jobs == len(jobs)

    def test_fully_checkpointed_run_spawns_no_workers(
        self, graph_and_targets, tmp_path, sweep_jobs
    ):
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets, count=3)
        checkpoint = tmp_path / "campaign.jsonl"
        SchedulingCampaignExecutor(
            graph, workers=2, checkpoint_path=checkpoint
        ).run(jobs)
        executor = SchedulingCampaignExecutor(
            graph, workers=2, checkpoint_path=checkpoint
        )
        replay = executor.run(jobs)
        assert replay.resumed_jobs == 3
        assert executor.last_worker_stats == []

    def test_checkpoint_rejects_different_graph(self, graph_and_targets, tmp_path, sweep_jobs):
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets, count=2)
        checkpoint = tmp_path / "campaign.jsonl"
        SchedulingCampaignExecutor(
            graph, workers=2, checkpoint_path=checkpoint
        ).run(jobs)
        other = barabasi_albert(90, 3, rng=99)
        with pytest.raises(ValueError, match="different"):
            SchedulingCampaignExecutor(
                other, workers=2, checkpoint_path=checkpoint
            ).run(sweep_jobs(OddBall().analyze(other).top_k(2).tolist(), count=2))


class TestEngineSpec:
    @pytest.mark.parametrize("form", ["graph", "dense", "sparse"])
    def test_round_trip_preserves_state(self, graph_and_targets, form):
        """A pickled spec of a Graph, a dense array or a CSR rebuilds the
        engine ``create`` builds on the same input."""
        graph, targets = graph_and_targets
        source = {
            "graph": graph,
            "dense": graph.adjacency,
            "sparse": sparse.csr_matrix(graph.adjacency),
        }[form]
        spec = pickle.loads(pickle.dumps(EngineSpec.from_graph(source)))
        clone = SurrogateEngine.from_spec(spec, targets[:3])
        reference = SurrogateEngine.create(source, targets[:3])
        assert isinstance(clone, SparseSurrogateEngine)
        assert clone.current_loss() == reference.current_loss()
        for a, b in zip(reference.node_features(), clone.node_features()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("defect, message", [
        ("asymmetric", "symmetric"), ("weighted", "binary"),
    ])
    def test_capture_rejects_a_malformed_adjacency(
        self, graph_and_targets, defect, message
    ):
        """A bad graph fails in the parent, at capture, not in every worker."""
        graph, _ = graph_and_targets
        adjacency = graph.adjacency.copy()
        u, v = map(int, np.argwhere(np.triu(adjacency, k=1))[0])
        if defect == "asymmetric":
            adjacency[v, u] = 0.0
        else:
            adjacency[u, v] = adjacency[v, u] = 2.0
        for form in (adjacency, sparse.csr_matrix(adjacency)):
            with pytest.raises(ValueError, match=message):
                EngineSpec.from_graph(form)

    def test_spec_takes_no_backend(self, graph_and_targets):
        graph, targets = graph_and_targets
        with pytest.raises(TypeError, match="backend"):
            EngineSpec.from_graph(graph.adjacency, backend="dense")
        spec = EngineSpec.from_graph(graph.adjacency)
        assert "backend" not in spec._fields
        assert spec.to_graph().shape == graph.adjacency.shape
        assert isinstance(SurrogateEngine.from_spec(spec, targets[:1]), SparseSurrogateEngine)

    def test_spec_is_picklable(self, graph_and_targets):
        graph, targets = graph_and_targets
        spec = EngineSpec.from_graph(sparse.csr_matrix(graph.adjacency))
        clone = pickle.loads(pickle.dumps(spec))
        engine = SurrogateEngine.from_spec(clone, targets[:2])
        reference = SurrogateEngine.from_spec(spec, targets[:2])
        assert engine.current_loss() == reference.current_loss()


class TestBaselineEngineInjection:
    """ROADMAP follow-up: baselines accept an injected engine too."""

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_random_attack_parity(self, graph_and_targets, backend):
        graph, targets = graph_and_targets
        adjacency = (
            sparse.csr_matrix(graph.adjacency)
            if backend == "sparse"
            else graph.adjacency
        )
        engine = ENGINES[backend](adjacency, targets[:2])
        standalone = RandomAttack(rng=7).attack(
            adjacency, targets[:2], 4, candidates="target_incident"
        )
        injected = RandomAttack(rng=7).attack(
            adjacency, targets[:2], 4, candidates="target_incident",
            engine=engine,
        )
        assert standalone.flips_by_budget == injected.flips_by_budget
        assert standalone.surrogate_by_budget == injected.surrogate_by_budget
        if backend == "sparse":
            assert engine.checkpoint() == 0  # engine left exactly as it entered

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_heuristic_parity(self, graph_and_targets, backend):
        graph, targets = graph_and_targets
        adjacency = (
            sparse.csr_matrix(graph.adjacency)
            if backend == "sparse"
            else graph.adjacency
        )
        engine = ENGINES[backend](adjacency, targets[:2])
        before = engine.current_loss()
        standalone = OddBallHeuristic(rng=3).attack(adjacency, targets[:2], 4)
        injected = OddBallHeuristic(rng=3).attack(
            adjacency, targets[:2], 4, engine=engine
        )
        assert standalone.flips_by_budget == injected.flips_by_budget
        assert standalone.surrogate_by_budget == injected.surrogate_by_budget
        assert engine.current_loss() == before  # every flip unwound

    def test_campaign_baseline_jobs_match_standalone(self, graph_and_targets):
        graph, targets = graph_and_targets
        jobs = grid_jobs("random", [[t] for t in targets[:3]], budgets=[4],
                         candidates="target_incident", rng=5)
        jobs += grid_jobs("oddball-heuristic", [[t] for t in targets[:3]],
                          budgets=[4], rng=3)
        campaign = AttackCampaign(graph).run(jobs)
        for outcome in campaign:
            cls = (
                RandomAttack
                if outcome.job.attack == "random"
                else OddBallHeuristic
            )
            solo = cls(**dict(outcome.job.params)).attack(
                graph, list(outcome.job.targets), outcome.job.budget,
                candidates=outcome.job.candidates,
            )
            assert {
                b: solo.flips(b) for b in solo.budgets
            } == outcome.flips_by_budget, outcome.job.attack
            assert solo.surrogate_by_budget == outcome.surrogate_by_budget


class TestWorkerFailure:
    def test_dead_workers_raise_and_rerun_resumes_completed_jobs(
        self, graph_and_targets, tmp_path, monkeypatch, sweep_jobs, assert_outcomes_identical
    ):
        """Workers that all die fail the run loudly, naming the missing
        jobs, but the jobs they completed stay in the merged checkpoint
        and a rerun resumes them."""
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets, count=6)
        checkpoint = tmp_path / "campaign.jsonl"

        import repro.attacks.scheduler as scheduler_module

        real_main = scheduler_module._scheduler_worker_main

        def one_job_main(spec, queue_dir, shard_path, compute_ranks,
                         lease_ttl, worker_index, telemetry=None):
            # Fork isolation: this rebinding exists only in the child.
            real_complete = WorkQueue.complete

            def complete_then_die(self, job_id):
                real_complete(self, job_id)
                raise SystemExit(1)

            WorkQueue.complete = complete_then_die
            real_main(spec, queue_dir, shard_path, compute_ranks,
                      lease_ttl, worker_index, telemetry)

        monkeypatch.setattr(
            scheduler_module, "_scheduler_worker_main", one_job_main
        )
        with pytest.raises(RuntimeError, match="4 jobs unaccounted.*first missing"):
            SchedulingCampaignExecutor(
                graph, workers=2, checkpoint_path=checkpoint
            ).run(jobs)
        # each worker's one completed job was merged into the checkpoint
        completed = [
            json.loads(line)
            for line in checkpoint.read_text().splitlines()[1:]
        ]
        assert len(completed) == 2
        # an undamaged rerun resumes them and matches a fresh serial run
        monkeypatch.undo()
        resumed = SchedulingCampaignExecutor(
            graph, workers=2, checkpoint_path=checkpoint
        ).run(jobs)
        assert resumed.resumed_jobs == 2
        assert_outcomes_identical(AttackCampaign(graph).run(jobs), resumed)

    def test_raising_job_releases_its_lease_instead_of_waiting_out_the_ttl(
        self, graph_and_targets, tmp_path, monkeypatch, sweep_jobs
    ):
        """A job that raises hands its lease back before its worker dies,
        so the run fails at once rather than after a lease TTL per
        surviving worker, with every other job checkpointed."""
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets, count=8)
        poisoned = jobs[-1].job_id  # claimed last: every other job completes
        real_run_job = AttackCampaign.run_job

        def run_job(self, job):
            if job.job_id == poisoned:
                raise ValueError("poisoned job")
            return real_run_job(self, job)

        monkeypatch.setattr(AttackCampaign, "run_job", run_job)
        checkpoint = tmp_path / "campaign.jsonl"
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="1 jobs unaccounted"):
            SchedulingCampaignExecutor(
                graph, workers=2, checkpoint_path=checkpoint, lease_ttl=30.0
            ).run(jobs)
        assert time.perf_counter() - start < 10.0  # well under the 30 s TTL
        completed = checkpoint.read_text().splitlines()[1:]
        assert len(completed) == len(jobs) - 1
