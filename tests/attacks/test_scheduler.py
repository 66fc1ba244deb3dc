"""Scheduler semantics: the lease queue is a wall-clock/fault-tolerance
lever, never a semantics change.  Its claim/heartbeat/complete protocol
must hand every job out exactly once under any interleaving, a SIGKILL'd
worker's jobs must be requeued and recovered (chaos tests), and a job
legitimately completed twice must keep exactly one record in the merged
checkpoint.  A queue-drained run must also match the serial
:class:`AttackCampaign` and resume from (or into) its checkpoints."""

import json
import multiprocessing
import os
import signal

import numpy as np
import pytest

from repro.attacks import (
    AttackCampaign,
    SchedulingCampaignExecutor,
    WorkQueue,
    build_campaign,
    grid_jobs,
)
from repro.attacks.campaign import CheckpointStore, JobOutcome
from repro.attacks.scheduler import (
    DEFAULT_LEASE_TTL,
    LEASE_TTL_ENV,
    LeaseHeartbeat,
    resolve_lease_ttl,
)
from repro.oddball.surrogate import DenseSurrogateEngine

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="scheduler chaos tests monkeypatch worker entry points through fork",
)

# graph_and_targets / sweep_jobs / assert_outcomes_identical come from
# tests/conftest.py (shared campaign fixtures)


class FakeClock:
    """Deterministic stand-in for ``time.monotonic`` (lease-expiry tests)."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def _queue_jobs(count=5):
    return grid_jobs(
        "gradmaxsearch", [[t] for t in range(count)], budgets=[1],
        candidates="target_incident",
    )


class TestLeaseTtlResolution:
    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(LEASE_TTL_ENV, "5")
        assert resolve_lease_ttl(2.0) == 2.0

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(LEASE_TTL_ENV, "7.5")
        assert resolve_lease_ttl() == 7.5

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv(LEASE_TTL_ENV, raising=False)
        assert resolve_lease_ttl() == DEFAULT_LEASE_TTL

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv(LEASE_TTL_ENV, "soon")
        with pytest.raises(ValueError, match=LEASE_TTL_ENV):
            resolve_lease_ttl()

    def test_nonpositive_ttl_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            resolve_lease_ttl(0.0)

    def test_executor_picks_up_env(self, monkeypatch, graph_and_targets):
        graph, _ = graph_and_targets
        monkeypatch.setenv(LEASE_TTL_ENV, "7.5")
        executor = SchedulingCampaignExecutor(graph, workers=2)
        assert executor.lease_ttl == 7.5


class TestWorkQueue:
    def test_create_open_round_trip(self, tmp_path):
        jobs = _queue_jobs(5)
        WorkQueue.create(tmp_path / "q", jobs, lease_ttl=3.0)
        queue = WorkQueue.open(tmp_path / "q", worker="w0")
        assert [job.job_id for job in queue.jobs] == [job.job_id for job in jobs]
        assert queue.lease_ttl == 3.0
        assert queue.remaining() == 5 and not queue.all_done()

    def test_claims_follow_queue_order_and_write_leases(self, tmp_path):
        jobs = _queue_jobs(3)
        WorkQueue.create(tmp_path / "q", jobs, lease_ttl=10.0)
        queue = WorkQueue.open(tmp_path / "q", worker="w0")
        first = queue.claim()
        assert first.job_id == jobs[0].job_id
        lease = queue.lease_of(first.job_id)
        assert lease.worker == "w0" and lease.generation == 0
        assert queue.claim().job_id == jobs[1].job_id

    def test_claim_returns_none_when_all_leased_or_done(self, tmp_path):
        jobs = _queue_jobs(2)
        WorkQueue.create(tmp_path / "q", jobs, lease_ttl=10.0)
        alice = WorkQueue.open(tmp_path / "q", worker="alice")
        bob = WorkQueue.open(tmp_path / "q", worker="bob")
        alice.claim(), alice.claim()
        assert bob.claim() is None          # both live-leased by alice
        alice.complete(jobs[0].job_id)
        alice.complete(jobs[1].job_id)
        assert bob.claim() is None and bob.all_done()

    def test_complete_marks_done_and_drops_lease(self, tmp_path):
        jobs = _queue_jobs(2)
        WorkQueue.create(tmp_path / "q", jobs, lease_ttl=10.0)
        queue = WorkQueue.open(tmp_path / "q", worker="w0")
        job = queue.claim()
        assert queue.complete(job.job_id) is True
        assert queue.lease_of(job.job_id) is None
        assert job.job_id in queue.done_ids()
        assert queue.remaining() == 1

    def test_second_completion_reports_duplicate(self, tmp_path):
        jobs = _queue_jobs(1)
        WorkQueue.create(tmp_path / "q", jobs, lease_ttl=10.0)
        alice = WorkQueue.open(tmp_path / "q", worker="alice")
        bob = WorkQueue.open(tmp_path / "q", worker="bob")
        alice.claim()
        assert alice.complete(jobs[0].job_id) is True
        assert bob.complete(jobs[0].job_id) is False
        assert bob.duplicate_completions == 1

    def test_expired_lease_requeues_with_bumped_generation(self, tmp_path):
        jobs = _queue_jobs(1)
        WorkQueue.create(tmp_path / "q", jobs, lease_ttl=5.0)
        clock = FakeClock()
        dead = WorkQueue.open(tmp_path / "q", worker="dead", clock=clock)
        thief = WorkQueue.open(tmp_path / "q", worker="thief", clock=clock)
        dead.claim()
        assert thief.claim() is None        # lease still live
        clock.advance(5.0)                  # dead never heartbeats
        stolen = thief.claim()
        assert stolen.job_id == jobs[0].job_id
        assert thief.steals == 1
        lease = thief.lease_of(stolen.job_id)
        assert lease.worker == "thief" and lease.generation == 1

    def test_heartbeat_extends_deadline_past_original_ttl(self, tmp_path):
        jobs = _queue_jobs(1)
        WorkQueue.create(tmp_path / "q", jobs, lease_ttl=5.0)
        clock = FakeClock()
        worker = WorkQueue.open(tmp_path / "q", worker="w0", clock=clock)
        thief = WorkQueue.open(tmp_path / "q", worker="thief", clock=clock)
        worker.claim()
        clock.advance(4.0)
        assert worker.heartbeat(jobs[0].job_id) is True
        clock.advance(4.0)                  # 8s elapsed, renewed at 4s
        assert thief.claim() is None        # still covered by the renewal

    def test_heartbeat_after_steal_reports_lost_lease(self, tmp_path):
        jobs = _queue_jobs(1)
        WorkQueue.create(tmp_path / "q", jobs, lease_ttl=5.0)
        clock = FakeClock()
        slow = WorkQueue.open(tmp_path / "q", worker="slow", clock=clock)
        thief = WorkQueue.open(tmp_path / "q", worker="thief", clock=clock)
        slow.claim()
        clock.advance(6.0)
        assert thief.claim() is not None
        assert slow.heartbeat(jobs[0].job_id) is False
        assert slow.lost_leases == 1
        # the thief's lease must not have been disturbed
        assert thief.lease_of(jobs[0].job_id).worker == "thief"

    def test_torn_lease_file_is_immediately_stealable(self, tmp_path):
        jobs = _queue_jobs(1)
        WorkQueue.create(tmp_path / "q", jobs, lease_ttl=10.0)
        queue = WorkQueue.open(tmp_path / "q", worker="w0")
        torn = tmp_path / "q" / "leases" / f"{jobs[0].job_id}.json"
        torn.write_text('{"job_id": "trunc')  # killed mid-write
        job = queue.claim()
        assert job.job_id == jobs[0].job_id

    def test_release_returns_job_to_the_queue(self, tmp_path):
        jobs = _queue_jobs(1)
        WorkQueue.create(tmp_path / "q", jobs, lease_ttl=10.0)
        alice = WorkQueue.open(tmp_path / "q", worker="alice")
        bob = WorkQueue.open(tmp_path / "q", worker="bob")
        alice.claim()
        assert bob.claim() is None
        alice.release(jobs[0].job_id)
        assert bob.claim().job_id == jobs[0].job_id

    def test_heartbeat_context_manager_renews_in_background(self, tmp_path):
        jobs = _queue_jobs(1)
        WorkQueue.create(tmp_path / "q", jobs, lease_ttl=0.4)
        queue = WorkQueue.open(tmp_path / "q", worker="w0")
        queue.claim()
        import time as _time

        with LeaseHeartbeat(queue, jobs[0].job_id) as beat:
            _time.sleep(1.0)                # several TTLs worth of wall time
            assert not beat.lost
        assert queue.heartbeats >= 2
        assert queue.lease_of(jobs[0].job_id).worker == "w0"


class TestSchedulerSerialParity:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_identical_result_serial_vs_scheduler(self, graph_and_targets, backend, sweep_jobs, assert_outcomes_identical):
        """The executor built directly (not via build_campaign), on two
        workers, matches the serial campaign — on the sparse engine or on
        the injected dense oracle — with no worker lost."""
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets)
        engine = DenseSurrogateEngine(graph, targets) if backend == "dense" else None
        serial = AttackCampaign(graph, engine=engine).run(jobs)
        executor = SchedulingCampaignExecutor(graph, backend="sparse", workers=2)
        scheduled = executor.run(jobs)
        assert_outcomes_identical(serial, scheduled)
        assert executor.last_dead_workers == []

    def test_mixed_cost_grid_parity(self, graph_and_targets, sweep_jobs, assert_outcomes_identical):
        """λ-sweep Binarized jobs next to cheap GradMax jobs — the skew the
        scheduler exists for — still produce bit-identical outcomes."""
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets, count=3)
        jobs += grid_jobs(
            "binarizedattack", [targets[:3]], budgets=[3],
            lambdas=[0.3, 0.05], candidates="target_incident", iterations=15,
        )
        serial = AttackCampaign(graph).run(jobs)
        scheduled = SchedulingCampaignExecutor(graph, workers=3).run(jobs)
        assert_outcomes_identical(serial, scheduled)

    def test_build_campaign_scheduler_switch(self, graph_and_targets, monkeypatch):
        """build_campaign's multi-worker executor takes its lease TTL from
        $REPRO_LEASE_TTL, the one TTL knob driver runs have."""
        graph, _ = graph_and_targets
        monkeypatch.setenv("REPRO_LEASE_TTL", "7.5")
        executor = build_campaign(graph, workers=2)
        assert isinstance(executor, SchedulingCampaignExecutor)
        assert executor.workers == 2
        assert executor.lease_ttl == 7.5

    def test_worker_observability(self, graph_and_targets, sweep_jobs):
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets, count=6)
        executor = SchedulingCampaignExecutor(graph, workers=3)
        executor.run(jobs)
        assert len(executor.last_worker_stats) == 3
        assert sum(s["jobs"] for s in executor.last_worker_stats) == 6
        for stats in executor.last_worker_stats:
            assert stats["claims"] >= stats["jobs"]
            assert stats["completions"] == stats["jobs"]
            assert stats["cpu_seconds"] >= 0.0
            assert stats["wall_seconds"] > 0.0
        assert executor.last_dead_workers == []

    def test_queue_dir_is_cleaned_up_after_the_run(
        self, graph_and_targets, tmp_path, sweep_jobs
    ):
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets, count=3)
        checkpoint = tmp_path / "campaign.jsonl"
        SchedulingCampaignExecutor(
            graph, workers=2, checkpoint_path=checkpoint
        ).run(jobs)
        assert not (tmp_path / "campaign.jsonl.queue").exists()
        assert not list(tmp_path.glob("*.shard*"))


class TestSchedulerCheckpointResume:
    def test_scheduler_resumes_serial_checkpoint(self, graph_and_targets, tmp_path, sweep_jobs, assert_outcomes_identical):
        """Only the pending jobs are published to the lease queue."""
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets)
        checkpoint = tmp_path / "campaign.jsonl"
        AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs[:4])
        executor = SchedulingCampaignExecutor(
            graph, workers=3, checkpoint_path=checkpoint
        )
        resumed = executor.run(jobs)
        assert resumed.resumed_jobs == 4
        assert sum(s["jobs"] for s in executor.last_worker_stats) == len(jobs) - 4
        assert_outcomes_identical(AttackCampaign(graph).run(jobs), resumed)

    def test_serial_resumes_scheduler_checkpoint(self, graph_and_targets, tmp_path, sweep_jobs, assert_outcomes_identical):
        """A partial queue-drained checkpoint resumes serially to the
        fresh result."""
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets)
        checkpoint = tmp_path / "campaign.jsonl"
        SchedulingCampaignExecutor(
            graph, workers=3, checkpoint_path=checkpoint
        ).run(jobs[:5])
        resumed = AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        assert resumed.resumed_jobs == 5
        assert_outcomes_identical(AttackCampaign(graph).run(jobs), resumed)

    def test_scheduler_resumes_partial_checkpoint_with_more_workers(
        self, graph_and_targets, tmp_path, sweep_jobs, assert_outcomes_identical
    ):
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets)
        checkpoint = tmp_path / "campaign.jsonl"
        SchedulingCampaignExecutor(
            graph, workers=2, checkpoint_path=checkpoint
        ).run(jobs[:5])
        resumed = SchedulingCampaignExecutor(
            graph, workers=3, checkpoint_path=checkpoint
        ).run(jobs)
        assert resumed.resumed_jobs == 5
        assert_outcomes_identical(AttackCampaign(graph).run(jobs), resumed)

    def test_fully_checkpointed_run_spawns_no_workers(
        self, graph_and_targets, tmp_path, sweep_jobs
    ):
        """A replay publishes no queue and reports no worker activity."""
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
        assert replay.worker_stats == []
        assert executor.last_requeues == 0
        assert not (tmp_path / "campaign.jsonl.queue").exists()


def _chaos_ttl():
    """Chaos-test lease TTL: the CI chaos lane's shrunk $REPRO_LEASE_TTL
    when set, capped at 1s so local runs (default 30s) stay fast."""
    return min(resolve_lease_ttl(None), 1.0)


class TestChaosKillMidLease:
    def test_chaos_sigkill_after_claim_requeues_and_matches_serial(
        self, graph_and_targets, tmp_path, monkeypatch, sweep_jobs, assert_outcomes_identical
    ):
        """The acceptance scenario: SIGKILL a worker the instant it claims
        (it dies holding an active lease, before any work lands in its
        shard).  The surviving workers must requeue the job after the TTL
        and the merged checkpoint must be bit-identical to serial."""
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets)
        serial = AttackCampaign(graph).run(jobs)

        import repro.attacks.scheduler as scheduler_module

        real_main = scheduler_module._scheduler_worker_main

        def kamikaze_main(spec, queue_dir, shard_path, compute_ranks,
                          lease_ttl, worker_index, telemetry=None):
            if worker_index == 0:
                # Fork isolation: this rebinding exists only in the child.
                real_claim = WorkQueue.claim

                def claim_then_die(self):
                    job = real_claim(self)
                    if job is not None:
                        os.kill(os.getpid(), signal.SIGKILL)
                    return job

                WorkQueue.claim = claim_then_die
            real_main(spec, queue_dir, shard_path, compute_ranks,
                      lease_ttl, worker_index, telemetry)

        monkeypatch.setattr(
            scheduler_module, "_scheduler_worker_main", kamikaze_main
        )
        checkpoint = tmp_path / "campaign.jsonl"
        executor = SchedulingCampaignExecutor(
            graph, workers=3, checkpoint_path=checkpoint,
            lease_ttl=_chaos_ttl(),
        )
        result = executor.run(jobs)           # must NOT raise: jobs recovered
        assert executor.last_dead_workers == ["scheduler-worker-0"]
        assert executor.last_requeues >= 1
        assert_outcomes_identical(serial, result)

    def test_chaos_sigkill_between_append_and_done_marker_dedupes(
        self, graph_and_targets, tmp_path, monkeypatch, sweep_jobs, assert_outcomes_identical
    ):
        """Kill in the gap between the two durable steps: the outcome is in
        the dead worker's shard but the done marker never lands, so the job
        is requeued and completed AGAIN by a survivor.  The merge must keep
        exactly one record and still match serial bit-for-bit."""
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets)
        serial = AttackCampaign(graph).run(jobs)

        import repro.attacks.scheduler as scheduler_module

        real_main = scheduler_module._scheduler_worker_main

        def kamikaze_main(spec, queue_dir, shard_path, compute_ranks,
                          lease_ttl, worker_index, telemetry=None):
            if worker_index == 0:
                def die_instead_of_completing(self, job_id):
                    os.kill(os.getpid(), signal.SIGKILL)

                WorkQueue.complete = die_instead_of_completing
            real_main(spec, queue_dir, shard_path, compute_ranks,
                      lease_ttl, worker_index, telemetry)

        monkeypatch.setattr(
            scheduler_module, "_scheduler_worker_main", kamikaze_main
        )
        checkpoint = tmp_path / "campaign.jsonl"
        executor = SchedulingCampaignExecutor(
            graph, workers=3, checkpoint_path=checkpoint,
            lease_ttl=_chaos_ttl(),
        )
        result = executor.run(jobs)
        assert executor.last_dead_workers == ["scheduler-worker-0"]
        assert_outcomes_identical(serial, result)
        # exactly one record per job survived the double completion
        records = [
            json.loads(line)
            for line in checkpoint.read_text().splitlines()[1:]
        ]
        assert len(records) == len(jobs)

    def test_chaos_kill_without_checkpoint_still_recovers(
        self, graph_and_targets, tmp_path, monkeypatch, sweep_jobs, assert_outcomes_identical
    ):
        """Crash recovery must not depend on a main checkpoint file — the
        per-worker shards + queue are enough."""
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets, count=5)
        serial = AttackCampaign(graph).run(jobs)

        import repro.attacks.scheduler as scheduler_module

        real_main = scheduler_module._scheduler_worker_main

        def kamikaze_main(spec, queue_dir, shard_path, compute_ranks,
                          lease_ttl, worker_index, telemetry=None):
            if worker_index == 1:
                real_claim = WorkQueue.claim

                def claim_then_die(self):
                    job = real_claim(self)
                    if job is not None:
                        os.kill(os.getpid(), signal.SIGKILL)
                    return job

                WorkQueue.claim = claim_then_die
            real_main(spec, queue_dir, shard_path, compute_ranks,
                      lease_ttl, worker_index, telemetry)

        monkeypatch.setattr(
            scheduler_module, "_scheduler_worker_main", kamikaze_main
        )
        executor = SchedulingCampaignExecutor(
            graph, workers=2, lease_ttl=_chaos_ttl()
        )
        result = executor.run(jobs)
        assert executor.last_dead_workers == ["scheduler-worker-1"]
        assert_outcomes_identical(serial, result)


def _synthetic_outcome(job, seconds=0.0):
    """A deterministic JobOutcome derived purely from the job (plus a
    ``seconds`` that varies by writer — the one field dedupe may discard)."""
    target = int(job.targets[0])
    return JobOutcome(
        job=job,
        flips_by_budget={job.budget: ((target, target + 1),)},
        surrogate_by_budget={job.budget: float(job.budget)},
        score_before=1.0,
        score_after=0.5,
        rank_shifts={target: -1},
        seconds=seconds,
        metadata={},
    )


class TestCheckpointDedupe:
    def test_same_file_duplicate_keeps_first_record(self, tmp_path):
        """The dedupe key is the job content hash: a checkpoint holding two
        records for one job (double completion after a requeue) loads as
        exactly one outcome — the FIRST durable one."""
        job = _queue_jobs(1)[0]
        store = CheckpointStore(tmp_path / "ck.jsonl", "fp", 64)
        store.append(_synthetic_outcome(job, seconds=1.0))
        store.append(_synthetic_outcome(job, seconds=2.0))
        loaded = store.load()
        assert len(loaded) == 1
        assert loaded[job.job_id].seconds == 1.0

    def test_double_completion_shard_pair_after_requeue_keeps_one_record(
        self, graph_and_targets, tmp_path, sweep_jobs, assert_outcomes_identical
    ):
        """A shard pair left by a slow-but-alive worker finishing a job a
        survivor already completed: both shards hold the job (different
        ``seconds``), the merged checkpoint keeps one record and the run
        matches serial."""
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets, count=4)
        serial = AttackCampaign(graph).run(jobs)
        checkpoint = tmp_path / "campaign.jsonl"

        executor = SchedulingCampaignExecutor(
            graph, workers=2, checkpoint_path=checkpoint
        )
        first = serial.outcomes[0]
        doc = first.to_dict()
        doc["seconds"] = first.seconds + 5.0
        slow_duplicate = JobOutcome.from_dict(doc)
        executor._store(tmp_path / "campaign.jsonl.shard0").append(first)
        executor._store(tmp_path / "campaign.jsonl.shard1").append(slow_duplicate)

        result = executor.run(jobs)
        assert result.resumed_jobs == 1       # the duplicated job, once
        assert_outcomes_identical(serial, result)
        records = [
            json.loads(line)
            for line in checkpoint.read_text().splitlines()[1:]
        ]
        assert len(records) == len(jobs)
        # the first durable record (shard order) won
        merged = executor._store(checkpoint).load()
        assert merged[first.job_id].seconds == first.seconds


class TestPropertyInterleavings:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_random_interleavings_requeue_and_complete_exactly_once(
        self, tmp_path, seed
    ):
        """Property-style: drive a real 50-job WorkQueue through thousands
        of randomly interleaved claim/heartbeat/complete/crash/clock-advance
        steps across 4 simulated workers.  Whatever the interleaving, every
        job ends done exactly once and the merged checkpoint is identical
        to a serial one (``seconds`` aside)."""
        jobs = _queue_jobs(50)
        assert len(jobs) == 50
        queue_dir = tmp_path / "queue"
        WorkQueue.create(queue_dir, jobs, lease_ttl=10.0)
        clock = FakeClock()
        n_workers = 4
        workers = [
            WorkQueue.open(queue_dir, worker=f"w{i}", clock=clock)
            for i in range(n_workers)
        ]
        shards = [
            CheckpointStore(tmp_path / f"shard{i}", "prop-fp", 64)
            for i in range(n_workers)
        ]
        active = {}
        rng = np.random.default_rng(seed)
        for _ in range(100_000):
            if workers[0].all_done():
                break
            i = int(rng.integers(n_workers))
            queue = workers[i]
            if i not in active:
                job = queue.claim()
                if job is not None:
                    active[i] = job
            else:
                action = rng.random()
                if action < 0.30:
                    queue.heartbeat(active[i].job_id)
                elif action < 0.75:
                    job = active.pop(i)
                    # durability order: shard append, THEN done marker
                    shards[i].append(_synthetic_outcome(job, seconds=float(i)))
                    queue.complete(job.job_id)
                else:
                    active.pop(i)   # crash: never completes; lease expires
            if rng.random() < 0.5:
                clock.advance(float(rng.uniform(0.0, 8.0)))
        else:
            pytest.fail("queue did not drain within the step budget")

        assert workers[0].done_ids() == {job.job_id for job in jobs}
        assert sum(w.claims for w in workers) >= 50

        main = CheckpointStore(tmp_path / "merged", "prop-fp", 64)
        for shard in shards:
            main.merge_from(shard)
        merged = main.load()
        assert len(merged) == 50              # exactly once, despite crashes

        reference_store = CheckpointStore(tmp_path / "serial", "prop-fp", 64)
        for job in jobs:
            reference_store.append(_synthetic_outcome(job, seconds=99.0))
        reference = reference_store.load()
        assert set(merged) == set(reference)
        for job_id, expected in reference.items():
            got = merged[job_id]
            assert got.flips_by_budget == expected.flips_by_budget
            assert got.surrogate_by_budget == expected.surrogate_by_budget
            assert got.score_before == expected.score_before
            assert got.score_after == expected.score_after
            assert got.rank_shifts == expected.rank_shifts
