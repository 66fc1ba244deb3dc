"""Scheduler semantics: the lease queue is a wall-clock/fault-tolerance
lever, never a semantics change.  Its claim/renew/complete protocol
must hand every job out exactly once under any interleaving, a SIGKILL'd
worker's jobs must be requeued and recovered (chaos tests), and a job
legitimately completed twice must keep exactly one record in the merged
checkpoint.  A queue-drained run must also match the serial
:class:`AttackCampaign` and resume from (or into) its checkpoints."""

import builtins
import inspect
import io
import json
import multiprocessing
import os
import signal
import sys
import time
from collections import Counter

import numpy as np
import pytest

import repro.kernels
from repro import telemetry
from repro.attacks import (
    AttackCampaign,
    SchedulingCampaignExecutor,
    WorkQueue,
    build_campaign,
    grid_jobs,
)
from repro.attacks import campaign as campaign_module
from repro.attacks import scheduler as scheduler_module
from repro.attacks.campaign import CheckpointStore, JobOutcome, graph_fingerprint
from repro.attacks.scheduler import (
    DEFAULT_LEASE_TTL,
    LEASE_TTL_ENV,
    LeaseHeartbeat,
    _scheduler_worker_drain,
    _scheduler_worker_main,
    resolve_lease_ttl,
)
from repro.graph import sparse as graph_sparse
from repro.oddball.surrogate import DenseSurrogateEngine, EngineSpec
from repro.telemetry import tracer as tracer_module

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


def _shared_queue(tmp_path, jobs, lease_ttl=10.0, clock=time.monotonic,
                  names=("alice", "bob"), name="q"):
    """A queue at ``tmp_path / name`` whose handles ``names`` each own a
    shard, as the executor's workers do; returns ``(handles, shards)``."""
    shards = [
        CheckpointStore(tmp_path / f"{name}.shard{i}", "fault-fp", 64)
        for i in range(len(names))
    ]
    WorkQueue.create(
        tmp_path / name, jobs, lease_ttl=lease_ttl,
        shards=[shard.path for shard in shards],
    )
    handles = [
        WorkQueue.open(tmp_path / name, worker=worker, clock=clock, shard=shard.path)
        for worker, shard in zip(names, shards)
    ]
    return handles, shards


def _finish(queue, shard, job, seconds=0.0):
    """A worker's completion: the outcome line in its shard, then complete()."""
    shard.append(_synthetic_outcome(job, seconds=seconds))
    return queue.complete(job.job_id)


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
        (alice, bob), (shard, _) = _shared_queue(tmp_path, jobs)
        alice.claim(), alice.claim()
        assert bob.claim() is None          # both live-leased by alice
        _finish(alice, shard, jobs[0])
        _finish(alice, shard, jobs[1])
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
        (alice, bob), shards = _shared_queue(tmp_path, jobs)
        alice.claim()
        assert _finish(alice, shards[0], jobs[0]) is True
        assert _finish(bob, shards[1], jobs[0]) is False
        assert bob.duplicate_completions == 1

    def test_near_simultaneous_completions_both_count_a_duplicate(self, tmp_path):
        """The rule: a completion is a duplicate when the job was done as
        complete() sees it.  Two workers that both append before either
        completes each see the other's line, so both count one; the merge
        still keeps exactly one record."""
        jobs = _queue_jobs(1)
        (alice, bob), shards = _shared_queue(tmp_path, jobs)
        for shard, seconds in zip(shards, (1.0, 2.0)):
            shard.append(_synthetic_outcome(jobs[0], seconds=seconds))
        assert alice.complete(jobs[0].job_id) is False
        assert bob.complete(jobs[0].job_id) is False
        assert alice.duplicate_completions == bob.duplicate_completions == 1
        merged = CheckpointStore(tmp_path / "merged", "fault-fp", 64).merge_from(*shards)
        assert list(merged) == [jobs[0].job_id]

    def test_completion_writes_nothing_but_the_shard_line(self, tmp_path, monkeypatch):
        """A finished job's one durable write is its shard append:
        complete() opens files only to read them, and nothing under the
        queue directory holds a per-job record."""
        jobs = _queue_jobs(4)
        (alice, bob), shards = _shared_queue(tmp_path, jobs)
        _finish(bob, shards[1], bob.claim())        # a peer line to fold
        modes = []

        def opening(original):
            def spy(file, mode="r", *args, **kwargs):
                modes.append(mode)
                return original(file, mode, *args, **kwargs)
            return spy

        def queue_files():
            return {
                path.relative_to(tmp_path): path.read_bytes()
                for path in (tmp_path / "q").rglob("*") if path.is_file()
            }

        for job in iter(alice.claim, None):
            shards[0].append(_synthetic_outcome(job))
            before = queue_files()
            with monkeypatch.context() as patch:
                patch.setattr(builtins, "open", opening(builtins.open))
                patch.setattr(io, "open", opening(io.open))
                assert alice.complete(job.job_id) is True
            after = queue_files()
            # at most the settled chunk's lease file goes
            assert set(after) <= set(before)
            assert all(after[path] == before[path] for path in after)
            assert all(str(path).startswith("q/leases/") for path in set(before) - set(after))
        assert modes and set(modes) == {"rb"}
        assert alice.all_done() and alice.completions == 3
        assert sorted(path.name for path in (tmp_path / "q").iterdir()) == [
            "jobs.jsonl", "leases", "lock", "queue.json",
        ]
        assert not list((tmp_path / "q" / "leases").iterdir())

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
        assert worker.renew() is True
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
        assert slow.renew() is False
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

        with LeaseHeartbeat(queue) as beat:  # renews the handle's chunk
            _time.sleep(1.0)                # several TTLs worth of wall time
            assert not beat.lost
        assert queue.heartbeats >= 2
        assert queue.lease_of(jobs[0].job_id).worker == "w0"


class TestQueueOpen:
    def test_open_resolves_each_attack_signature_once(self, tmp_path, monkeypatch):
        """Parsing a 400-job queue inspects each attack class's
        constructor once, not once per job."""
        jobs = _queue_jobs(200) + grid_jobs(
            "binarizedattack", [[t] for t in range(200)], budgets=[1],
        )
        WorkQueue.create(tmp_path / "q", jobs, lease_ttl=10.0)
        campaign_module._constructor_parameters.cache_clear()
        calls = Counter()
        real_signature = inspect.signature

        def counting_signature(obj, *args, **kwargs):
            calls[obj.__qualname__] += 1
            return real_signature(obj, *args, **kwargs)

        monkeypatch.setattr(inspect, "signature", counting_signature)
        queue = WorkQueue.open(tmp_path / "q", worker="w0")
        assert len(queue.jobs) == 400
        assert calls == {"GradMaxSearch.__init__": 1, "BinarizedAttack.__init__": 1}


def _spy_on(monkeypatch, name, wrap):
    """Replace ``repro.graph.sparse.<name>`` with ``wrap(original)`` in every
    ``repro`` module that bound it by name (lazy imports read the
    ``repro.graph.sparse`` attribute itself)."""
    original = getattr(graph_sparse, name)
    spy = wrap(original)
    for module in list(sys.modules.values()):
        module_name = getattr(module, "__name__", None) or ""
        if module_name.split(".")[0] == "repro" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, spy)


class TestWorkerHandoff:
    """A worker builds its engine and its campaign on the one CSR its spec
    hands over, and trusts the parent's validation and content hash."""

    @pytest.mark.parametrize("kind", ["csr", "store"])
    def test_worker_neither_validates_nor_hashes_the_graph(
        self, kind, graph_and_targets, store, sweep_jobs, tmp_path, monkeypatch
    ):
        if kind == "store":
            spec, targets = EngineSpec.from_store(store), store.top_targets(2)
            parent_fingerprint = graph_fingerprint(store.detached_csr())
        else:
            graph, targets = graph_and_targets
            spec = EngineSpec.from_graph(graph)
            parent_fingerprint = graph_fingerprint(graph.adjacency)
        spec = spec._replace(kernels=repro.kernels.default_kernels())
        jobs = sweep_jobs(targets, count=2)
        WorkQueue.create(tmp_path / "q", jobs, lease_ttl=30.0)

        counts = Counter()

        def counting_hash(original):
            def spy(adjacency):
                counts["content_hash"] += 1
                return original(adjacency)
            return spy

        def counting_validation(original):
            def spy(graph):
                matrix = original(graph)
                counts["validations"] += matrix is not graph  # a checked copy
                return matrix
            return spy

        built = []

        class RecordingCampaign(AttackCampaign):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        _spy_on(monkeypatch, "content_hash", counting_hash)
        _spy_on(monkeypatch, "to_sparse", counting_validation)
        monkeypatch.setattr(scheduler_module, "AttackCampaign", RecordingCampaign)
        # the worker applies spec.kernels as the process default
        monkeypatch.setattr(repro.kernels, "_DEFAULT", repro.kernels._DEFAULT)
        shard = str(tmp_path / "shard.jsonl")
        try:
            _scheduler_worker_main(spec, str(tmp_path / "q"), shard, False, 30.0, 0)
        finally:
            # Lets the next test resolve $REPRO_TELEMETRY afresh, as the
            # tracing CI lane expects.
            tracer_module._RESOLVED = False
        assert counts["content_hash"] == 0 and counts["validations"] == 0
        (campaign,) = built
        assert campaign._engine._features._base is campaign._original
        with open(shard) as handle:
            assert json.loads(handle.readline())["fingerprint"] == parent_fingerprint
        completed = CheckpointStore(shard, parent_fingerprint, campaign.n).load()
        assert sorted(completed) == sorted(job.job_id for job in jobs)


class TestIdleBackoff:
    """An idle worker (its claim empty, its peer holding the last lease)
    backs off 1, 2, 4 ... ms up to ``poll_interval`` between claims."""

    @staticmethod
    def _held_queue(tmp_path, jobs, lease_ttl):
        """A queue of ``jobs`` whose first job the handle of a second
        worker has already claimed; returns that handle and its shard."""
        holder_shard = CheckpointStore(tmp_path / "holder.shard", "fp", 64)
        WorkQueue.create(
            tmp_path / "q", jobs, lease_ttl=lease_ttl,
            shards=[tmp_path / "shard.jsonl", holder_shard.path],
        )
        holder = WorkQueue.open(tmp_path / "q", worker="holder", shard=holder_shard.path)
        assert holder.claim().job_id == jobs[0].job_id
        return holder, holder_shard

    def test_idle_lease_wait_doubles_from_one_ms_and_exits_without_engine(
        self, graph_and_targets, tmp_path, monkeypatch, sweep_jobs
    ):
        graph, targets = graph_and_targets
        job = sweep_jobs(targets, count=1)[0]
        holder, holder_shard = self._held_queue(tmp_path, [job], lease_ttl=30.0)
        waits = []

        def fake_sleep(seconds):
            waits.append(seconds)
            if len(waits) == 4:
                _finish(holder, holder_shard, job)

        def no_engine(*args, **kwargs):
            raise AssertionError("an idle worker must not build an engine")

        monkeypatch.setattr(scheduler_module.time, "sleep", fake_sleep)
        monkeypatch.setattr(scheduler_module.SurrogateEngine, "from_spec", no_engine)
        shard = str(tmp_path / "shard.jsonl")
        telemetry.configure(tmp_path / "trace")
        try:
            _scheduler_worker_drain(
                EngineSpec.from_graph(graph), str(tmp_path / "q"), shard,
                False, 30.0, 0,
            )
        finally:
            # Closes (flushes) this trace, then lets the next test resolve
            # $REPRO_TELEMETRY afresh, as the tracing CI lane expects.
            telemetry.shutdown()
            tracer_module._RESOLVED = False
        assert waits == [0.001, 0.002, 0.004, 0.008]
        stats = json.loads(open(shard + ".stats").read())
        assert stats["jobs"] == 0 and stats["claims"] == 0
        idle = [
            record for record in telemetry.load_trace_dir(tmp_path / "trace")
            if record["kind"] == "counter" and record["name"] == "scheduler.idle_wait"
        ]
        assert sum(record["count"] for record in idle) == 4
        assert sum(record["total_ns"] for record in idle) == 15_000_000

    def test_idle_lease_wait_restarts_at_one_ms_after_a_claim(
        self, graph_and_targets, tmp_path, monkeypatch, sweep_jobs
    ):
        graph, targets = graph_and_targets
        first, second = sweep_jobs(targets, count=2)
        holder, holder_shard = self._held_queue(
            tmp_path, [first, second], lease_ttl=30.0
        )
        holder.claim()
        waits = []

        def fake_sleep(seconds):
            waits.append(seconds)
            if len(waits) == 3:
                holder.release(second.job_id)   # the worker claims and runs it
            elif len(waits) == 5:
                _finish(holder, holder_shard, first)

        monkeypatch.setattr(scheduler_module.time, "sleep", fake_sleep)
        shard = str(tmp_path / "shard.jsonl")
        _scheduler_worker_drain(
            EngineSpec.from_graph(graph), str(tmp_path / "q"), shard,
            False, 30.0, 0,
        )
        assert waits == [0.001, 0.002, 0.004, 0.001, 0.002]
        assert json.loads(open(shard + ".stats").read())["jobs"] == 1

    def test_idle_lease_wait_caps_at_poll_interval_then_steals(
        self, graph_and_targets, tmp_path, monkeypatch, sweep_jobs
    ):
        graph, targets = graph_and_targets
        job = sweep_jobs(targets, count=1)[0]
        holder, _ = self._held_queue(tmp_path, [job], lease_ttl=0.5)
        cap = holder.poll_interval
        waits = []
        real_sleep = scheduler_module.time.sleep

        def recording_sleep(seconds):
            waits.append(seconds)
            real_sleep(seconds)

        monkeypatch.setattr(scheduler_module.time, "sleep", recording_sleep)
        shard = str(tmp_path / "shard.jsonl")
        _scheduler_worker_drain(
            EngineSpec.from_graph(graph), str(tmp_path / "q"), shard,
            False, 0.5, 0,
        )
        # The holder never heartbeats: the worker backs off to the cap,
        # then steals the expired lease and runs the job itself.
        assert cap == 0.05
        assert waits[:6] == [0.001, 0.002, 0.004, 0.008, 0.016, 0.032]
        assert len(waits) > 6 and set(waits[6:]) == {cap}
        stats = json.loads(open(shard + ".stats").read())
        assert stats["jobs"] == 1 and stats["steals"] == 1
        # the shard line is the job's only record: the queue holds none
        assert sorted(os.listdir(tmp_path / "q")) == [
            "jobs.jsonl", "leases", "lock", "queue.json",
        ]
        store = AttackCampaign(graph, checkpoint_path=shard).checkpoint_store()
        assert list(store.load()) == [job.job_id]


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
        assert scheduled.dead_workers == ()

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
        result = executor.run(jobs)
        assert len(executor.last_worker_stats) == 3
        assert sum(s["jobs"] for s in executor.last_worker_stats) == 6
        for stats in executor.last_worker_stats:
            assert stats["claims"] >= stats["jobs"]
            assert stats["completions"] == stats["jobs"]
            assert stats["cpu_seconds"] >= 0.0
            assert stats["wall_seconds"] > 0.0
        assert result.dead_workers == ()

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
        assert replay.requeues == 0
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
        assert result.dead_workers == ("scheduler-worker-0",)
        assert result.requeues >= 1
        assert_outcomes_identical(serial, result)

    def test_chaos_sigkill_after_shard_append_never_reruns_the_job(
        self, graph_and_targets, tmp_path, monkeypatch, sweep_jobs, assert_outcomes_identical
    ):
        """Kill right after the shard append, in place of complete(): the
        outcome line is the job's done record, so the survivors steal the
        rest of the dead worker's chunk but never run that job again, and
        the result still matches serial bit-for-bit."""
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets)
        serial = AttackCampaign(graph).run(jobs)
        real_main = scheduler_module._scheduler_worker_main

        def kamikaze_main(spec, queue_dir, shard_path, compute_ranks,
                          lease_ttl, worker_index, telemetry=None):
            if worker_index == 0:
                def die_instead_of_completing(self, job_id):
                    os.kill(os.getpid(), signal.SIGKILL)

                WorkQueue.complete = die_instead_of_completing
            real_main(spec, queue_dir, shard_path, compute_ranks,
                      lease_ttl, worker_index, telemetry)

        shard_records = {}
        real_merge = CheckpointStore.merge_from

        def counting_merge(self, *others):
            shard_records.update((other.path.name, len(other.load())) for other in others)
            return real_merge(self, *others)

        monkeypatch.setattr(
            scheduler_module, "_scheduler_worker_main", kamikaze_main
        )
        monkeypatch.setattr(CheckpointStore, "merge_from", counting_merge)
        checkpoint = tmp_path / "campaign.jsonl"
        executor = SchedulingCampaignExecutor(
            graph, workers=3, checkpoint_path=checkpoint,
            lease_ttl=_chaos_ttl(),
        )
        result = executor.run(jobs)
        assert result.dead_workers == ("scheduler-worker-0",)
        dead_records = shard_records["campaign.jsonl.shard0"]
        assert dead_records == 1
        # no job ran twice: the survivors ran exactly the rest
        survivors = sum(stats["jobs"] for stats in result.worker_stats)
        assert survivors + dead_records == len(jobs)
        assert_outcomes_identical(serial, result)
        assert len(checkpoint.read_text().splitlines()[1:]) == len(jobs)

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
        assert result.dead_workers == ("scheduler-worker-1",)
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
        clock = FakeClock()
        n_workers = 4
        workers, shards = _shared_queue(
            tmp_path, jobs, clock=clock, names=[f"w{i}" for i in range(n_workers)],
        )
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
                    queue.renew()
                elif action < 0.75:
                    _finish(queue, shards[i], active.pop(i), seconds=float(i))
                else:
                    active.pop(i)   # crash: never completes; lease expires
            if rng.random() < 0.5:
                clock.advance(float(rng.uniform(0.0, 8.0)))
        else:
            pytest.fail("queue did not drain within the step budget")

        assert workers[0].done_ids() == {job.job_id for job in jobs}
        assert sum(w.claims for w in workers) >= 50

        main = CheckpointStore(tmp_path / "merged", "fault-fp", 64)
        for shard in shards:
            main.merge_from(shard)
        merged = main.load()
        assert len(merged) == 50              # exactly once, despite crashes

        reference_store = CheckpointStore(tmp_path / "serial", "fault-fp", 64)
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


class TestChunkRule:
    """Guided self-scheduling: a lock-taking claim leases ⌈free / 2W⌉ jobs,
    where ``free`` is the jobs neither done nor under a live lease."""

    def test_chunk_sizes_follow_free_over_2w_and_end_in_ones(
        self, tmp_path, monkeypatch
    ):
        jobs = _queue_jobs(400)
        handles, shards = _shared_queue(tmp_path, jobs, clock=FakeClock())
        passes = []
        real_lease_chunk = WorkQueue._lease_chunk

        def counted(self):
            passes.append(self.worker)
            real_lease_chunk(self)

        monkeypatch.setattr(WorkQueue, "_lease_chunk", counted)
        chunk = {"alice": set(), "bob": set()}
        done = set()
        sizes = []
        step = 0
        while len(done) < len(jobs):
            queue, shard = handles[step % 2], shards[step % 2]
            other = handles[(step + 1) % 2].worker
            step += 1
            before = len(passes)
            free = len(jobs) - len(done) - len(chunk[other] - done)
            job = queue.claim()
            assert job is not None and job.job_id not in done
            if len(passes) > before:           # this claim took the lock
                lease = queue.lease_of(job.job_id)
                assert lease.worker == queue.worker and lease.generation == 0
                assert lease.job_ids[0] == job.job_id
                assert len(lease.job_ids) == -(-free // 4)
                sizes.append(len(lease.job_ids))
                chunk[queue.worker] = set(lease.job_ids)
            assert job.job_id in chunk[queue.worker]
            assert _finish(queue, shard, job) is True
            done.add(job.job_id)
        assert sizes[:3] == [100, 75, 57]
        assert sizes[-4:] == [1, 1, 1, 1]
        assert sizes == sorted(sizes, reverse=True)
        assert len(passes) <= 30
        assert handles[0].claim() is None and handles[1].claim() is None
        assert handles[0].all_done() and handles[0].remaining() == 0
        assert not list((tmp_path / "q" / "leases").iterdir())

    def test_heartbeat_thread_racing_claims_never_loses_a_lease(self, tmp_path):
        """A renewal every 0.1 ms against a draining main thread, with a
        tiny switch interval: every job completes once, no lease is lost,
        and no lease file outlives its chunk."""
        import sys

        jobs = _queue_jobs(400)
        (queue, _), _ = _shared_queue(tmp_path, jobs, lease_ttl=30.0)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with LeaseHeartbeat(queue, interval=1e-4) as beat:
                while (job := queue.claim()) is not None:
                    assert queue.complete(job.job_id) is True
        finally:
            sys.setswitchinterval(switch)
        assert not beat.lost and queue.lost_leases == 0 and queue.heartbeats > 0
        assert queue.all_done() and queue.completions == len(jobs)
        assert not list((tmp_path / "q" / "leases").iterdir())

    def test_expired_chunk_of_a_dead_worker_is_stolen_with_its_undone_jobs(
        self, tmp_path
    ):
        jobs = _queue_jobs(400)
        clock = FakeClock()
        (dead, thief), shards = _shared_queue(
            tmp_path, jobs, lease_ttl=5.0, clock=clock, names=("dead", "thief"),
        )
        for _ in range(10):
            _finish(dead, shards[0], dead.claim())
        in_flight = dead.claim()                # dies running this one
        held = dead.lease_of(in_flight.job_id)
        assert len(held.job_ids) == 100
        assert thief.claim().job_id == jobs[100].job_id  # the next fresh chunk
        clock.advance(5.0)
        _finish(thief, shards[1], jobs[100])
        # thief still holds a live chunk: drain it before the next pass
        while (job := thief.claim()) is not None and job.job_id != in_flight.job_id:
            _finish(thief, shards[1], job)
        assert job.job_id == in_flight.job_id
        assert thief.steals == 1
        stolen = thief.lease_of(in_flight.job_id)
        assert stolen.worker == "thief" and stolen.generation == held.generation + 1
        assert stolen.job_ids == held.job_ids[10:]
        assert not (tmp_path / "q" / "leases" / "dead.0.json").exists()

    def test_slow_holder_completing_a_stolen_job_counts_a_duplicate(
        self, tmp_path
    ):
        jobs = _queue_jobs(400)
        clock = FakeClock()
        (slow, thief), shards = _shared_queue(
            tmp_path, jobs, lease_ttl=5.0, clock=clock, names=("slow", "thief"),
        )
        job = slow.claim()
        clock.advance(6.0)                       # slow never heartbeats
        assert thief.claim().job_id == job.job_id
        stolen = set(thief.lease_of(job.job_id).job_ids)
        assert len(stolen) == 100
        assert _finish(thief, shards[1], job) is True
        assert _finish(slow, shards[0], job) is False
        assert slow.duplicate_completions == 1 and thief.duplicate_completions == 0
        # the renewal reports the loss, and no more of the chunk is handed out
        assert slow.renew() is False
        assert slow.lost_leases == 1
        assert slow.claim().job_id not in stolen
        assert thief.lease_of(jobs[1].job_id).worker == "thief"


def _drain_handles(handles, shards, clock, fault=None):
    """Round-robin claim → shard append → complete until every job is done;
    ``fault()`` runs once after the first completion.  A handle whose claim
    comes back empty advances the clock, so dropped leases expire."""
    for step in range(20_000):
        if all(queue.all_done() for queue in handles):
            return
        index = step % len(handles)
        queue = handles[index]
        job = queue.claim()
        if job is None:
            clock.advance(1.0)
            continue
        shards[index].append(_synthetic_outcome(job, seconds=float(index)))
        queue.complete(job.job_id)
        if fault is not None:
            fault()
            fault = None
    pytest.fail("queue did not drain within the step budget")


def _assert_merged_matches_serial(path, jobs, shards):
    """Merge ``shards`` at ``path`` and compare with a serial checkpoint."""
    merged = CheckpointStore(path, "fault-fp", 64).merge_from(*shards)
    serial = CheckpointStore(f"{path}.serial", "fault-fp", 64)
    for job in jobs:
        serial.append(_synthetic_outcome(job, seconds=99.0))
    reference = serial.load()
    assert set(merged) == set(reference)
    for job_id, expected in reference.items():
        got = merged[job_id]
        assert got.flips_by_budget == expected.flips_by_budget
        assert got.surrogate_by_budget == expected.surrogate_by_budget
        assert got.rank_shifts == expected.rank_shifts


class TestChaosQueueRecords:
    """Fault injection on the records the queue reads: a truncated chunk
    lease and a torn or truncated shard either cost a re-run that the
    merge dedupes, or nothing — the result is always the serial one."""

    @staticmethod
    def _queue(tmp_path, name, jobs):
        clock = FakeClock()
        handles, shards = _shared_queue(
            tmp_path, jobs, lease_ttl=5.0, clock=clock, name=name,
        )
        return handles, shards, clock

    def test_chaos_lease_truncated_at_every_byte_offset(self, tmp_path):
        jobs = _queue_jobs(8)
        probe, _, _ = self._queue(tmp_path, "probe", jobs)
        probe[0].claim()
        (lease_path,) = (tmp_path / "probe" / "leases").iterdir()
        size = lease_path.stat().st_size
        assert size > 100
        for offset in range(size):
            name = f"q{offset}"
            handles, shards, clock = self._queue(tmp_path, name, jobs)

            def truncate(path=tmp_path / name / "leases" / "alice.0.json"):
                with open(path, "r+b") as handle:
                    handle.truncate(offset)

            _drain_handles(handles, shards, clock, fault=truncate)
            assert handles[1].done_ids() == {job.job_id for job in jobs}
            _assert_merged_matches_serial(tmp_path / f"{name}.merged", jobs, shards)

    def test_chaos_live_shard_truncated_at_every_byte_offset(self, tmp_path):
        """Truncate alice's shard, header and first record, at every byte
        offset while both workers drain.  Bob's queue reads exactly the
        lines the merge keeps, the lost job runs again, and the merged
        result is the serial one."""
        jobs = _queue_jobs(8)
        (alice, _), (probe, _), _ = self._queue(tmp_path, "probe", jobs)
        _finish(alice, probe, alice.claim())
        size = probe.path.stat().st_size
        assert size > 300
        for offset in range(size):
            name = f"q{offset}"
            handles, shards, clock = self._queue(tmp_path, name, jobs)

            def truncate(path=shards[0].path):
                with open(path, "r+b") as handle:
                    handle.truncate(offset)

            _drain_handles(handles, shards, clock, fault=truncate)
            every = {job.job_id for job in jobs}
            assert handles[0].done_ids() == handles[1].done_ids() == every
            _assert_merged_matches_serial(tmp_path / f"{name}.merged", jobs, shards)
            reader = WorkQueue.open(tmp_path / name, worker="reader", shard=shards[1].path)
            assert reader.done_ids() == set(shards[0].load())

    def test_chaos_torn_shard_tail_reads_as_not_done_until_complete(
        self, tmp_path
    ):
        """Only newline-terminated lines count: a reader that meets an
        append in progress re-reads that record once it is whole."""
        jobs = _queue_jobs(2)
        (alice, _), (_, shard), _ = self._queue(tmp_path, "q", jobs)
        shard.append(_synthetic_outcome(jobs[0]))
        whole = shard.path.read_bytes()
        shard.path.write_bytes(whole[:-1])      # the newline not yet written
        assert alice.done_ids() == set() and alice.remaining() == 2
        shard.path.write_bytes(whole)
        assert alice.done_ids() == {jobs[0].job_id} and alice.remaining() == 1

    def test_chaos_unreadable_shard_lines_read_as_not_done(self, tmp_path):
        """The queue reads a shard through the merge's line reader: a record
        holding a byte that is not UTF-8 and parseable JSON with fields
        missing are both lines the merge skips, so both jobs read as not
        done, while the whole record after them counts."""
        jobs = _queue_jobs(3)
        (alice, _), (_, shard), _ = self._queue(tmp_path, "q", jobs)
        shard.append(_synthetic_outcome(jobs[0]))
        data = bytearray(shard.path.read_bytes())
        data[data.index(b"\n") + 5] ^= 0xFF     # inside the first record
        incomplete = json.dumps({"job": jobs[1].to_dict()})
        shard.path.write_bytes(bytes(data) + incomplete.encode() + b"\n")
        shard.append(_synthetic_outcome(jobs[2]))
        assert set(shard.load()) == {jobs[2].job_id}
        assert alice.done_ids() == {jobs[2].job_id}

    def test_chaos_torn_shard_line_reruns_the_job(
        self, graph_and_targets, tmp_path, monkeypatch, sweep_jobs,
        assert_outcomes_identical,
    ):
        """SIGKILL mid shard append: the torn line reads as "not done", the
        chunk is stolen after the TTL, the job runs again on a survivor and
        the merge skips the torn line."""
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets)
        serial = AttackCampaign(graph).run(jobs)
        real_main = scheduler_module._scheduler_worker_main

        def kamikaze_main(spec, queue_dir, shard_path, compute_ranks,
                          lease_ttl, worker_index, telemetry=None):
            if worker_index == 0:
                real_append = CheckpointStore.append

                def tear_then_die(self, outcome):
                    real_append(self, outcome)
                    with open(self.path, "r+b") as handle:  # torn mid-record
                        handle.truncate(handle.seek(0, 2) - 40)
                    os.kill(os.getpid(), signal.SIGKILL)

                CheckpointStore.append = tear_then_die
            real_main(spec, queue_dir, shard_path, compute_ranks,
                      lease_ttl, worker_index, telemetry)

        monkeypatch.setattr(scheduler_module, "_scheduler_worker_main", kamikaze_main)
        checkpoint = tmp_path / "campaign.jsonl"
        executor = SchedulingCampaignExecutor(
            graph, workers=3, checkpoint_path=checkpoint, lease_ttl=_chaos_ttl(),
        )
        result = executor.run(jobs)
        assert result.dead_workers == ("scheduler-worker-0",)
        assert result.requeues >= 1
        assert sum(stats["jobs"] for stats in result.worker_stats) == len(jobs)
        assert_outcomes_identical(serial, result)
        assert len(checkpoint.read_text().splitlines()[1:]) == len(jobs)

    @pytest.mark.parametrize("cut", [0.0, 0.5, -2])
    def test_chaos_truncated_chunk_lease_mid_run_matches_serial(
        self, graph_and_targets, tmp_path, monkeypatch, sweep_jobs,
        assert_outcomes_identical, cut,
    ):
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets)
        serial = AttackCampaign(graph).run(jobs)
        real_main = scheduler_module._scheduler_worker_main

        def truncating_main(spec, queue_dir, shard_path, compute_ranks,
                            lease_ttl, worker_index, telemetry=None):
            if worker_index == 0:
                real_claim = WorkQueue.claim

                def claim_then_truncate(self):
                    job = real_claim(self)
                    if job is not None:
                        for path in (self.queue_dir / "leases").glob(f"{self.worker}.*.json"):
                            size = path.stat().st_size
                            with open(path, "r+b") as handle:
                                handle.truncate(size + cut if cut < 0 else int(size * cut))
                        WorkQueue.claim = real_claim     # one truncation per run
                    return job

                WorkQueue.claim = claim_then_truncate
            real_main(spec, queue_dir, shard_path, compute_ranks,
                      lease_ttl, worker_index, telemetry)

        monkeypatch.setattr(scheduler_module, "_scheduler_worker_main", truncating_main)
        executor = SchedulingCampaignExecutor(
            graph, workers=2, checkpoint_path=tmp_path / "campaign.jsonl",
            lease_ttl=_chaos_ttl(),
        )
        result = executor.run(jobs)
        assert result.dead_workers == ()
        assert_outcomes_identical(serial, result)
