"""Multi-worker campaign executor: a shared lease queue with heartbeats.

The paper's experiment grids are *independent* (target × budget × λ ×
attack) jobs, and they are not uniform in cost: a λ-sweep BinarizedAttack
job runs orders of magnitude longer than a budget-2 GradMaxSearch job.
:class:`SchedulingCampaignExecutor` therefore drains a grid on N worker
processes through a **shared queue** rather than fixed per-worker slices:

* the parent captures the graph once as a picklable
  :class:`~repro.oddball.surrogate.EngineSpec` and publishes the pending
  jobs once into a :class:`WorkQueue` directory;
* each worker rebuilds one :class:`SurrogateEngine` from the spec and
  **claims** jobs.  A worker whose chunk is used up takes the queue-wide
  ``flock`` once and leases the next ⌈free / 2W⌉ jobs (guided
  self-scheduling: ``free`` jobs are neither done nor under a live lease,
  ``W`` is the worker count) in one lease file; its other claims touch no
  file.  Chunks shrink to one job at the tail;
* one :class:`LeaseHeartbeat` thread per worker renews its lease every
  ``ttl / 3``.  A worker killed mid-chunk stops renewing, its lease
  **expires** after ``ttl``, and the next claim steals the chunk's undone
  jobs at ``generation + 1`` — ``kill -9`` of any worker loses no work.  A
  job that *raises* hands its chunk back at once (:meth:`WorkQueue.release`);
* a job is done exactly when its outcome line is durable in a worker's
  shard checkpoint (:class:`~repro.attacks.campaign.CheckpointStore`
  format): the queue reads done state from the other workers' shards and
  writes no record of its own, so completing a job is one append.

The parent merges the per-worker shards into the single-file checkpoint
after the drain (and before raising, if jobs are missing — completed work
is never lost).  Because jobs are keyed by :attr:`AttackJob.job_id`, merge,
dedupe and resume are order-independent: a run interrupted mid-drain
resumes under a *different* worker count, and the result is bit-identical
to a serial :class:`AttackCampaign` run of the same grid.

Scope: the queue coordinates processes on **one host** (monotonic clocks
are comparable machine-wide, ``flock`` is a kernel lock).  Multi-host
fleets mount nothing new — the queue directory and shard checkpoints are
plain files — but need a shared filesystem with coherent rename/flock
semantics.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import sys
import tempfile
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

try:  # Unix-only stdlib module; the queue degrades to lock-free elsewhere
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

try:  # Unix-only stdlib module; absent on Windows
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None

import numpy as np

from repro import telemetry as _telemetry
from repro.attacks.campaign import (
    AttackCampaign,
    AttackJob,
    CampaignResult,
    CheckpointStore,
    JobOutcome,
    graph_fingerprint,
    validate_jobs,
)
from repro.kernels import default_kernels, set_default_kernels, validate_kernels
from repro.oddball.surrogate import EngineSpec, SurrogateEngine
from repro.utils.logging import get_logger

__all__ = [
    "DEFAULT_LEASE_TTL",
    "LEASE_TTL_ENV",
    "Lease",
    "LeaseHeartbeat",
    "SchedulingCampaignExecutor",
    "WorkQueue",
    "resolve_lease_ttl",
]

_log = get_logger("attacks.scheduler")

#: Default lease time-to-live in seconds.  Generous on purpose: a lease
#: only has to outlive the *gap between heartbeats* (ttl / 3), not the job,
#: so the cost of a large TTL is merely how long a killed worker's jobs
#: wait before being requeued.
DEFAULT_LEASE_TTL = 30.0

#: Environment override for the lease TTL (the chaos CI lane shrinks it to
#: force the expiry/requeue paths through every scheduler test).
LEASE_TTL_ENV = "REPRO_LEASE_TTL"

#: First wait, in seconds, of a worker whose claim came back empty (the
#: back-off of :func:`_scheduler_worker_drain` doubles it from there).
IDLE_WAIT_START = 0.001

_QUEUE_VERSION = 3

#: The ``backend`` values :class:`SchedulingCampaignExecutor` and
#: :func:`~repro.attacks.executor.build_campaign` accept.  Both name the
#: sparse engine, the only one a campaign builds; the keyword stays because
#: ``perfbench/`` passes it.
CAMPAIGN_BACKENDS = ("auto", "sparse")


def check_campaign_backend(backend: str) -> None:
    """Reject any ``backend`` outside :data:`CAMPAIGN_BACKENDS`."""
    if backend not in CAMPAIGN_BACKENDS:
        raise ValueError(
            f"campaigns run the sparse engine: backend must be one of "
            f"{CAMPAIGN_BACKENDS}, got {backend!r}"
        )


def resolve_lease_ttl(value: "float | None" = None) -> float:
    """The effective lease TTL: explicit value > ``$REPRO_LEASE_TTL`` > default.

    Mirrors the precedence scheme of :func:`repro.kernels.resolve_kernels`:
    an explicit argument always wins, the environment variable covers whole
    test/CI processes, and the default is used otherwise.
    """
    if value is None:
        env = os.environ.get(LEASE_TTL_ENV, "").strip()
        if env:
            try:
                value = float(env)
            except ValueError as error:
                raise ValueError(
                    f"${LEASE_TTL_ENV} must be a number of seconds, got {env!r}"
                ) from error
        else:
            value = DEFAULT_LEASE_TTL
    value = float(value)
    if not value > 0.0:
        raise ValueError(f"lease TTL must be positive, got {value}")
    return value


@dataclass(frozen=True)
class Lease:
    """One worker's claim on a chunk of jobs: the content of a lease file.

    ``deadline`` is a ``time.monotonic()`` reading — CLOCK_MONOTONIC is
    machine-wide on Linux, so every process on the host compares against
    the same clock and a wall-clock step (NTP, suspend) can never
    mass-expire live leases.  ``generation`` counts how many times the
    jobs have been (re)claimed: 0 for a first claim, +1 per steal.
    """

    job_ids: "tuple[str, ...]"
    worker: str
    deadline: float
    generation: int = 0

    def to_dict(self) -> dict:
        """JSON image of the lease (the on-disk lease-file payload)."""
        return {
            "job_ids": [str(job_id) for job_id in self.job_ids],
            "worker": str(self.worker),
            "deadline": float(self.deadline),
            "generation": int(self.generation),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Lease":
        """Rebuild a lease from :meth:`to_dict` output."""
        return cls(**{**payload, "job_ids": tuple(payload["job_ids"])})

    def expired(self, now: float) -> bool:
        """Whether the lease's deadline has passed at monotonic time ``now``."""
        return now >= self.deadline


class WorkQueue:
    """A shared-directory job queue with chunk leases, done by shard records.

    Layout::

        <queue_dir>/
            queue.json          # {"version", "jobs", "lease_ttl", "shards"}
            jobs.jsonl          # one AttackJob.to_dict() per line (queue order)
            lock                # flock target for leasing, renewing, dropping
            leases/<worker>.<k>.json  # one chunk lease

    ``shards`` lists the run's shard checkpoints, one per worker; a handle
    opened with ``shard=`` owns that one.  Everything on disk is JSON-pure
    (``Lease.to_dict`` is in the JSON round-trip test) and only
    coordinates: a job is done once its outcome line is in a shard.  A
    chunk's lease file is removed once all of its jobs are handed out and
    completed or released.  The other workers' shards are folded in
    incrementally and read only, complete lines only: the header, a torn
    line and one :meth:`CheckpointStore.read_line` rejects read as "not
    done", exactly the lines the merge skips, so their jobs run again.
    """

    def __init__(
        self,
        queue_dir: "Path | str",
        jobs: "list[AttackJob]",
        lease_ttl: float,
        worker: str = "anonymous",
        clock=time.monotonic,
        shards: "list[str]" = (),
        shard: "str | None" = None,
    ):
        self.queue_dir = Path(queue_dir)
        self.jobs = list(jobs)
        self.by_id = {job.job_id: job for job in self.jobs}
        self.lease_ttl = resolve_lease_ttl(lease_ttl)
        self.worker = str(worker)
        self.clock = clock
        #: ``W`` of the chunk rule: one shard per worker.
        self.workers = max(len(shards), 1)
        own = None if shard is None else os.fspath(shard)
        #: Done-fold read offset of each other worker's shard.
        self._offsets = {path: 0 for path in shards if path != own}
        self._known_done: "set[str]" = set()
        #: Chunk leases held, by file name; mutated only under the flock,
        #: which also serialises the heartbeat thread with the main thread.
        self._held: "dict[str, Lease]" = {}
        #: ``(job, lease name)`` of the newest chunk, not yet handed out.
        self._todo: "deque[tuple[AttackJob, str]]" = deque()
        #: Handed-out jobs not yet completed or released -> lease name.
        self._open: "dict[str, str]" = {}
        self._leased = 0
        #: Counters a worker reports in its ``.stats`` sidecar.
        self.claims = 0
        self.steals = 0
        self.heartbeats = 0
        self.lost_leases = 0
        self.completions = 0
        self.duplicate_completions = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def create(
        cls,
        queue_dir: "Path | str",
        jobs: Iterable[AttackJob],
        lease_ttl: "float | None" = None,
        shards: "Iterable[str]" = (),
    ) -> "WorkQueue":
        """Publish ``jobs`` for the workers owning ``shards``, one each.

        The job list is written atomically (temp file + rename) so a worker
        can never observe a half-written queue; the queue itself is
        ephemeral coordination state — a crashed run's directory is simply
        recreated.
        """
        queue_dir = Path(queue_dir)
        jobs = list(jobs)
        shards = [os.fspath(path) for path in shards]
        lease_ttl = resolve_lease_ttl(lease_ttl)
        (queue_dir / "leases").mkdir(parents=True, exist_ok=True)
        (queue_dir / "lock").touch()
        tmp = queue_dir / "jobs.jsonl.tmp"
        with tmp.open("w") as handle:
            for job in jobs:
                handle.write(json.dumps(job.to_dict(), sort_keys=True) + "\n")
        tmp.rename(queue_dir / "jobs.jsonl")
        manifest = {
            "version": _QUEUE_VERSION,
            "jobs": len(jobs),
            "lease_ttl": float(lease_ttl),
            "shards": shards,
        }
        tmp = queue_dir / "queue.json.tmp"
        tmp.write_text(json.dumps(manifest) + "\n")
        tmp.rename(queue_dir / "queue.json")
        _telemetry.event(
            "scheduler.publish", jobs=len(jobs), lease_ttl=float(lease_ttl)
        )
        return cls(queue_dir, jobs, lease_ttl, shards=shards)

    @classmethod
    def open(
        cls,
        queue_dir: "Path | str",
        worker: str,
        lease_ttl: "float | None" = None,
        clock=time.monotonic,
        shard: "str | None" = None,
    ) -> "WorkQueue":
        """Attach a worker, owner of shard ``shard``, to a queue directory.

        ``lease_ttl`` defaults to the TTL recorded at :meth:`create` time so
        every worker agrees on when a lease is stealable; passing a
        different value is a test-only affordance.  The handle folds every
        shard of the run but its own, whose jobs it completed itself.
        """
        queue_dir = Path(queue_dir)
        manifest = json.loads((queue_dir / "queue.json").read_text())
        if manifest.get("version") != _QUEUE_VERSION:
            raise ValueError(
                f"work queue {queue_dir} has unsupported version "
                f"{manifest.get('version')!r}"
            )
        jobs = [
            AttackJob.from_dict(json.loads(line))
            for line in (queue_dir / "jobs.jsonl").read_text().splitlines()
            if line.strip()
        ]
        if len(jobs) != manifest["jobs"]:
            raise ValueError(
                f"work queue {queue_dir} lists {len(jobs)} jobs but its "
                f"manifest promises {manifest['jobs']}"
            )
        ttl = manifest["lease_ttl"] if lease_ttl is None else lease_ttl
        return cls(queue_dir, jobs, ttl, worker, clock, manifest["shards"], shard)

    # ------------------------------------------------------------------ #
    # Locking and files
    # ------------------------------------------------------------------ #
    @contextmanager
    def _locked(self):
        """Queue-wide exclusive flock (no-op where fcntl is unavailable).

        Held across one chunk lease, renewal or drop — microseconds.  A
        killed holder releases it automatically (kernel semantics), so the
        lock can never outlive a crash.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        with open(self.queue_dir / "lock", "rb") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def _leases(self) -> "Iterable[tuple[Path, Lease | None]]":
        """Every lease file with its lease, ``None`` for a torn one.

        A torn lease covers nothing: its jobs are leasable again at once,
        which errs on the side of re-running rather than stranding.
        """
        for path in sorted((self.queue_dir / "leases").glob("*.json")):
            yield path, self._read_lease(path)

    @staticmethod
    def _read_lease(path: Path) -> "Lease | None":
        try:
            return Lease.from_dict(json.loads(path.read_text()))
        except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError):
            return None

    def _write_lease(self, name: str, lease: Lease) -> None:
        path = self.queue_dir / "leases" / name
        tmp = path.with_name(f"{name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(lease.to_dict(), sort_keys=True) + "\n")
        tmp.rename(path)
        self._held[name] = lease

    def _drop(self, name: str) -> None:
        """Remove lease file ``name`` and forget it (call under the lock)."""
        (self.queue_dir / "leases" / name).unlink(missing_ok=True)
        self._held.pop(name, None)

    def _fold_done(self) -> None:
        """Fold the complete lines the other workers' shards gained.

        Reads only, from each shard's last fold offset: a trailing line
        without its newline is left for a later fold, and a line
        :meth:`CheckpointStore.read_line` reads as no outcome (the header
        among them) counts as not done.  A shard not yet created is skipped.
        """
        for path, offset in self._offsets.items():
            try:
                with open(path, "rb") as handle:
                    handle.seek(offset)
                    tail = handle.read()
            except FileNotFoundError:
                continue
            end = tail.rfind(b"\n") + 1
            self._offsets[path] = offset + end
            for line in tail[:end].splitlines():
                outcome = CheckpointStore.read_line(line)
                if outcome is not None and outcome.job_id in self.by_id:
                    self._known_done.add(outcome.job_id)

    # ------------------------------------------------------------------ #
    # Protocol: claim / renew / complete / release
    # ------------------------------------------------------------------ #
    def claim(self) -> "AttackJob | None":
        """The next job of this handle's chunk, leasing a new chunk if needed.

        Only a used-up chunk takes the lock: the pass steals the undone
        jobs of an expired lease at ``generation + 1``, or else leases the
        next ⌈free / 2W⌉ free jobs in queue order.  ``None`` means every
        remaining job is under a live lease: claim again after a short wait.
        """
        for attempt in range(2):
            while self._todo:
                job, name = self._todo.popleft()
                if name not in self._held:  # lost: hand out no more of it
                    self._todo.clear()
                elif job.job_id not in self._known_done:
                    self._open[job.job_id] = name
                    self.claims += 1
                    _telemetry.event("scheduler.claim", job_id=job.job_id)
                    return job
            if attempt == 0:
                with self._locked():
                    self._lease_chunk()
        return None

    def _lease_chunk(self) -> None:
        """Lease one chunk into ``_todo`` (call under the lock)."""
        self._fold_done()
        now = self.clock()
        covered: "set[str]" = set()
        for path, lease in self._leases():
            undone = [] if lease is None else [
                job_id for job_id in lease.job_ids
                if job_id in self.by_id and job_id not in self._known_done
            ]
            if lease is not None and not lease.expired(now):
                covered.update(lease.job_ids)
            elif not undone:
                self._drop(path.name)
            else:  # the first expired chunk with undone jobs is stolen whole
                self._drop(path.name)
                generation, ids = lease.generation + 1, undone
                self.steals += 1
                _log.info(
                    "worker %s requeues %d jobs (lease of %s expired, "
                    "generation %d)", self.worker, len(ids), lease.worker,
                    generation,
                )
                _telemetry.event(
                    "scheduler.requeue", job_id=ids[0], jobs=len(ids),
                    lost_worker=lease.worker, generation=generation,
                )
                break
        else:
            ids = [
                job.job_id for job in self.jobs
                if job.job_id not in self._known_done and job.job_id not in covered
            ]
            if not ids:
                return
            generation, ids = 0, ids[: -(-len(ids) // (2 * self.workers))]
        name = f"{self.worker}.{self._leased}.json"
        self._leased += 1
        self._write_lease(name, Lease(tuple(ids), self.worker, now + self.lease_ttl, generation))
        self._todo.extend((self.by_id[job_id], name) for job_id in ids)
        _telemetry.count("scheduler.chunk", 1)

    def renew(self) -> bool:
        """Renew every chunk lease this handle holds; ``False`` if one was lost.

        A lease is lost when it expired and another worker stole its jobs.
        The in-flight job still finishes (the merge dedupes it), but no
        more jobs of that chunk are handed out.
        """
        kept = True
        with self._locked():
            for name in list(self._held):
                lease = self._read_lease(self.queue_dir / "leases" / name)
                if lease is None or lease.worker != self.worker:
                    self._held.pop(name, None)
                    self.lost_leases += 1
                    _telemetry.event("scheduler.lease_lost", lease=name)
                    kept = False
                else:
                    deadline = self.clock() + self.lease_ttl
                    self._write_lease(name, replace(lease, deadline=deadline))
                    self.heartbeats += 1
                    _telemetry.event("scheduler.heartbeat", lease=name)
        return kept

    def complete(self, job_id: str) -> bool:
        """Settle ``job_id``, whose outcome line this worker's shard now holds.

        Writes nothing: that shard line is the job's done record.  Returns
        ``False``, and counts a duplicate completion, when the job was done
        already as this call sees it: another worker's shard holds it, or
        this handle completed it before.  Two workers finishing one stolen
        job at almost the same time may therefore both count it, each
        seeing the other's line; the merge keeps one record either way.
        """
        self._fold_done()
        name = self._open.pop(job_id, None)
        first = job_id not in self._known_done
        self._known_done.add(job_id)
        self.duplicate_completions += not first
        self.completions += 1
        self._settle(name)
        _telemetry.event("scheduler.complete", job_id=job_id, first=first)
        return first

    def release(self, job_id: str) -> None:
        """Hand ``job_id`` back, with the jobs of its chunk not yet handed out."""
        name = self._open.pop(job_id, None)
        if self._todo and self._todo[0][1] == name:
            self._todo.clear()
        self._settle(name)
        _telemetry.event("scheduler.release", job_id=job_id)

    def _settle(self, name: "str | None") -> None:
        """Drop lease ``name`` once none of its jobs is handed out or waiting."""
        waiting = bool(self._todo) and self._todo[0][1] == name
        if name in self._held and name not in self._open.values() and not waiting:
            with self._locked():
                self._drop(name)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def poll_interval(self) -> float:
        """The longest an idle worker waits between claim passes.

        The cap of the worker loop's back-off: a dead peer's lease is
        stolen at most this long after it expires.
        """
        return min(max(self.lease_ttl / 10.0, 0.01), 0.25)

    def lease_of(self, job_id: str) -> "Lease | None":
        """The lease whose chunk lists ``job_id`` (``None`` if unleased)."""
        with self._locked():
            return next(
                (lease for _, lease in self._leases()
                 if lease is not None and job_id in lease.job_ids),
                None,
            )

    def done_ids(self) -> "set[str]":
        """Job ids the other shards (and this handle's completions) record."""
        self._fold_done()
        return set(self._known_done)

    def all_done(self) -> bool:
        """Whether every job in the queue is recorded done."""
        return len(self.done_ids()) >= len(self.jobs)

    def remaining(self) -> int:
        """Jobs not recorded done (leased in-flight jobs included)."""
        return len(self.jobs) - len(self.done_ids())

    def stats(self) -> dict:
        """This worker's protocol counters (JSON-pure)."""
        return {
            "claims": int(self.claims),
            "steals": int(self.steals),
            "heartbeats": int(self.heartbeats),
            "lost_leases": int(self.lost_leases),
            "completions": int(self.completions),
            "duplicate_completions": int(self.duplicate_completions),
        }


class LeaseHeartbeat:
    """Background thread renewing a worker's chunk leases while it drains.

    One per worker, around the whole drain: every ``ttl / 3`` (so two
    renewals can fail before a lease is stealable) it renews the chunk
    leases the handle holds.  A lost lease sets :attr:`lost`.
    """

    def __init__(self, queue: WorkQueue, interval: "float | None" = None):
        self.queue = queue
        self.interval = (
            queue.lease_ttl / 3.0 if interval is None else float(interval)
        )
        self.lost = False
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.lost |= not self.queue.renew()
            except OSError:  # pragma: no cover - transient fs failure
                # A failed renewal is survivable until the TTL runs out;
                # the next tick retries.
                continue

    def __enter__(self) -> "LeaseHeartbeat":
        """Start renewing in a daemon thread."""
        self._thread = threading.Thread(
            target=self._run, name=f"lease-heartbeat-{self.queue.worker}",
            daemon=True,
        )
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        """Stop the renewal thread (joins; held leases stay with the worker)."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()


def _max_rss_kb() -> int:
    """This process's peak RSS in KiB (0 on platforms without getrusage).

    ``ru_maxrss`` is KiB on Linux but *bytes* on macOS — normalised here so
    every ``.stats`` sidecar speaks the same unit.
    """
    if resource is None:
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(peak // 1024) if sys.platform == "darwin" else int(peak)


def _scheduler_worker_main(
    spec: EngineSpec,
    queue_dir: str,
    shard_path: str,
    compute_ranks: bool,
    lease_ttl: float,
    worker_index: int,
    telemetry: "dict | None" = None,
) -> None:
    """Entry point of one worker process: drain the shared queue.

    Runs in the child.  ``telemetry`` is a :func:`repro.telemetry.worker_spec`
    payload (or ``None``): the first thing the worker does is open its OWN
    per-worker sink (or disable the fork-inherited tracer), so parent and
    child never write one file and the merged trace stays one tree.
    """
    _telemetry.worker_configure(telemetry)
    # The spec is the one kernels carrier across the process boundary: a
    # spawned child never sees the parent's set_default_kernels override.
    set_default_kernels(spec.kernels)
    try:
        with _telemetry.span("worker.run"):
            _scheduler_worker_drain(
                spec, queue_dir, shard_path, compute_ranks, lease_ttl,
                worker_index,
            )
    finally:
        _telemetry.shutdown()


def _scheduler_worker_drain(
    spec: EngineSpec,
    queue_dir: str,
    shard_path: str,
    compute_ranks: bool,
    lease_ttl: float,
    worker_index: int,
) -> None:
    """The claim/run/complete loop of :func:`_scheduler_worker_main`.

    One engine is built lazily on the first claim (``EngineSpec`` →
    :meth:`SurrogateEngine.from_spec`), then every claimed job runs through
    :meth:`AttackCampaign.run_job`, while one :class:`LeaseHeartbeat` thread
    renews the worker's chunk lease for the whole drain.  A finished job
    costs one durable write, its outcome line in ``shard_path``: that line
    is what marks it done for the other workers, so a worker killed right
    after the append has lost nothing.  A job that raises releases it and
    the rest of its chunk before the error propagates, so the surviving
    workers see them at once instead of after the TTL.

    A claim that comes back empty while jobs remain waits before the next
    one: :data:`IDLE_WAIT_START` first, doubling per empty claim up to
    :attr:`WorkQueue.poll_interval`, reset by a successful claim.  Each
    wait is counted as ``scheduler.idle_wait`` (its length as the ns).

    Building the engine and campaign is traced as ``worker.setup``.  A
    ``<shard>.stats`` sidecar records the worker's CPU and wall seconds,
    peak RSS and queue counters; the parent collects these into
    :attr:`SchedulingCampaignExecutor.last_worker_stats`.
    """
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    queue = WorkQueue.open(
        queue_dir, worker=f"worker-{worker_index}-pid{os.getpid()}",
        lease_ttl=lease_ttl, shard=shard_path,
    )
    campaign: "AttackCampaign | None" = None
    shard_store = None
    jobs_done = 0
    idle_wait = IDLE_WAIT_START
    with LeaseHeartbeat(queue):
        while True:
            job = queue.claim()
            if job is None:
                if queue.all_done():
                    break
                _telemetry.count("scheduler.idle_wait", 1, round(idle_wait * 1e9))
                time.sleep(idle_wait)
                idle_wait = min(2.0 * idle_wait, queue.poll_interval)
                continue
            idle_wait = IDLE_WAIT_START
            try:
                if campaign is None:
                    with _telemetry.span("worker.setup"):
                        # No candidate pairs yet: every job retargets with
                        # its own, and ``None`` would materialise all
                        # n(n−1)/2 pairs — 50M at n = 10 000.
                        empty = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
                        # Validated and named by the parent: the engine and
                        # the campaign share it, and neither re-validates it
                        # nor re-hashes it for the shard header.
                        graph = spec.to_graph()
                        engine = SurrogateEngine.from_spec(
                            spec, job.targets, candidates=empty, graph=graph
                        )
                        campaign = AttackCampaign(
                            graph, checkpoint_path=shard_path,
                            compute_ranks=compute_ranks, engine=engine,
                        )
                        shard_store = campaign.checkpoint_store()
                outcome = campaign.run_job(job)
            except BaseException:
                queue.release(job.job_id)  # hand it back now, not after a TTL
                raise
            assert shard_store is not None
            shard_store.append(outcome)  # the job's one durable record
            queue.complete(job.job_id)
            jobs_done += 1
    stats = {
        "jobs": jobs_done,
        "cpu_seconds": time.process_time() - cpu_start,
        "wall_seconds": time.perf_counter() - wall_start,
        # Peak resident set in KiB.  With the fork start method this
        # includes pages inherited copy-on-write from the parent, so it is
        # an honest "what this process kept mapped" number, not a
        # private-bytes number.  0 where getrusage is unavailable.
        "max_rss_kb": _max_rss_kb(),
        **queue.stats(),
    }
    Path(shard_path + ".stats").write_text(json.dumps(stats) + "\n")


class SchedulingCampaignExecutor:
    """Drain a campaign's job grid across N worker processes.

    Workers lease chunks of jobs that shrink to one job at the tail from a
    shared :class:`WorkQueue`, so a cost-skewed grid (λ-sweep Binarized
    next to cheap GradMax jobs) keeps every worker busy until the queue is
    dry.  A worker killed mid-chunk (``kill -9`` included) stops
    heartbeating, its lease expires after ``lease_ttl`` seconds and a
    surviving worker requeues the chunk's undone jobs.  The run
    *succeeds* as long as every job completes — dead workers are reported
    in :attr:`CampaignResult.dead_workers` rather than failing a run whose
    work was recovered.  Results are bit-identical to a serial
    :class:`AttackCampaign` and the two resume each other's checkpoints.

    Parameters
    ----------
    graph:
        :class:`~repro.graph.graph.Graph`, dense adjacency array, scipy
        sparse matrix — the same inputs :class:`AttackCampaign` takes — or
        a :class:`~repro.store.GraphStore`: workers then receive a
        ``store``-kind spec (a path, not arrays) and memory-map one shared
        on-disk graph instead of each holding a CSR copy (sparse-only).
    workers:
        Worker process count (never more than the pending jobs).
    backend:
        ``"auto"`` or ``"sparse"`` (see :data:`CAMPAIGN_BACKENDS`); both
        mean the sparse engine every worker rebuilds from its
        :class:`EngineSpec`.  Anything else raises ``ValueError``.
    kernels:
        Hot-loop kernel backend (``"auto"``/``"numpy"``/``"compiled"``,
        see :mod:`repro.kernels`) for the workers.  ``"auto"`` ships the
        parent's process default (:func:`~repro.kernels.default_kernels`).
        Each worker applies the shipped value as its own process default
        before it builds its engine, so ``fork`` and ``spawn`` workers
        resolve alike; ``"auto"`` resolves against the worker's host, while
        an explicit ``"compiled"`` is enforced on every worker.
    checkpoint_path:
        Optional JSONL checkpoint (same single-file format as the serial
        campaign — the two are interchangeable run-over-run).  Worker
        shards live next to it as ``<name>.shard<k>`` and are merged in
        after every run; leftover shards from a killed run are merged
        *before* the queue is published, which is what makes resume
        independent of the original worker count.  Without a checkpoint
        path, shards live in a temporary directory and only the in-memory
        result survives.
    compute_ranks:
        Forwarded to every worker's campaign (per-target rank shifts).
    lease_ttl:
        Seconds a lease survives without a heartbeat renewal
        (``None`` → ``$REPRO_LEASE_TTL`` → 30).  Heartbeats fire every
        ``ttl / 3``, so the TTL bounds *requeue latency after a crash*,
        not job duration — long jobs are safe at any TTL.
    telemetry:
        Optional trace directory for the :mod:`repro.telemetry` layer.
        The parent configures its tracer here (spec capture, drain and
        merge become spans) and each worker opens its own per-worker sink
        keyed by worker id, parented to the drain span — so the merged
        trace directory reads as ONE tree.  ``None`` defers to
        ``$REPRO_TELEMETRY``/earlier configuration; results are
        bit-identical with telemetry on or off.

    Workers start with ``fork`` where available (they inherit loaded
    modules — no per-worker interpreter/import cost) and ``spawn``
    elsewhere.

    Example
    -------
    >>> from repro.graph import erdos_renyi
    >>> from repro.attacks import grid_jobs
    >>> graph = erdos_renyi(60, 0.1, rng=0)
    >>> jobs = grid_jobs("gradmaxsearch", [[1], [2], [3]], budgets=[2],
    ...                  candidates="target_incident")
    >>> result = SchedulingCampaignExecutor(graph, workers=2).run(jobs)
    >>> len(result) == 3
    True
    """

    def __init__(
        self,
        graph,
        *,
        workers: int = 2,
        backend: str = "auto",
        kernels: str = "auto",
        checkpoint_path=None,
        compute_ranks: bool = True,
        lease_ttl: "float | None" = None,
        telemetry: "str | None" = None,
    ):
        check_campaign_backend(backend)
        if telemetry is not None:
            _telemetry.configure(telemetry)
        self.kernels = validate_kernels(kernels)
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        # The graph is validated and content-hashed once, here; workers
        # trust the spec.  A GraphStore ships a ``store``-kind spec (a path,
        # not arrays): workers memory-map the one on-disk graph instead of
        # each holding an unpickled CSR copy.
        from repro.store import GraphStore

        store = isinstance(graph, GraphStore)
        with _telemetry.span("executor.spec", store=store):
            if store:
                self._spec = EngineSpec.from_store(graph)
                csr = graph.csr()
            else:
                self._spec = EngineSpec.from_graph(graph)
                csr = self._spec.to_graph()
        self.n = int(csr.shape[0])
        self.workers = int(workers)
        self.checkpoint_path = (
            None if checkpoint_path is None else Path(checkpoint_path)
        )
        self.compute_ranks = compute_ranks
        self.lease_ttl = resolve_lease_ttl(lease_ttl)
        self._mp = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        self._fingerprint = graph_fingerprint(csr)  # O(1): csr is named
        #: per-worker ``.stats`` dicts (``jobs``, ``cpu_seconds``,
        #: ``wall_seconds``, ``max_rss_kb`` and the queue counters) from the
        #: most recent :meth:`run` (empty if every job was resumed).  CPU
        #: seconds are contention-free, so they remain the honest per-worker
        #: cost signal even when workers outnumber cores.
        self.last_worker_stats: "list[dict]" = []

    # ------------------------------------------------------------------ #
    # Orchestration
    # ------------------------------------------------------------------ #
    def run(self, jobs: Iterable[AttackJob]) -> CampaignResult:
        """Execute the grid across workers; ordered, serial-identical result."""
        jobs = validate_jobs(jobs, self.n)
        if self.checkpoint_path is not None:
            completed = self._merge(self.checkpoint_path.parent)
            return self._execute(jobs, completed, self.checkpoint_path.parent)
        with tempfile.TemporaryDirectory(prefix="campaign-shards-") as scratch:
            return self._execute(jobs, {}, Path(scratch))

    def _execute(
        self,
        jobs: "list[AttackJob]",
        completed: "dict[str, JobOutcome]",
        shard_dir: Path,
    ) -> CampaignResult:
        resumed = sum(1 for job in jobs if job.job_id in completed)
        if resumed:
            _log.info(
                "resuming campaign: %d/%d jobs checkpointed",
                resumed, len(jobs),
            )
        start = time.perf_counter()
        pending = [job for job in jobs if job.job_id not in completed]
        self.last_worker_stats = []
        dead_workers: "list[str]" = []
        if pending:
            count = min(self.workers, len(pending))
            queue_dir = self._queue_dir(shard_dir)
            with _telemetry.span(
                "executor.run", workers=count, jobs=len(jobs), resumed=resumed,
            ):
                dead_workers = self._drain_queue(
                    pending, count, shard_dir, queue_dir
                )
            self.last_worker_stats = self._collect_stats(shard_dir, count)
            with _telemetry.span("executor.merge", shards=count):
                completed.update(self._merge(shard_dir))
            missing = [job for job in pending if job.job_id not in completed]
            if missing:
                dead = (
                    f" (dead workers: {dead_workers})" if dead_workers else ""
                )
                raise RuntimeError(
                    f"campaign finished with {len(missing)} jobs unaccounted "
                    f"for{dead}, first missing: {missing[0].to_dict()!r}; "
                    "completed jobs "
                    + (
                        "were checkpointed and a rerun will resume from them"
                        if self.checkpoint_path is not None
                        else "were discarded with the run — set a "
                             "checkpoint_path to make failed runs resumable"
                    )
                )
            if dead_workers:
                _log.warning(
                    "worker(s) %s died mid-lease; their jobs were requeued "
                    "and completed by the surviving workers", dead_workers,
                )
            shutil.rmtree(queue_dir, ignore_errors=True)
        return CampaignResult(
            outcomes=[completed[job.job_id] for job in jobs],
            n=self.n,
            seconds=time.perf_counter() - start,
            resumed_jobs=resumed,
            worker_stats=list(self.last_worker_stats),
            dead_workers=tuple(dead_workers),
            requeues=sum(
                int(stats.get("steals", 0)) for stats in self.last_worker_stats
            ),
        )

    def _drain_queue(
        self,
        pending: "list[AttackJob]",
        count: int,
        shard_dir: Path,
        queue_dir: Path,
    ) -> "list[str]":
        """Publish the queue, spawn ``count`` workers, join them.

        Returns the names of the workers that exited abnormally.  That does
        NOT raise here — the queue's whole point is that survivors requeue
        its jobs; :meth:`_execute` only fails if jobs are actually missing
        afterwards.
        """
        shard_dir.mkdir(parents=True, exist_ok=True)
        kernels = default_kernels() if self.kernels == "auto" else self.kernels
        spec = self._spec._replace(kernels=kernels)
        # The queue is ephemeral coordination state: durable truth lives in
        # the shard checkpoints (a previous, crashed run's leftovers were
        # merged before this), so an old queue is simply replaced.
        if queue_dir.exists():
            shutil.rmtree(queue_dir)
        shards = [str(self._shard_path(shard_dir, index)) for index in range(count)]
        WorkQueue.create(queue_dir, pending, lease_ttl=self.lease_ttl, shards=shards)
        processes = []
        with _telemetry.span("executor.drain", workers=count):
            for index in range(count):
                args = (
                    spec,
                    str(queue_dir),
                    shards[index],
                    self.compute_ranks,
                    self.lease_ttl,
                    index,
                )
                # Only extend the args tuple when tracing, so the worker
                # entry point keeps its historical positional signature
                # (chaos tests monkeypatch it) on untraced runs.
                tspec = _telemetry.worker_spec(f"worker-{index}")
                if tspec is not None:
                    args += (tspec,)
                process = self._mp.Process(
                    target=_scheduler_worker_main,
                    args=args,
                    name=f"scheduler-worker-{index}",
                )
                process.start()
                processes.append(process)
            try:
                for process in processes:
                    process.join()
            except BaseException:
                # Parent interrupted: stop the workers; whatever they
                # checkpointed stays on disk for the next resume.
                for process in processes:
                    if process.is_alive():
                        process.terminate()
                for process in processes:
                    process.join()
                raise
        return [p.name for p in processes if p.exitcode != 0]

    # ------------------------------------------------------------------ #
    # Shard bookkeeping
    # ------------------------------------------------------------------ #
    def _stem(self) -> str:
        return (
            self.checkpoint_path.name
            if self.checkpoint_path is not None
            else "campaign"
        )

    def _queue_dir(self, shard_dir: Path) -> Path:
        return shard_dir / f"{self._stem()}.queue"

    def _shard_path(self, shard_dir: Path, index: int) -> Path:
        return shard_dir / f"{self._stem()}.shard{index}"

    def _store(self, path: Path) -> CheckpointStore:
        return CheckpointStore(path, self._fingerprint, self.n)

    def _collect_stats(self, shard_dir: Path, count: int) -> "list[dict]":
        """Read (and remove) the per-worker ``.stats`` sidecars of this run."""
        stats = []
        for index in range(count):
            path = Path(str(self._shard_path(shard_dir, index)) + ".stats")
            if not path.exists():
                continue
            try:
                payload = json.loads(path.read_text())
            except json.JSONDecodeError:
                payload = {}
            payload["worker"] = index
            stats.append(payload)
            path.unlink()
        return stats

    def _merge(self, shard_dir: Path) -> "dict[str, JobOutcome]":
        """Fold ``shard_dir``'s shard files into the main checkpoint, load it.

        Called before publishing the queue (folding in a killed run's
        leftovers — the step that makes resume worker-count-independent)
        and after every drain.  Merged shards and stale ``.stats`` files are
        deleted; merging is idempotent because outcomes are keyed by
        content-hashed job id.  Without a checkpoint path, the main file
        lives in the run's temporary directory.
        """
        # Literal prefix match, NOT a glob: a checkpoint named e.g.
        # "fig4[ci].json" would turn glob metacharacters into a character
        # class and silently miss every shard.
        prefix = f"{self._stem()}.shard"
        names = sorted(os.listdir(shard_dir)) if shard_dir.exists() else []
        shards = [shard_dir / name for name in names if name.startswith(prefix)]
        outcomes = self._store(shard_dir / self._stem()).merge_from(
            *(self._store(path) for path in shards if path.suffix != ".stats")
        )
        for path in shards:
            path.unlink()
        return outcomes
