"""Multi-worker campaign executor: a shared lease queue with heartbeats.

The paper's experiment grids are *independent* (target × budget × λ ×
attack) jobs, and they are not uniform in cost: a λ-sweep BinarizedAttack
job runs orders of magnitude longer than a budget-2 GradMaxSearch job.
:class:`SchedulingCampaignExecutor` therefore drains a grid on N worker
processes through a **shared queue** rather than fixed per-worker slices:

* the parent captures the graph once as a picklable
  :class:`~repro.oddball.surrogate.EngineSpec` and publishes the pending
  jobs once into a :class:`WorkQueue` directory (``jobs.jsonl`` + a
  ``leases/`` and ``done/`` marker tree);
* each worker rebuilds one :class:`SurrogateEngine` from the spec, then
  repeatedly **claims** the first job that is neither done nor covered by
  a live lease.  A claim atomically writes a JSON lease file
  (content-hashed job id, worker id, monotonic deadline) under a
  queue-wide ``flock`` — the only coordination primitive, held for
  microseconds;
* while a job runs, a background :class:`LeaseHeartbeat` thread renews the
  lease every ``ttl / 3``, so a *live* slow worker never loses its claim;
* a worker killed mid-job stops heartbeating, its lease **expires** after
  ``ttl``, and the next idle worker's claim pass requeues (steals) the job
  — ``kill -9`` of any worker loses no work.  A job that *raises* hands
  its lease back at once (:meth:`WorkQueue.release`), so the failure
  surfaces without waiting out the TTL;
* completion is two durable steps in a fixed order: append the outcome to
  the worker's JSONL shard checkpoint (the standard
  :class:`~repro.attacks.campaign.CheckpointStore` format), *then* write the
  ``done/`` marker.  A crash between the two requeues an already-recorded
  job, which is why checkpoint merging dedupes by job content hash — the
  merged checkpoint keeps exactly one record either way.

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
from contextlib import contextmanager
from dataclasses import dataclass
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
    _normalize_graph,
    graph_fingerprint,
    validate_jobs,
)
from repro.kernels import validate_kernels
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

_QUEUE_VERSION = 1

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
    """One worker's claim on one job: the content of a lease file.

    ``deadline`` and ``claimed_at`` are ``time.monotonic()`` readings —
    CLOCK_MONOTONIC is machine-wide on Linux, so every process on the host
    compares against the same clock and a wall-clock step (NTP, suspend)
    can never mass-expire live leases.  ``generation`` counts how many
    times the job has been (re)claimed: 0 for a first claim, +1 per steal.
    """

    job_id: str
    worker: str
    deadline: float
    claimed_at: float
    generation: int = 0

    def to_dict(self) -> dict:
        """JSON image of the lease (the on-disk lease-file payload)."""
        return {
            "job_id": str(self.job_id),
            "worker": str(self.worker),
            "deadline": float(self.deadline),
            "claimed_at": float(self.claimed_at),
            "generation": int(self.generation),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Lease":
        """Rebuild a lease from :meth:`to_dict` output."""
        return cls(
            job_id=str(payload["job_id"]),
            worker=str(payload["worker"]),
            deadline=float(payload["deadline"]),
            claimed_at=float(payload["claimed_at"]),
            generation=int(payload.get("generation", 0)),
        )

    def expired(self, now: float) -> bool:
        """Whether the lease's deadline has passed at monotonic time ``now``."""
        return now >= self.deadline


class WorkQueue:
    """A shared-directory job queue with lease files and done markers.

    Layout::

        <queue_dir>/
            queue.json          # {"version", "jobs", "lease_ttl"}
            jobs.jsonl          # one AttackJob.to_dict() per line (queue order)
            lock                # flock target for claim/renew/complete
            leases/<job_id>.json
            done/<job_id>.json  # {"job_id", "worker", "generation"}

    Everything on disk is JSON-pure (enforced by the
    ``checkpoint-json-purity`` lint scope on this module): the queue can be
    inspected with ``cat`` mid-run and survives any crash — durable truth
    lives in the shard checkpoints, the queue only coordinates.

    The claim scan is deterministic (queue order): workers take jobs in
    the order the grid lists them, one at a time; jobs a worker has seen
    completed are cached, making repeated claims O(pending) rather than
    O(total).  All lease mutations happen under one queue-wide ``flock``
    held for the duration of a single scan/write — the kernel releases it
    automatically if the holder is killed, so a ``kill -9`` can never
    wedge the queue.
    """

    def __init__(
        self,
        queue_dir: "Path | str",
        jobs: "list[AttackJob]",
        lease_ttl: float,
        worker: str = "anonymous",
        clock=time.monotonic,
    ):
        self.queue_dir = Path(queue_dir)
        self.jobs = list(jobs)
        self.by_id = {job.job_id: job for job in self.jobs}
        self.lease_ttl = resolve_lease_ttl(lease_ttl)
        self.worker = str(worker)
        self.clock = clock
        self._known_done: "set[str]" = set()
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
    ) -> "WorkQueue":
        """Publish ``jobs`` into a fresh queue directory (parent-side).

        The job list is written atomically (temp file + rename) so a worker
        can never observe a half-written queue; the queue itself is
        ephemeral coordination state — a crashed run's directory is simply
        recreated, because completed work lives in the shard checkpoints,
        not here.
        """
        queue_dir = Path(queue_dir)
        jobs = list(jobs)
        lease_ttl = resolve_lease_ttl(lease_ttl)
        (queue_dir / "leases").mkdir(parents=True, exist_ok=True)
        (queue_dir / "done").mkdir(parents=True, exist_ok=True)
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
        }
        tmp = queue_dir / "queue.json.tmp"
        tmp.write_text(json.dumps(manifest) + "\n")
        tmp.rename(queue_dir / "queue.json")
        _telemetry.event(
            "scheduler.publish", jobs=len(jobs), lease_ttl=float(lease_ttl)
        )
        return cls(queue_dir, jobs, lease_ttl)

    @classmethod
    def open(
        cls,
        queue_dir: "Path | str",
        worker: str,
        lease_ttl: "float | None" = None,
        clock=time.monotonic,
    ) -> "WorkQueue":
        """Attach a worker to an existing queue directory.

        ``lease_ttl`` defaults to the TTL recorded at :meth:`create` time so
        every worker agrees on when a lease is stealable; passing a
        different value is a test-only affordance.
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
        return cls(queue_dir, jobs, ttl, worker=worker, clock=clock)

    # ------------------------------------------------------------------ #
    # Locking
    # ------------------------------------------------------------------ #
    @contextmanager
    def _locked(self):
        """Queue-wide exclusive flock (no-op where fcntl is unavailable).

        Held only across one claim scan or one lease write — microseconds.
        A killed holder releases it automatically (kernel semantics), so
        the lock can never outlive a crash.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        with (self.queue_dir / "lock").open("a") as handle:
            fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #
    def _lease_path(self, job_id: str) -> Path:
        return self.queue_dir / "leases" / f"{job_id}.json"

    def _done_path(self, job_id: str) -> Path:
        return self.queue_dir / "done" / f"{job_id}.json"

    def _read_lease(self, job_id: str) -> "Lease | None":
        path = self._lease_path(job_id)
        try:
            return Lease.from_dict(json.loads(path.read_text()))
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            # A torn lease file (its writer was killed mid-rename-window) is
            # treated as expired: the job is immediately stealable, which
            # errs on the side of re-running rather than stranding.
            return None

    def _write_lease(self, lease: Lease) -> None:
        path = self._lease_path(lease.job_id)
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(lease.to_dict(), sort_keys=True) + "\n")
        tmp.rename(path)

    # ------------------------------------------------------------------ #
    # Protocol: claim / heartbeat / complete / release
    # ------------------------------------------------------------------ #
    def claim(self) -> "AttackJob | None":
        """Claim the first job that is neither done nor under a live lease.

        Expired leases are requeued in the same pass: the claim overwrites
        the stale lease with a fresh one at ``generation + 1`` (a *steal*).
        Returns ``None`` when every remaining job is either done or held by
        a live lease — the caller should poll again after
        :attr:`poll_interval` (the holder may complete it, or die and let
        the lease expire).
        """
        with self._locked():
            now = self.clock()
            for job in self.jobs:
                job_id = job.job_id
                if job_id in self._known_done:
                    continue
                if self._done_path(job_id).exists():
                    self._known_done.add(job_id)
                    continue
                lease = self._read_lease(job_id)
                generation = 0
                if lease is not None:
                    if not lease.expired(now):
                        continue
                    generation = lease.generation + 1
                    self.steals += 1
                    _log.info(
                        "worker %s requeues job %s (lease of %s expired, "
                        "generation %d)",
                        self.worker, job_id, lease.worker, generation,
                    )
                    _telemetry.event(
                        "scheduler.requeue",
                        job_id=job_id,
                        lost_worker=lease.worker,
                        generation=generation,
                    )
                self._write_lease(
                    Lease(
                        job_id=job_id,
                        worker=self.worker,
                        deadline=now + self.lease_ttl,
                        claimed_at=now,
                        generation=generation,
                    )
                )
                self.claims += 1
                _telemetry.event(
                    "scheduler.claim", job_id=job_id, generation=generation
                )
                return job
        return None

    def heartbeat(self, job_id: str) -> bool:
        """Renew this worker's lease on ``job_id``; ``False`` if it was lost.

        A lease is lost when it expired and another worker stole it (or the
        job is already done).  The caller keeps running the in-flight job
        either way — results are deterministic and the merge dedupes by job
        content hash, so finishing is cheaper than abandoning mid-attack —
        but a lost lease is counted so the stats surface it.
        """
        with self._locked():
            lease = self._read_lease(job_id)
            if lease is None or lease.worker != self.worker:
                self.lost_leases += 1
                _telemetry.event("scheduler.lease_lost", job_id=job_id)
                return False
            now = self.clock()
            self._write_lease(
                Lease(
                    job_id=job_id,
                    worker=self.worker,
                    deadline=now + self.lease_ttl,
                    claimed_at=lease.claimed_at,
                    generation=lease.generation,
                )
            )
            self.heartbeats += 1
            _telemetry.event("scheduler.heartbeat", job_id=job_id)
            return True

    def complete(self, job_id: str) -> bool:
        """Mark ``job_id`` done and drop this worker's lease.

        Must be called *after* the outcome is durable in the worker's shard
        checkpoint — the marker is the queue's signal to stop handing the
        job out, the shard is the record.  Returns ``False`` when another
        worker already completed it (the slow-but-alive double-completion
        case); the duplicate shard record is deduped at merge time.
        """
        with self._locked():
            lease = self._read_lease(job_id)
            generation = lease.generation if lease is not None else 0
            first = True
            try:
                fd = os.open(
                    self._done_path(job_id),
                    os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                )
            except FileExistsError:
                first = False
                self.duplicate_completions += 1
            else:
                with os.fdopen(fd, "w") as handle:
                    handle.write(
                        json.dumps(
                            {
                                "job_id": str(job_id),
                                "worker": str(self.worker),
                                "generation": int(generation),
                            },
                            sort_keys=True,
                        )
                        + "\n"
                    )
            if lease is not None and lease.worker == self.worker:
                self._lease_path(job_id).unlink(missing_ok=True)
            self._known_done.add(job_id)
            self.completions += 1
            _telemetry.event("scheduler.complete", job_id=job_id, first=first)
            return first

    def release(self, job_id: str) -> None:
        """Drop this worker's lease without completing (graceful give-back)."""
        with self._locked():
            lease = self._read_lease(job_id)
            if lease is not None and lease.worker == self.worker:
                self._lease_path(job_id).unlink(missing_ok=True)
                _telemetry.event("scheduler.release", job_id=job_id)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def poll_interval(self) -> float:
        """How long an idle worker sleeps between claim passes."""
        return min(max(self.lease_ttl / 10.0, 0.01), 0.25)

    def lease_of(self, job_id: str) -> "Lease | None":
        """The current lease on ``job_id`` (``None`` if unleased)."""
        with self._locked():
            return self._read_lease(job_id)

    def done_ids(self) -> "set[str]":
        """Job ids with a done marker (one listdir; no lock needed)."""
        return {
            name[: -len(".json")] if name.endswith(".json") else name
            for name in os.listdir(self.queue_dir / "done")
        }

    def all_done(self) -> bool:
        """Whether every job in the queue has a done marker."""
        return len(os.listdir(self.queue_dir / "done")) >= len(self.jobs)

    def remaining(self) -> int:
        """Jobs without a done marker (leased in-flight jobs included)."""
        return len(self.jobs) - len(os.listdir(self.queue_dir / "done"))

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
    """Background thread renewing one lease while its job runs.

    Renews every ``ttl / 3`` (so two renewals can fail before the lease is
    stealable).  Used as a context manager around the job execution; if a
    renewal reports the lease lost, renewing stops (:attr:`lost` is set)
    but the job is allowed to finish — see :meth:`WorkQueue.heartbeat`.
    """

    def __init__(self, queue: WorkQueue, job_id: str, interval: "float | None" = None):
        self.queue = queue
        self.job_id = job_id
        self.interval = (
            queue.lease_ttl / 3.0 if interval is None else float(interval)
        )
        self.lost = False
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                if not self.queue.heartbeat(self.job_id):
                    self.lost = True
                    _log.warning(
                        "worker %s lost its lease on job %s mid-run; "
                        "finishing anyway (merge dedupes by job id)",
                        self.queue.worker, self.job_id,
                    )
                    return
            except OSError:  # pragma: no cover - transient fs failure
                # A failed renewal is survivable until the TTL runs out;
                # the next tick retries.
                continue

    def __enter__(self) -> "LeaseHeartbeat":
        """Start renewing in a daemon thread."""
        self._thread = threading.Thread(
            target=self._run, name=f"lease-heartbeat-{self.job_id}", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        """Stop the renewal thread (joins; the lease stays with the worker)."""
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
    :meth:`AttackCampaign.run_job` under a lease heartbeat.  The durability
    order is fixed: shard append **then** done marker — a crash between
    the two requeues a job whose record already exists, and the merge
    dedupes by job content hash.  A job that raises releases its lease
    before the error propagates, so the surviving workers see it at once
    instead of after the TTL.

    A ``<shard>.stats`` sidecar records the worker's CPU and wall seconds,
    peak RSS and queue counters; the parent collects these into
    :attr:`SchedulingCampaignExecutor.last_worker_stats`.
    """
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    queue = WorkQueue.open(
        queue_dir, worker=f"worker-{worker_index}-pid{os.getpid()}",
        lease_ttl=lease_ttl,
    )
    campaign: "AttackCampaign | None" = None
    shard_store = None
    jobs_done = 0
    while True:
        job = queue.claim()
        if job is None:
            if queue.all_done():
                break
            time.sleep(queue.poll_interval)
            continue
        try:
            if campaign is None:
                # Empty candidate set, exactly like AttackCampaign's lazy
                # construction: every job retargets with its own pairs, and
                # ``None`` would materialise all n(n−1)/2 upper-triangle
                # pairs — 50M entries at n = 10 000.
                empty = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
                graph = spec.to_graph()  # materialised once: engine + campaign share it
                engine = SurrogateEngine.from_spec(
                    spec, job.targets, candidates=empty, graph=graph
                )
                campaign = AttackCampaign(
                    graph,
                    # The spec carries the REQUESTED kernels flag (possibly
                    # "auto"); the engine build above resolved it against
                    # THIS host, and the campaign default keeps per-job
                    # attack params consistent with it.
                    kernels=spec.kernels,
                    checkpoint_path=shard_path,
                    compute_ranks=compute_ranks,
                    engine=engine,
                )
                shard_store = campaign.checkpoint_store()
            with LeaseHeartbeat(queue, job.job_id):
                outcome = campaign.run_job(job)
        except BaseException:
            queue.release(job.job_id)  # hand it back now, not after a TTL
            raise
        assert shard_store is not None
        shard_store.append(outcome)  # durable BEFORE the done marker
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

    Workers claim jobs one at a time from a shared :class:`WorkQueue`, so a
    cost-skewed grid (λ-sweep Binarized next to cheap GradMax jobs) keeps
    every worker busy until the queue is dry.  A worker killed mid-job
    (``kill -9`` included) stops heartbeating, its lease expires after
    ``lease_ttl`` seconds and a surviving worker requeues the job.  The run
    *succeeds* as long as every job completes — dead workers are reported
    in :attr:`last_dead_workers` rather than failing a run whose work was
    recovered.  Results are bit-identical to a serial
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
        see :mod:`repro.kernels`).  It is shipped **unresolved**: each
        worker resolves it against its own host at engine-build time, so an
        ``"auto"`` fleet mixing hosts with and without a C toolchain still
        produces bit-identical results, while an explicit ``"compiled"`` is
        enforced on every worker.
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
        # A GraphStore-backed executor ships a ``store``-kind EngineSpec (a
        # path, not arrays): workers memory-map the one on-disk graph
        # instead of each holding an unpickled CSR copy.
        from repro.store import GraphStore

        self._graph_store = graph if isinstance(graph, GraphStore) else None
        self._original = _normalize_graph(graph)
        self.n = int(self._original.shape[0])
        self.workers = int(workers)
        self.checkpoint_path = (
            None if checkpoint_path is None else Path(checkpoint_path)
        )
        self.compute_ranks = compute_ranks
        self.lease_ttl = resolve_lease_ttl(lease_ttl)
        self._mp = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        self._fingerprint = graph_fingerprint(self._original)
        #: per-worker ``.stats`` dicts (``jobs``, ``cpu_seconds``,
        #: ``wall_seconds``, ``max_rss_kb`` and the queue counters) from the
        #: most recent :meth:`run` (empty if every job was resumed).  CPU
        #: seconds are contention-free, so they remain the honest per-worker
        #: cost signal even when workers outnumber cores.
        self.last_worker_stats: "list[dict]" = []
        #: Names of workers that exited abnormally in the most recent
        #: :meth:`run` whose jobs were nevertheless recovered by the
        #: survivors (empty on a clean run).
        self.last_dead_workers: "list[str]" = []
        #: Total lease steals (requeues) across workers in the most recent
        #: :meth:`run` — the crash-recovery signal the chaos tests assert on.
        self.last_requeues: int = 0

    # ------------------------------------------------------------------ #
    # Orchestration
    # ------------------------------------------------------------------ #
    def run(self, jobs: Iterable[AttackJob]) -> CampaignResult:
        """Execute the grid across workers; ordered, serial-identical result."""
        jobs = validate_jobs(jobs, self.n)
        if self.checkpoint_path is not None:
            completed = self._merge_and_load()
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
        self.last_dead_workers = []
        self.last_requeues = 0
        if pending:
            count = min(self.workers, len(pending))
            queue_dir = self._queue_dir(shard_dir)
            with _telemetry.span(
                "executor.run", workers=count, jobs=len(jobs), resumed=resumed,
            ):
                self._drain_queue(pending, count, shard_dir, queue_dir)
            self.last_worker_stats = self._collect_stats(shard_dir, count)
            self.last_requeues = sum(
                int(stats.get("steals", 0)) for stats in self.last_worker_stats
            )
            with _telemetry.span("executor.merge", shards=count):
                self._collect(shard_dir, into=completed)
            missing = [job for job in pending if job.job_id not in completed]
            if missing:
                dead = (
                    f" (dead workers: {self.last_dead_workers})"
                    if self.last_dead_workers
                    else ""
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
            if self.last_dead_workers:
                _log.warning(
                    "worker(s) %s died mid-lease; their jobs were requeued "
                    "and completed by the surviving workers",
                    self.last_dead_workers,
                )
            shutil.rmtree(queue_dir, ignore_errors=True)
        return CampaignResult(
            outcomes=[completed[job.job_id] for job in jobs],
            n=self.n,
            seconds=time.perf_counter() - start,
            resumed_jobs=resumed,
            worker_stats=list(self.last_worker_stats),
            dead_workers=tuple(self.last_dead_workers),
            requeues=self.last_requeues,
        )

    def _drain_queue(
        self,
        pending: "list[AttackJob]",
        count: int,
        shard_dir: Path,
        queue_dir: Path,
    ) -> None:
        """Publish the queue, spawn ``count`` workers, join them.

        A worker exiting abnormally does NOT raise here — the queue's whole
        point is that survivors requeue its jobs; :meth:`_execute` only
        fails if jobs are actually missing afterwards.
        """
        shard_dir.mkdir(parents=True, exist_ok=True)
        with _telemetry.span("executor.spec", store=self._graph_store is not None):
            if self._graph_store is not None:
                spec = EngineSpec.from_store(
                    self._graph_store, kernels=self.kernels
                )
            else:
                spec = EngineSpec.from_graph(self._original, kernels=self.kernels)
        # The queue is ephemeral coordination state: durable truth lives in
        # the shard checkpoints, so a previous (crashed) run's queue is
        # simply replaced.
        if queue_dir.exists():
            shutil.rmtree(queue_dir)
        WorkQueue.create(queue_dir, pending, lease_ttl=self.lease_ttl)
        processes = []
        with _telemetry.span("executor.drain", workers=count):
            for index in range(count):
                args = (
                    spec,
                    str(queue_dir),
                    str(self._shard_path(shard_dir, index)),
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
        self.last_dead_workers = [
            p.name for p in processes if p.exitcode != 0
        ]

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

    def _leftover_shards(self) -> "list[Path]":
        # Literal prefix match, NOT a glob: a checkpoint named e.g.
        # "fig4[ci].json" would turn glob metacharacters into a character
        # class and silently miss every shard.
        assert self.checkpoint_path is not None
        parent = self.checkpoint_path.parent
        if not parent.exists():
            return []
        prefix = self.checkpoint_path.name + ".shard"
        return sorted(
            path
            for path in parent.iterdir()
            if path.name.startswith(prefix) and not path.name.endswith(".stats")
        )

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

    def _merge_and_load(self) -> "dict[str, JobOutcome]":
        """Fold any shard files into the main checkpoint, then load it.

        Called before publishing the queue (folding in a killed run's
        leftovers — the step that makes resume worker-count-independent)
        and after every drain.  Merged shards are deleted; merging is
        idempotent because outcomes are keyed by content-hashed job id.
        """
        assert self.checkpoint_path is not None
        main = self._store(self.checkpoint_path)
        # One parse of the main file, then O(1) appends per new shard
        # outcome — merge_from would re-load the whole checkpoint per
        # shard, which is O(W · file size) on big resumed campaigns.
        outcomes = main.load()
        for shard_path in self._leftover_shards():
            for job_id, outcome in self._store(shard_path).load().items():
                if job_id not in outcomes:
                    main.append(outcome)
                    outcomes[job_id] = outcome
            shard_path.unlink()
            stale_stats = Path(str(shard_path) + ".stats")
            if stale_stats.exists():
                stale_stats.unlink()
        return outcomes

    def _collect(self, shard_dir: Path, into: "dict[str, JobOutcome]") -> None:
        """Merge this run's shards into the result dict (and main file)."""
        if self.checkpoint_path is not None:
            into.update(self._merge_and_load())
            return
        prefix = "campaign.shard"
        shard_paths = sorted(
            path
            for path in shard_dir.iterdir()
            if path.name.startswith(prefix) and not path.name.endswith(".stats")
        )
        for shard_path in shard_paths:
            into.update(self._store(shard_path).load())
