"""AttackCampaign: batched multi-target attack orchestration.

The paper's experiments (Fig. 4/5, Tables I–II) all sweep *many* jobs —
targets × budgets × λ values × attack methods — over the **same** clean
graph, yet a bare ``attack()`` call rebuilds everything per job: adjacency
validation, the O(n + m) neighbour/feature state of
:class:`~repro.graph.incremental.IncrementalEgonetFeatures`, candidate-pair
arrays.  At campaign scale that fixed cost dominates; the actual
optimisation (a handful of O(deg)/O(m) steps per job) is the cheap part.

:class:`AttackCampaign` amortises it.  One shared
:class:`~repro.oddball.surrogate.SurrogateEngine` (sparse-incremental on
large graphs) carries the clean graph's feature state across every job:

* before a job, the engine is **retargeted** — targets, candidate pairs,
  floor and weights are swapped in O(|C|) (:meth:`SurrogateEngine.retarget`);
* the attack runs through the engine's apply → score → rollback API;
* after the job, :meth:`SurrogateEngine.restore` rolls back whatever
  permanent flips the attack landed, at O(deg) per flip — the O(n + m)
  rebuild a fresh engine would pay never happens;
* job outcomes (flips, losses, target rank shifts, timings) are scored
  straight from the engine's maintained features, so evaluation never
  materialises a poisoned adjacency either.

Campaigns are **resumable**: with a ``checkpoint_path`` every completed job
is appended to a JSONL file (one header line tying it to the graph, then
one outcome per line, keyed by a deterministic job id), and a
re-run against the same graph skips straight past completed jobs — an
interrupted 5000-job sweep restarts from the last completed job, and the
merged result is bit-identical to an uninterrupted run (tested).  Appends
are O(1) per job (not a full-file rewrite) and a torn trailing line from a
hard kill is skipped on load, costing at most one job.

Flip-set fidelity: a campaign job produces the *same* flips as the
equivalent standalone ``attack()`` call (the engine-parity and campaign
test suites pin this down), so batching is purely a performance lever.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy import sparse

from repro import telemetry as _telemetry
from repro.attacks.base import AttackResult, validate_targets
from repro.attacks.binarized import BinarizedAttack
from repro.attacks.candidates import CANDIDATE_STRATEGIES
from repro.attacks.continuous import ContinuousA
from repro.attacks.gradmax import GradMaxSearch
from repro.graph.graph import Graph
from repro.graph.sparse import content_hash, to_sparse
from repro.oddball.regression import fit_power_law
from repro.oddball.scores import rank_positions, score_from_features
from repro.kernels import validate_kernels
from repro.oddball.surrogate import SurrogateEngine
from repro.utils.logging import get_logger
from repro.utils.validation import check_adjacency, check_budget

__all__ = [
    "AttackCampaign",
    "AttackJob",
    "CampaignResult",
    "CheckpointStore",
    "ENGINE_ATTACKS",
    "JobOutcome",
    "SHARED_ENGINE_ATTACKS",
    "grid_jobs",
]

_log = get_logger("attacks.campaign")

Edge = tuple[int, int]

def _registry() -> dict:
    """:data:`repro.attacks.ATTACK_REGISTRY`, resolved lazily.

    The campaign module is imported *by* ``repro.attacks.__init__``, so the
    one canonical registry is looked up at call time (the package is fully
    initialised by then) instead of duplicating it here and drifting.
    """
    from repro.attacks import ATTACK_REGISTRY

    return ATTACK_REGISTRY


#: Attacks whose *optimisation loop* runs through a SurrogateEngine; their
#: constructors take a ``kernels`` parameter the campaign fills in.
ENGINE_ATTACKS = frozenset(
    {BinarizedAttack.name, GradMaxSearch.name, ContinuousA.name}
)

#: Every attack that accepts an injected ``engine=`` in ``attack()`` — the
#: gradient attacks plus the baselines (which use the shared engine as a
#: graph-state backend: O(deg) probes and O(n) feature scoring instead of a
#: per-job feature rebuild).  The campaign wraps all of them in
#: checkpoint()/restore().
SHARED_ENGINE_ATTACKS = ENGINE_ATTACKS | {"random", "oddball-heuristic"}

_CHECKPOINT_VERSION = 3


def _canonical(value):
    """Canonicalise a job-parameter value for hashing/serialisation."""
    if isinstance(value, (list, tuple)):
        return tuple(_canonical(v) for v in value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def _jsonable(value):
    """The JSON image of a canonical parameter value (tuples → lists)."""
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


def _jsonable_mapping(mapping: dict) -> dict:
    """Deep JSON image of a free-form metadata mapping.

    Attack metadata is attack-authored and may carry numpy scalars,
    arrays, or tuples; ``json.dumps`` silently accepts some of these
    today and rejects others, and what it accepts round-trips as a
    different type on resume.  Converting here keeps the checkpoint JSONL
    purely JSON-native, so a resumed campaign reads back exactly the
    values a fresh run would have produced.
    """

    def convert(value):
        value = _canonical(value)
        if isinstance(value, np.ndarray):
            value = tuple(value.tolist())
        if isinstance(value, np.bool_):
            return bool(value)
        if isinstance(value, tuple):
            return [convert(v) for v in value]
        if isinstance(value, dict):
            return {str(k): convert(v) for k, v in value.items()}
        return value

    return {str(k): convert(v) for k, v in mapping.items()}


@dataclass(frozen=True)
class AttackJob:
    """One unit of campaign work: an attack spec against one target set.

    Jobs are immutable, hashable and JSON-serialisable; :attr:`job_id` is a
    content hash, so the same spec always resumes from the same checkpoint
    entry.  Build through :meth:`make` (which canonicalises every field)
    rather than the raw constructor.
    """

    attack: str
    targets: tuple[int, ...]
    budget: int
    candidates: "str | None" = None
    weights: "tuple[float, ...] | None" = None
    params: tuple = ()

    @classmethod
    def make(
        cls,
        attack: str,
        targets: Sequence[int],
        budget: int,
        candidates: "str | None" = None,
        weights: "Sequence[float] | None" = None,
        **params,
    ) -> "AttackJob":
        """Build a validated, canonicalised job spec.

        ``attack`` must name a registered attack, ``candidates`` a strategy
        name (or ``None``), and every extra keyword must be a constructor
        parameter of that attack — all checked here, at grid-construction
        time, so a 5000-job campaign cannot die on a typo at job 4997.
        """
        registry = _registry()
        if attack not in registry:
            raise ValueError(
                f"unknown attack {attack!r}; choose from {sorted(registry)}"
            )
        if candidates is not None and candidates not in CANDIDATE_STRATEGIES:
            raise ValueError(
                f"campaign jobs take a candidate *strategy name* (or None), "
                f"got {candidates!r}; choose from {CANDIDATE_STRATEGIES}"
            )
        allowed = set(inspect.signature(registry[attack].__init__).parameters)
        unknown = set(params) - (allowed - {"self"})
        if unknown:
            raise ValueError(
                f"{attack} does not accept parameter(s) {sorted(unknown)}; "
                f"its constructor takes {sorted(allowed - {'self'})}"
            )
        targets = tuple(int(t) for t in targets)
        if weights is not None:
            weights = tuple(float(w) for w in weights)
            if len(weights) != len(targets):
                raise ValueError("weights must align with targets")
        return cls(
            attack=attack,
            targets=targets,
            budget=check_budget(budget),
            candidates=candidates,
            weights=weights,
            params=tuple(sorted((k, _canonical(v)) for k, v in params.items())),
        )

    @property
    def job_id(self) -> str:
        """Deterministic content hash of the spec (checkpoint key), cached."""
        cached = self.__dict__.get("_job_id_cache")
        if cached is None:
            digest = hashlib.sha1(
                json.dumps(self.to_dict(), sort_keys=True).encode()
            )
            cached = digest.hexdigest()[:16]
            object.__setattr__(self, "_job_id_cache", cached)
        return cached

    def to_dict(self) -> dict:
        """JSON image of the spec (the checkpoint/transport encoding)."""
        return {
            "attack": self.attack,
            "targets": list(self.targets),
            "budget": self.budget,
            "candidates": self.candidates,
            "weights": None if self.weights is None else list(self.weights),
            "params": [[k, _jsonable(v)] for k, v in self.params],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AttackJob":
        """Rebuild a job from :meth:`to_dict` output (same ``job_id``)."""
        return cls.make(
            payload["attack"],
            payload["targets"],
            payload["budget"],
            candidates=payload.get("candidates"),
            weights=payload.get("weights"),
            **{k: v for k, v in payload.get("params", [])},
        )

    def build_attack(self, kernels: str = "auto"):
        """Instantiate the attack this job describes.

        ``kernels`` is a campaign-level default injected via
        ``setdefault`` — a job that pinned it in its ``params`` keeps its
        own value (and its ``job_id`` already reflects it).
        """
        params = {k: v for k, v in self.params}
        if self.attack in ENGINE_ATTACKS:
            params.setdefault("kernels", kernels)
        return _registry()[self.attack](**params)


def grid_jobs(
    attack: str,
    targets: Sequence[Sequence[int]],
    budgets: Sequence[int],
    lambdas: "Sequence[float] | None" = None,
    candidates: "str | None" = None,
    **params,
) -> list[AttackJob]:
    """The paper's sweep shape: targets × budgets (× λ grid) for one attack.

    ``targets`` is a sequence of target *sets* (pass ``[[t] for t in ...]``
    for single-target sweeps).  With ``lambdas``, one job is emitted per λ
    (each a single-element ``lambdas`` parameter of BinarizedAttack) — the
    Fig. 4-style λ-sensitivity sweep.
    """
    jobs = []
    for target_set in targets:
        for budget in budgets:
            if lambdas is None:
                jobs.append(
                    AttackJob.make(
                        attack, target_set, budget, candidates=candidates, **params
                    )
                )
            else:
                for lam in lambdas:
                    jobs.append(
                        AttackJob.make(
                            attack,
                            target_set,
                            budget,
                            candidates=candidates,
                            lambdas=(float(lam),),
                            **params,
                        )
                    )
    return jobs


@dataclass
class JobOutcome:
    """Everything one completed job produced."""

    job: AttackJob
    flips_by_budget: dict[int, list[Edge]]
    surrogate_by_budget: dict[int, float]
    score_before: float
    score_after: float
    rank_shifts: dict[int, int]
    seconds: float
    metadata: dict = field(default_factory=dict)

    @property
    def job_id(self) -> str:
        """Content hash of the producing job (the checkpoint key)."""
        return self.job.job_id

    @property
    def flips(self) -> list[Edge]:
        """Flip set at the job's full budget."""
        return list(self.flips_by_budget[self.job.budget])

    @property
    def score_decrease(self) -> float:
        """τ_as = (S⁰_T − S^B_T) / S⁰_T at the full budget."""
        if self.score_before <= 0.0:
            return 0.0
        return (self.score_before - self.score_after) / self.score_before

    def attack_result(self, original) -> AttackResult:
        """Reconstruct a standalone-equivalent :class:`AttackResult`."""
        return AttackResult(
            method=self.job.attack,
            original=original,
            flips_by_budget={b: list(f) for b, f in self.flips_by_budget.items()},
            surrogate_by_budget=dict(self.surrogate_by_budget),
            metadata=dict(self.metadata),
        )

    def to_dict(self) -> dict:
        """JSON image of the outcome (one checkpoint line)."""
        return {
            "job": self.job.to_dict(),
            "flips_by_budget": {
                str(b): [[int(u), int(v)] for u, v in flips]
                for b, flips in self.flips_by_budget.items()
            },
            "surrogate_by_budget": {
                str(b): float(loss) for b, loss in self.surrogate_by_budget.items()
            },
            "score_before": float(self.score_before),
            "score_after": float(self.score_after),
            "rank_shifts": {str(t): int(s) for t, s in self.rank_shifts.items()},
            "seconds": float(self.seconds),
            "metadata": _jsonable_mapping(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "JobOutcome":
        """Rebuild an outcome from :meth:`to_dict` output."""
        return cls(
            job=AttackJob.from_dict(payload["job"]),
            flips_by_budget={
                int(b): [(int(u), int(v)) for u, v in flips]
                for b, flips in payload["flips_by_budget"].items()
            },
            surrogate_by_budget={
                int(b): float(loss)
                for b, loss in payload["surrogate_by_budget"].items()
            },
            score_before=float(payload["score_before"]),
            score_after=float(payload["score_after"]),
            rank_shifts={int(t): int(s) for t, s in payload["rank_shifts"].items()},
            seconds=float(payload["seconds"]),
            metadata=payload.get("metadata", {}),
        )


@dataclass
class CampaignResult:
    """Ordered outcomes of a campaign run (JSON round-trippable).

    Beyond the outcomes themselves, a result carries the run's execution
    stats: ``worker_stats`` (per-worker cpu/wall seconds, job counts and
    peak ``max_rss_kb`` from the executor ``.stats`` sidecars; empty for
    serial runs), and — for multi-worker runs — ``dead_workers`` (workers
    that exited abnormally but whose jobs the survivors recovered) and
    ``requeues`` (lease steals).  They are observability metadata, not
    outcome identity: parity assertions compare outcomes, and two runs of
    one grid are bit-identical in ``outcomes`` regardless of who executed
    which job.
    """

    outcomes: list[JobOutcome]
    n: int
    seconds: float
    resumed_jobs: int = 0
    worker_stats: list[dict] = field(default_factory=list)
    dead_workers: tuple[str, ...] = ()
    requeues: int = 0

    def __post_init__(self) -> None:
        self._by_id = {o.job_id: o for o in self.outcomes}

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    @property
    def peak_rss_kb(self) -> int:
        """Largest per-worker peak RSS in KiB (0 for serial runs)."""
        return max(
            (int(stats.get("max_rss_kb", 0)) for stats in self.worker_stats),
            default=0,
        )

    def outcome(self, job: "AttackJob | str") -> JobOutcome:
        """Outcome for a job (or raw job id); raises ``KeyError`` if absent."""
        job_id = job.job_id if isinstance(job, AttackJob) else job
        if job_id not in self._by_id:
            raise KeyError(f"no outcome recorded for job {job_id}")
        return self._by_id[job_id]

    def to_dict(self) -> dict:
        """JSON image of the whole campaign result."""
        return {
            "n": self.n,
            "seconds": self.seconds,
            "resumed_jobs": self.resumed_jobs,
            "worker_stats": [_jsonable_mapping(s) for s in self.worker_stats],
            "dead_workers": [str(w) for w in self.dead_workers],
            "requeues": int(self.requeues),
            "outcomes": [o.to_dict() for o in self.outcomes],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(
            outcomes=[JobOutcome.from_dict(o) for o in payload["outcomes"]],
            n=int(payload["n"]),
            seconds=float(payload["seconds"]),
            resumed_jobs=int(payload.get("resumed_jobs", 0)),
            worker_stats=[dict(s) for s in payload.get("worker_stats", [])],
            dead_workers=tuple(
                str(w) for w in payload.get("dead_workers", [])
            ),
            requeues=int(payload.get("requeues", 0)),
        )


def _normalize_graph(graph):
    """Validated adjacency (dense ndarray or tagged CSR) from any input.

    Store-backed graphs (:class:`~repro.store.GraphStore`, or anything else
    exposing ``adjacency_csr()``) normalise to their tagged memory-mapped
    CSR zero-copy.
    """
    if isinstance(graph, Graph):
        return np.array(graph.adjacency_view, dtype=np.float64)
    if hasattr(graph, "adjacency_csr"):
        return to_sparse(graph.adjacency_csr())
    if sparse.issparse(graph):
        normalized = to_sparse(graph)
        # to_sparse copies untagged input, dropping instance attributes —
        # re-apply the content-hash token so the copy is still
        # fingerprinted in O(1) instead of rehashing its arrays.
        token = getattr(graph, "_repro_fingerprint", None)
        if token is not None and normalized is not graph:
            normalized._repro_fingerprint = token
        return normalized
    return check_adjacency(np.asarray(graph, dtype=np.float64))


def graph_fingerprint(adjacency) -> str:
    """The name a checkpoint header gives one graph.

    ``sha1(f"{n}:{content_hash}")``, where ``content_hash`` is
    :func:`repro.graph.sparse.content_hash` — canonical over the edge set,
    so a dense array, a CSR with sorted or unsorted rows, a
    :class:`~repro.store.GraphStore` CSR and its ``detached_csr()`` of one
    graph all share one fingerprint.  The parent executor, every worker
    and the serial campaign therefore derive the same name, which is what
    lets shard files and the merged checkpoint validate against each other.

    A matrix carrying a ``_repro_fingerprint`` token (a GraphStore CSR, or
    a CSR rebuilt from a spec that captured one) holds its content hash
    precomputed, and is fingerprinted in O(1) without reading its arrays.
    """
    content = getattr(adjacency, "_repro_fingerprint", None)
    if content is None:
        content = content_hash(adjacency)
    return hashlib.sha1(f"{adjacency.shape[0]}:{content}".encode()).hexdigest()


def validate_jobs(jobs: Iterable[AttackJob], n: int) -> list[AttackJob]:
    """Check a job list (types, duplicate specs, target ranges) up front.

    Shared by the serial campaign and the parallel executor so both reject
    exactly the same malformed grids before any work starts.
    """
    jobs = list(jobs)
    seen: set[str] = set()
    for job in jobs:
        if not isinstance(job, AttackJob):
            raise TypeError(f"jobs must be AttackJob instances, got {type(job)}")
        if job.job_id in seen:
            raise ValueError(f"duplicate job in campaign: {job.to_dict()}")
        seen.add(job.job_id)
        validate_targets(job.targets, n)
    return jobs


class CheckpointStore:
    """One JSONL campaign checkpoint file: a header plus one outcome per line.

    Format (version 3)::

        {"version": 3, "fingerprint": ..., "n": ...}
        {"job": {...}, "flips_by_budget": {...}, ...}      # one per job
        ...

    The header ties the file to one graph; outcome lines are
    keyed by the deterministic :attr:`AttackJob.job_id` content hash, so
    load order — and therefore *who* wrote each line — is irrelevant.  That
    property is what makes the parallel executor's per-worker shard files
    mergeable into this same format: a shard is just a checkpoint whose
    lines happen to come from one worker, and ``resume`` works across runs
    with different worker counts.

    Appends are O(1) per job (never a rewrite); a trailing line torn by a
    hard kill is skipped on load and overwritten safely on the next append,
    costing exactly that one job.

    The header's ``fingerprint`` is :func:`graph_fingerprint`: one content
    hash per graph, so any backing of the same graph (store, payload CSR,
    dense array) resumes the file and any other graph is refused.  Older
    headers are refused as an unsupported version: version 1 named store
    graphs by their recipe, and version 2 also hashed the engine backend
    into the fingerprint.
    """

    def __init__(self, path: "Path | str", fingerprint: str, n: int):
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.n = int(n)

    def exists(self) -> bool:
        """Whether the checkpoint file is present on disk."""
        return self.path.exists()

    def load(self) -> dict[str, JobOutcome]:
        """Completed outcomes keyed by job id ({} when the file is absent).

        Resilient to a crash mid-append: a final line torn by a hard kill —
        whether it fails to parse as JSON or parses but cannot be
        reconstructed into a :class:`JobOutcome` — is skipped with a
        warning, costing exactly that one job.  A file consisting only of a
        torn *header* (the very first append died mid-write) is repaired to
        empty instead of poisoning every later resume.
        """
        if not self.path.exists():
            return {}
        lines = self.path.read_text().splitlines()
        if not lines:
            return {}
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError as error:
            if not any(line.strip() for line in lines[1:]):
                # The first-ever append crashed mid-header: nothing was
                # completed, so an empty checkpoint is the truthful state.
                # Truncating (rather than just ignoring) lets the next
                # append() recreate a clean header.
                _log.warning(
                    "checkpoint %s has a torn header and no records; "
                    "resetting it to empty", self.path,
                )
                self.path.write_text("")
                return {}
            raise ValueError(
                f"checkpoint {self.path} has a corrupt header; "
                "delete it to start the campaign fresh"
            ) from error
        if header.get("version") != _CHECKPOINT_VERSION:
            raise ValueError(
                f"checkpoint {self.path} has unsupported version "
                f"{header.get('version')!r}"
            )
        if header.get("fingerprint") != self.fingerprint:
            raise ValueError(
                f"checkpoint {self.path} was written for a different "
                "graph; delete it or point the campaign elsewhere"
            )
        outcomes: dict[str, JobOutcome] = {}
        for line in lines[1:]:
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                # a record torn by a hard kill — appends after a tear start
                # a fresh line, so only the torn record itself is lost
                _log.warning(
                    "checkpoint %s has a truncated entry; ignoring that job",
                    self.path,
                )
                continue
            try:
                outcome = JobOutcome.from_dict(payload)
            except (KeyError, TypeError, ValueError) as error:
                # Valid JSON that is not a reconstructible outcome: a tear
                # can land exactly on a nested close-brace, leaving a parse-
                # able prefix with fields missing.  Same cost as an unparse-
                # able tear: that one job re-runs.
                _log.warning(
                    "checkpoint %s has an unreadable entry (%s); "
                    "ignoring that job", self.path, error,
                )
                continue
            if outcome.job_id in outcomes:
                # A requeued job completed twice (its first worker was slow
                # but alive, or crashed between the shard append and the
                # done marker): both records describe the same deterministic
                # computation, so keep the FIRST durable one.  Dedupe key is
                # the job *content hash*, never write order.
                _log.warning(
                    "checkpoint %s holds a duplicate record for job %s; "
                    "keeping the first (dedupe key: job content hash)",
                    self.path, outcome.job_id,
                )
                continue
            outcomes[outcome.job_id] = outcome
        return outcomes

    def append(self, outcome: JobOutcome) -> None:
        """Append one completed job (O(1); creates file + header on demand)."""
        if not self.path.exists() or self.path.stat().st_size == 0:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            header = {
                "version": _CHECKPOINT_VERSION,
                "fingerprint": self.fingerprint,
                "n": self.n,
            }
            self.path.write_text(json.dumps(header) + "\n")
        # A hard kill can leave the previous append torn WITHOUT a trailing
        # newline; appending straight after it would glue two records into
        # one unparsable line and lose the glued-on job too.  Start a fresh
        # line whenever the file does not end in one, so a tear costs
        # exactly the torn record.
        with self.path.open("rb") as reader:
            reader.seek(-1, 2)
            ends_with_newline = reader.read(1) == b"\n"
        with self.path.open("ab") as handle:
            if not ends_with_newline:
                handle.write(b"\n")
            handle.write((json.dumps(outcome.to_dict()) + "\n").encode())

    def merge_from(self, other: "CheckpointStore") -> int:
        """Fold another store's outcomes into this file; returns new-job count.

        The parallel executor's parent calls this per worker shard: shard
        outcomes whose job ids the main checkpoint already holds are
        skipped (idempotent — re-merging after a crash never duplicates),
        the rest are appended in the standard O(1)-per-line way.
        """
        if not other.exists():
            return 0
        mine = self.load()
        added = 0
        for job_id, outcome in other.load().items():
            if job_id in mine:
                continue
            self.append(outcome)
            added += 1
        return added


class AttackCampaign:
    """Run many attack jobs against one graph on one shared engine.

    Parameters
    ----------
    graph:
        :class:`~repro.graph.graph.Graph`, dense adjacency array, scipy
        sparse matrix, or a memory-mapped :class:`~repro.store.GraphStore`
        (normalised to its read-only CSR zero-copy).  Sparse inputs are
        validated **once** (the validate-once tag of
        :func:`repro.graph.sparse.to_sparse` makes every per-job
        touch-point free); dense jobs still re-run the O(n²) checks per
        attack call, which is negligible at the small n dense inputs are
        meant for.
    kernels:
        Hot-loop kernel backend (``"auto"``/``"numpy"``/``"compiled"``,
        see :mod:`repro.kernels`).  Injected as the default for every
        engine job (a job pinning ``kernels`` in its params wins) and
        passed to the lazily-built shared engine.  Both backends produce
        bit-identical flip sets, so checkpoints are kernel-agnostic.
    checkpoint_path:
        Optional JSONL checkpoint file: one header line (graph fingerprint)
        followed by one completed-job record per line, appended
        in O(1) after each job.  A rerun against the same graph loads it
        and skips completed job ids; a record torn by a hard kill costs
        exactly that one job on resume (not the file).
    compute_ranks:
        Record per-target rank shifts (clean rank → poisoned rank under a
        full re-score).  One O(n log n) argsort per job; disable for pure
        flip-set sweeps where only the flips matter.
    telemetry:
        Optional trace directory: configures the process-global
        :mod:`repro.telemetry` tracer (per-job spans, kernel counters)
        before any work runs.  ``None`` leaves the global configuration
        untouched — telemetry may still be on via ``$REPRO_TELEMETRY`` or
        an earlier ``configure()``.  Tracing never changes results: job
        ids, flips and checkpoints are bit-identical with it on or off.
    engine:
        Optional pre-built :class:`SurrogateEngine` to run every job on —
        the parallel executor's workers pass the engine they rebuilt from
        an :class:`~repro.oddball.surrogate.EngineSpec`, and the parity
        suites the dense test oracle.  Must match the campaign's graph
        size; ``None`` (the default) builds a sparse engine lazily from the
        graph.

    Example
    -------
    >>> from repro.graph import erdos_renyi
    >>> from repro.oddball import OddBall
    >>> graph = erdos_renyi(60, 0.1, rng=0)
    >>> targets = OddBall().analyze(graph).top_k(4).tolist()
    >>> jobs = grid_jobs("gradmaxsearch", [[t] for t in targets], budgets=[2],
    ...                  candidates="target_incident")
    >>> result = AttackCampaign(graph).run(jobs)
    >>> len(result) == 4
    True
    """

    def __init__(
        self,
        graph: "Graph | np.ndarray | sparse.spmatrix",
        *,
        kernels: str = "auto",
        checkpoint_path: "Path | str | None" = None,
        compute_ranks: bool = True,
        engine: "SurrogateEngine | None" = None,
        telemetry: "Path | str | None" = None,
    ):
        if telemetry is not None:
            _telemetry.configure(telemetry)
        self.kernels = validate_kernels(kernels)
        self._original = _normalize_graph(graph)
        self.n = int(self._original.shape[0])
        self.checkpoint_path = (
            None if checkpoint_path is None else Path(checkpoint_path)
        )
        self.compute_ranks = compute_ranks
        if engine is not None and engine.n != self.n:
            raise ValueError(
                f"injected engine addresses {engine.n} nodes "
                f"but the campaign graph has {self.n}"
            )
        self._engine = engine
        self._clean_scores: "np.ndarray | None" = None
        self._clean_ranks: "np.ndarray | None" = None
        self._fingerprint_cache: "str | None" = None

    # ------------------------------------------------------------------ #
    # Orchestration
    # ------------------------------------------------------------------ #
    def run(self, jobs: Iterable[AttackJob]) -> CampaignResult:
        """Execute every job (skipping checkpointed ones); ordered result."""
        jobs = validate_jobs(jobs, self.n)
        store = self.checkpoint_store()
        completed = {} if store is None else store.load()
        resumed = sum(1 for job in jobs if job.job_id in completed)
        if resumed:
            _log.info("resuming campaign: %d/%d jobs checkpointed", resumed, len(jobs))
        start = time.perf_counter()
        with _telemetry.span("campaign.run", jobs=len(jobs), n=self.n, resumed=resumed):
            for index, job in enumerate(jobs):
                if job.job_id in completed:
                    continue
                outcome = self._run_job(job)
                completed[job.job_id] = outcome
                if store is not None:
                    store.append(outcome)
                _log.debug(
                    "job %d/%d (%s) done in %.3fs: tau=%.3f",
                    index + 1, len(jobs), job.attack, outcome.seconds,
                    outcome.score_decrease,
                )
        elapsed = time.perf_counter() - start
        return CampaignResult(
            outcomes=[completed[job.job_id] for job in jobs],
            n=self.n,
            seconds=elapsed,
            resumed_jobs=resumed,
        )

    # ------------------------------------------------------------------ #
    # Single job
    # ------------------------------------------------------------------ #
    def run_job(self, job: AttackJob) -> JobOutcome:
        """Run ONE validated job on the shared engine and return its outcome.

        Unlike :meth:`run`, no checkpoint is read or written: the caller
        owns durability.  The multi-worker executor's workers drain a
        queue through this — claim a job, run it here under a lease
        heartbeat, append the outcome to their shard checkpoint, then mark
        the queue's done marker (in that order, so a crash between the two
        durable steps requeues a job whose record already exists and the
        merge dedupes it by job content hash).
        """
        job, = validate_jobs([job], self.n)
        return self._run_job(job)

    def _run_job(self, job: AttackJob) -> JobOutcome:
        """Run one job on the shared engine, restoring it afterwards."""
        with _telemetry.span(
            "job", job_id=job.job_id, attack=job.attack,
            budget=int(job.budget),
        ):
            return self._run_job_traced(job)

    def _run_job_traced(self, job: AttackJob) -> JobOutcome:
        """The :meth:`_run_job` body, inside the job's telemetry span."""
        attack = job.build_attack(self.kernels)
        engine = self._ensure_engine(job)
        start = time.perf_counter()
        if job.attack in SHARED_ENGINE_ATTACKS:
            token = engine.checkpoint()
            try:
                with _telemetry.span("job.attack"):
                    result = attack.attack(
                        self._original,
                        list(job.targets),
                        job.budget,
                        target_weights=job.weights,
                        candidates=job.candidates,
                        engine=engine,
                    )
            finally:
                # Always roll the job's flips back — an exception (or the
                # KeyboardInterrupt of an interrupted campaign) must not
                # leave the NEXT job running on a silently poisoned engine.
                engine.restore(token)
        else:
            with _telemetry.span("job.attack"):
                result = attack.attack(
                    self._original,
                    list(job.targets),
                    job.budget,
                    target_weights=job.weights,
                    candidates=job.candidates,
                )
        seconds = time.perf_counter() - start
        with _telemetry.span("job.score"):
            score_before, score_after, rank_shifts = self._score(job, result)
        return JobOutcome(
            job=job,
            flips_by_budget={b: result.flips(b) for b in result.budgets},
            surrogate_by_budget=dict(result.surrogate_by_budget),
            score_before=score_before,
            score_after=score_after,
            rank_shifts=rank_shifts,
            seconds=seconds,
            metadata=dict(result.metadata),
        )

    def _ensure_engine(self, job: AttackJob) -> SurrogateEngine:
        """The shared engine (built lazily unless one was injected)."""
        if self._engine is None:
            # Created with an EMPTY candidate set: each job retargets with
            # its own pairs, and ``None`` here would materialise all
            # n(n−1)/2 upper-triangle pairs — 50M entries at n = 10 000.
            empty = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
            with _telemetry.span("engine.build", n=self.n):
                self._engine = SurrogateEngine.create(
                    self._original, job.targets, empty, kernels=self.kernels,
                )
        if self._clean_scores is None:
            with _telemetry.span("engine.clean_scores"):
                n_feature, e_feature = self._engine.node_features()
                self._clean_scores = score_from_features(
                    n_feature, e_feature, fit_power_law(n_feature, e_feature)
                )
                self._clean_ranks = rank_positions(self._clean_scores)
        return self._engine

    def _score(
        self, job: AttackJob, result: AttackResult
    ) -> tuple[float, float, dict[int, int]]:
        """Score the job from the engine's features (apply → score → rollback)."""
        engine = self._engine
        assert engine is not None and self._clean_scores is not None
        flips = result.flips()
        for u, v in flips:
            engine.push_flip(u, v)
        n_feature, e_feature = engine.node_features()
        poisoned_scores = score_from_features(
            n_feature, e_feature, fit_power_law(n_feature, e_feature)
        )
        engine.pop_flips(len(flips))
        targets = list(job.targets)
        score_before = float(self._clean_scores[targets].sum())
        score_after = float(poisoned_scores[targets].sum())
        rank_shifts: dict[int, int] = {}
        if self.compute_ranks:
            poisoned_ranks = rank_positions(poisoned_scores)
            assert self._clean_ranks is not None
            rank_shifts = {
                t: int(poisoned_ranks[t] - self._clean_ranks[t]) for t in targets
            }
        return score_before, score_after, rank_shifts

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def _fingerprint(self) -> str:
        """Graph content hash (cached; see :func:`graph_fingerprint`)."""
        if self._fingerprint_cache is None:
            self._fingerprint_cache = graph_fingerprint(self._original)
        return self._fingerprint_cache

    def checkpoint_store(self) -> "CheckpointStore | None":
        """The campaign's :class:`CheckpointStore` (``None`` when disabled)."""
        if self.checkpoint_path is None:
            return None
        return CheckpointStore(self.checkpoint_path, self._fingerprint(), self.n)
