"""The benchmark's three workloads: set-up, one measured pass, output checks.

Each workload is closed-loop: one client (the benchmark process) submits
the whole job grid and waits for it, with at most two worker processes.
A *pass* is one full drain of the grid; a run repeats passes and reports
medians.  Every workload attacks fixed datasets, as the paper samples its
targets on fixed graphs: the workload seed (``--seed``) draws the target
sets, so run-to-run spread measures the program and the host rather than
differences between generated graphs.  The program only receives the
generated graphs and job grids.

=========  ===========================================  =====================
workload   uses                                         bypasses
=========  ===========================================  =====================
fig4-ci    experiments, oddball (dense), autograd,      kernels, store,
           attacks, campaign (serial)                   scheduler
store-88k  store, graph, kernels, oddball (sparse),     autograd, experiments
           attacks, campaign, scheduler (2 workers)
sweep-10k  store (set-up build), graph (per-worker     autograd, experiments
           rebuild), kernels, oddball (sparse), attacks,
           candidates, campaign (checkpoint file),
           scheduler (2 workers)
=========  ===========================================  =====================

Why these three:

* ``fig4-ci`` is the paper's headline experiment (Fig. 4 at the ci scale:
  eight panels, all three attacks, full candidate set), run with the
  same steps as ``fig4_effectiveness.run``.  The dense engine spends most
  of it in autograd.
  The grid keeps one target sampling per panel (24 jobs) instead of the
  ci preset's two, so that one pass takes 20-30 s on a 2-vCPU Xeon VM.
* ``store-88k`` is the paper-scale graph (88.8k nodes, 2.1M edges) built
  cold into a store and attacked with BinarizedAttack by two workers that
  memory-map it.  Nearly all pass time is the sparse pair-gradient
  scatter; with few, large jobs, queue cost is negligible.
* ``sweep-10k`` is many cheap single-target GradMaxSearch jobs on a 10k
  graph shipped to the workers as an in-memory payload.  Per-job
  coordination (lease claim/complete, done markers, checkpoint appends)
  and per-worker engine rebuilds weigh most: the write-heavy counterpart
  to the read-only ``store-88k``.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import sparse

from repro.attacks import grid_jobs
from repro.attacks.base import apply_flips
from repro.attacks.campaign import AttackJob
from repro.attacks.executor import build_campaign
from repro.attacks.scheduler import SchedulingCampaignExecutor
# ``common`` and ``store_build`` are called through their modules, so the
# wrappers instrument.py installs on a traced run see those calls.
from repro.experiments import common
from repro.experiments.config import CI
from repro.experiments.fig4_effectiveness import PANELS
from repro.graph import sparse as graph_sparse
from repro.oddball.detector import OddBall
from repro.oddball.robust import fit_with_estimator
from repro.oddball.scores import score_from_features
from repro.store import builder as store_build
from repro.utils.rng import SeedSequenceFactory

#: Workers of the parallel workloads (the benchmark host has two cores).
WORKERS = 2
#: The blogcatalog-full recipe's node count.
FULL_NODES = 88_800
#: Seed of the fixed fig4 graphs (``fig4_effectiveness.run``'s default).
FIG4_GRAPH_SEED = 7
#: Recipe seed of the fixed store datasets (88.8k and 10k nodes).
STORE_SEED = 7
#: Relative tolerance of the from-scratch OddBall re-score check.
RESCORE_RTOL = 1e-9


@dataclass
class Prepared:
    """Everything set-up produced: the graph(s) and the job grid."""

    jobs: "list[AttackJob]"
    panels: list = field(default_factory=list)   # fig4-ci only
    graph: object = None                         # store / payload CSR
    store_bytes: int = 0


@dataclass
class PassResult:
    """What one drain of the job grid returned."""

    outcomes: list
    worker_stats: "list[dict]" = field(default_factory=list)


def flip_digest(outcome) -> str:
    """Content hash of one job's flips at every budget."""
    flips = {
        str(budget): [[int(u), int(v)] for u, v in pairs]
        for budget, pairs in sorted(outcome.flips_by_budget.items())
    }
    return hashlib.sha256(json.dumps(flips, sort_keys=True).encode()).hexdigest()[:32]


def rescore_matches(outcome, score: float) -> bool:
    """Whether a from-scratch target score equals the campaign's ``score_after``."""
    return math.isfinite(score) and math.isclose(
        score, outcome.score_after, rel_tol=RESCORE_RTOL, abs_tol=1e-12
    )


def _dir_bytes(path: Path) -> int:
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


class Fig4CI:
    """Fig. 4 at the ci scale, one target sampling per panel, serial."""

    name = "fig4-ci"
    setup_repeats = 5
    min_passes = 1
    scale = CI.with_(n_repeats=1)

    def setup(self, seed: int, workdir: Path) -> Prepared:
        # Mirrors repro.experiments.fig4_effectiveness.run panel by panel —
        # same seed streams, target sampling and job specs — except that
        # the graphs come from fig4's default seed and only the target
        # draws from the workload seed.
        graph_seeds = SeedSequenceFactory(FIG4_GRAPH_SEED)
        seeds = SeedSequenceFactory(seed)
        detector = OddBall()
        params = common.attack_suite_params(self.scale)
        panels = []
        jobs = []
        for dataset_name, paper_targets in PANELS:
            dataset = common.load_experiment_graph(dataset_name, self.scale, graph_seeds)
            graph = dataset.graph
            budgets = self.scale.budgets_for(graph.number_of_edges)
            n_targets = max(self.scale.scaled(paper_targets), 3)
            report = detector.analyze(graph)
            repeat_jobs = []
            unique = {}
            for repeat in range(self.scale.n_repeats):
                rng = seeds.generator(f"targets-{dataset_name}-{paper_targets}-{repeat}")
                targets = common.sample_targets(report, n_targets, rng)
                methods = {}
                for method, kwargs in params.items():
                    job = AttackJob.make(method, targets, budgets[-1], **kwargs)
                    methods[method] = job
                    unique.setdefault(job.job_id, job)
                repeat_jobs.append(methods)
            panels.append((graph, budgets, list(unique.values()), repeat_jobs))
            jobs.extend(unique.values())
        return Prepared(jobs=jobs, panels=panels)

    def run_pass(self, prepared: Prepared, workdir: Path) -> PassResult:
        outcomes = []
        for graph, budgets, jobs, repeat_jobs in prepared.panels:
            campaign = build_campaign(graph, backend="auto", compute_ranks=False)
            sweep = campaign.run(jobs)
            adjacency = graph.adjacency
            for methods in repeat_jobs:
                for job in methods.values():
                    result = sweep.outcome(job).attack_result(adjacency)
                    common.tau_for_budgets(adjacency, result, job.targets, budgets)
            outcomes.extend(sweep.outcomes)
        return PassResult(outcomes)

    def rescore_sample(self, prepared: Prepared, outcomes) -> "list[str]":
        """Job ids of a fixed sample whose OddBall re-score disagrees."""
        failed = []
        adjacency_of = {}
        for graph, _budgets, jobs, _repeats in prepared.panels:
            for job in jobs:
                adjacency_of[job.job_id] = graph.adjacency
        for outcome in outcomes[::4]:
            poisoned = apply_flips(adjacency_of[outcome.job_id], outcome.flips)
            scores = OddBall().analyze(poisoned).scores
            score = float(scores[list(outcome.job.targets)].sum())
            if not rescore_matches(outcome, score):
                failed.append(outcome.job_id)
        return failed


class _SparseWorkload:
    """Shared re-score check of the two store-recipe workloads.

    Subclasses set ``rescore_every``: every that-many-th job is checked.
    """

    def rescore_sample(self, prepared: Prepared, outcomes) -> "list[str]":
        """Job ids of a fixed sample whose OddBall re-score disagrees."""
        failed = []
        csr = prepared.graph
        if hasattr(csr, "adjacency_csr"):  # a GraphStore
            csr = csr.adjacency_csr()
        for outcome in outcomes[::self.rescore_every]:
            score = _sparse_rescore(csr, outcome)
            if not rescore_matches(outcome, score):
                failed.append(outcome.job_id)
        return failed


def _sparse_rescore(csr, outcome) -> float:
    """Target score sum of the poisoned graph, from scratch (OddBall on CSR)."""
    flips = np.asarray(outcome.flips, dtype=np.intp).reshape(-1, 2)
    rows, cols = flips[:, 0], flips[:, 1]
    present = np.asarray(csr[rows, cols]).ravel() != 0
    sign = np.where(present, -1.0, 1.0)
    delta = sparse.coo_matrix(
        (np.concatenate([sign, sign]),
         (np.concatenate([rows, cols]), np.concatenate([cols, rows]))),
        shape=csr.shape,
    )
    poisoned = (csr + delta).tocsr()  # a new matrix: the store mmap is never written
    poisoned.eliminate_zeros()
    poisoned.sort_indices()
    n_feature, e_feature = graph_sparse.egonet_features_sparse(poisoned)
    fit = fit_with_estimator(n_feature, e_feature, estimator="ols")
    scores = score_from_features(n_feature, e_feature, fit)
    return float(scores[list(outcome.job.targets)].sum())


def _draw_targets(store, seed: int, count: int, pool: int) -> "list[list[int]]":
    """``count`` single-target sets drawn by ``seed`` from the top-``pool`` nodes."""
    chosen = np.random.default_rng(seed).choice(
        store.top_targets(pool), count, replace=False
    )
    return [[int(t)] for t in sorted(chosen)]


class Store88k(_SparseWorkload):
    """BinarizedAttack on the cold-built 88.8k-node store, two workers.

    The store is one fixed dataset (recipe seed :data:`STORE_SEED`, as in
    the store and PRBCD benches); the workload seed samples the targets
    from its top-:attr:`pool` OddBall nodes, the paper's target protocol.
    """

    name = "store-88k"
    setup_repeats = 1   # one cold build is ~16 s of steady work already
    min_passes = 2
    targets = 16
    pool = 64
    iterations = 10
    rescore_every = 16  # one from-scratch re-score at 88.8k costs ~9 s

    def setup(self, seed: int, workdir: Path) -> Prepared:
        cache = workdir / "stores"
        shutil.rmtree(cache, ignore_errors=True)
        store = store_build.build_store(
            "blogcatalog-full", cache_dir=cache, seed=STORE_SEED,
        )
        jobs = grid_jobs(
            "binarizedattack", _draw_targets(store, seed, self.targets, self.pool),
            budgets=[5], candidates="target_incident", iterations=self.iterations,
        )
        return Prepared(jobs=jobs, graph=store, store_bytes=_dir_bytes(store.path))

    def run_pass(self, prepared: Prepared, workdir: Path) -> PassResult:
        executor = SchedulingCampaignExecutor(
            prepared.graph, workers=WORKERS, backend="sparse", kernels="compiled",
        )
        result = executor.run(prepared.jobs)
        return PassResult(list(result.outcomes), list(executor.last_worker_stats))


class Sweep10k(_SparseWorkload):
    """Many single-target GradMaxSearch jobs on a 10k payload graph.

    The graph is the store recipe at 10k nodes (recipe seed
    :data:`STORE_SEED`), detached to an in-memory CSR; the workload seed
    samples the targets from its top-:attr:`pool` OddBall nodes.
    """

    name = "sweep-10k"
    setup_repeats = 3
    min_passes = 2
    targets = 400
    pool = 800
    rescore_every = 100

    def setup(self, seed: int, workdir: Path) -> Prepared:
        cache = workdir / "stores"
        shutil.rmtree(cache, ignore_errors=True)
        store = store_build.build_store(
            "blogcatalog-full", cache_dir=cache, scale=10_000 / FULL_NODES,
            seed=STORE_SEED,
        )
        payload = store.detached_csr()
        jobs = grid_jobs(
            "gradmaxsearch", _draw_targets(store, seed, self.targets, self.pool),
            budgets=[5], candidates="adaptive_gradient",
        )
        return Prepared(jobs=jobs, graph=payload, store_bytes=_dir_bytes(store.path))

    def run_pass(self, prepared: Prepared, workdir: Path) -> PassResult:
        checkpoints = workdir / "checkpoints"
        shutil.rmtree(checkpoints, ignore_errors=True)
        checkpoints.mkdir(parents=True)
        executor = SchedulingCampaignExecutor(
            prepared.graph, workers=WORKERS, backend="sparse", kernels="compiled",
            checkpoint_path=checkpoints / "sweep.jsonl",
        )
        result = executor.run(prepared.jobs)
        return PassResult(list(result.outcomes), list(executor.last_worker_stats))


WORKLOADS = {w.name: w for w in (Fig4CI(), Store88k(), Sweep10k())}
