"""Shared fixtures for the test suite.

Beyond the small deterministic graphs, this hosts the fixtures the
campaign/executor/scheduler/store suites used to duplicate per-module:
the 90-node BA campaign graph with its OddBall target ranking, the
gradmaxsearch sweep-grid factory, the outcome bit-identity assertion,
the kernel-backend switch, the neighbour-pair candidate set and the
cached blogcatalog store build.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.generators import barabasi_albert, erdos_renyi
from repro.graph.graph import Graph


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture()
def small_er_graph() -> Graph:
    """Connected-ish 40-node ER graph, deterministic."""
    return erdos_renyi(40, 0.15, rng=7)


@pytest.fixture()
def small_ba_graph() -> Graph:
    """60-node BA graph (m=3), deterministic and connected."""
    return barabasi_albert(60, 3, rng=11)


@pytest.fixture()
def star_graph() -> Graph:
    """Star on 8 nodes: node 0 is the hub."""
    return Graph.from_edges(8, [(0, i) for i in range(1, 8)])


@pytest.fixture()
def clique_graph() -> Graph:
    """K5 plus a pendant path so degrees differ."""
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    edges += [(4, 5), (5, 6)]
    return Graph.from_edges(7, edges)


@pytest.fixture()
def triangle_graph() -> Graph:
    """A single triangle."""
    return Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture(scope="session")
def campaign_graph() -> Graph:
    """The 90-node BA graph every campaign-layer suite attacks."""
    return barabasi_albert(90, 3, rng=11)


@pytest.fixture(scope="session")
def campaign_targets(campaign_graph) -> "list[int]":
    """Top-8 OddBall-scored nodes of ``campaign_graph``.

    ``top_k`` is prefix-stable, so suites that want fewer targets slice
    this list instead of re-running the detector per module.
    """
    from repro.oddball.detector import OddBall

    return OddBall().analyze(campaign_graph).top_k(8).tolist()


@pytest.fixture(scope="module")
def graph_and_targets(campaign_graph, campaign_targets):
    """(graph, targets) pair matching the historical per-module fixtures."""
    return campaign_graph, campaign_targets


@pytest.fixture(scope="session")
def sweep_jobs():
    """Factory for the single-target gradmaxsearch grids the suites sweep."""
    from repro.attacks import grid_jobs

    def make(targets, count=8, budget=3, **params):
        params.setdefault("candidates", "target_incident")
        return grid_jobs(
            "gradmaxsearch", [[int(t)] for t in targets[:count]],
            budgets=[budget], **params,
        )

    return make


@pytest.fixture()
def use_kernels(monkeypatch):
    """Switch the process-default kernel backend for the rest of the test.

    ``use_kernels(name)`` sets ``$REPRO_KERNELS`` with the
    ``set_default_kernels`` override cleared, so every engine built after
    the call, and every executor worker, resolves ``name``.  A test asking
    for ``"compiled"`` on a host without the compiled backend is skipped.
    """
    import repro.kernels

    def use(kernels: str) -> str:
        if kernels == "compiled" and not repro.kernels.compiled_available():
            pytest.skip("compiled kernel backend unavailable")
        monkeypatch.setattr(repro.kernels, "_DEFAULT", None)
        monkeypatch.setenv("REPRO_KERNELS", kernels)
        return kernels

    return use


@pytest.fixture(scope="session")
def assert_outcomes_identical():
    """Bit-identity check between two campaign results (any executor)."""

    def check(a_result, b_result):
        assert len(a_result) == len(b_result)
        for a, b in zip(a_result, b_result):
            assert a.job_id == b.job_id
            assert a.flips_by_budget == b.flips_by_budget
            assert a.surrogate_by_budget == b.surrogate_by_budget
            assert a.rank_shifts == b.rank_shifts
            assert a.score_before == b.score_before
            assert a.score_after == b.score_after

    return check


@pytest.fixture(scope="session")
def migrated_by_key():
    """The key-search oracle of ``Lineage.carry``: ``state`` on candidate
    set ``old`` moved onto ``new``, each surviving pair's entry at its
    key's position and every other pair of ``new`` at ``fill``."""

    def migrate(old, new, state, fill):
        positions = np.searchsorted(new.keys, old.keys)
        inside = positions < len(new)
        survived = np.zeros(len(old), dtype=bool)
        survived[inside] = new.keys[positions[inside]] == old.keys[inside]
        migrated = np.full(len(new), fill, dtype=state.dtype)
        migrated[positions[survived]] = state[survived]
        return migrated

    return migrate


@pytest.fixture(scope="session")
def neighbour_pair_set():
    """A custom candidate set over every pair of ``targets`` and their
    neighbours: it holds pairs of two non-target neighbours of a target,
    whose gradient runs through their common neighbours, which no built-in
    strategy's initial set holds."""
    from repro.attacks.candidates import CandidateSet

    def build(graph, targets):
        ball = set(int(t) for t in targets)
        for t in targets:
            ball.update(int(v) for v in np.flatnonzero(graph.adjacency[t]))
        nodes = sorted(ball)
        pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1:]]
        return CandidateSet.from_pairs(graph.number_of_nodes, pairs)

    return build


@pytest.fixture(scope="session")
def store(tmp_path_factory):
    """A cached 0.3-scale blogcatalog store (built once per session)."""
    from repro.store import build_store

    cache = tmp_path_factory.mktemp("shared-store-cache")
    return build_store("blogcatalog", cache_dir=cache, scale=0.3, seed=11)
