"""Tests for the random baseline attack."""

import numpy as np
import pytest

from repro.attacks.random_attack import RandomAttack


class TestRandomAttack:
    def test_budget_and_validity(self, small_er_graph):
        result = RandomAttack(rng=0).attack(small_er_graph, [0, 1], budget=5)
        assert len(result.flips()) <= 5
        poisoned = result.poisoned().toarray()
        assert np.array_equal(poisoned, poisoned.T)
        assert set(np.unique(poisoned)) <= {0.0, 1.0}

    def test_deterministic_given_seed(self, small_er_graph):
        a = RandomAttack(rng=7).attack(small_er_graph, [0], budget=4)
        b = RandomAttack(rng=7).attack(small_er_graph, [0], budget=4)
        assert a.flips() == b.flips()

    def test_target_biased_touches_targets(self, small_er_graph):
        targets = [3, 5]
        result = RandomAttack(rng=1, target_biased=True).attack(
            small_er_graph, targets, budget=6
        )
        for u, v in result.flips():
            assert u in targets or v in targets

    def test_no_singletons(self, small_ba_graph):
        result = RandomAttack(rng=2).attack(small_ba_graph, [0], budget=20)
        degrees = result.poisoned().toarray().sum(axis=1)
        assert not ((degrees == 0) & (small_ba_graph.degrees() > 0)).any()

    def test_surrogate_recorded_per_budget(self, small_er_graph):
        result = RandomAttack(rng=3).attack(small_er_graph, [0, 1], budget=3)
        assert 0 in result.surrogate_by_budget
        assert len(result.surrogate_by_budget) >= 1

    def test_none_means_full(self, small_er_graph):
        unrestricted = RandomAttack(rng=5).attack(small_er_graph, [0, 1], budget=4)
        full = RandomAttack(rng=5).attack(
            small_er_graph, [0, 1], budget=4, candidates="full"
        )
        assert unrestricted.flips_by_budget == full.flips_by_budget
        assert unrestricted.surrogate_by_budget == full.surrogate_by_budget
        assert unrestricted.metadata["candidate_strategy"] == "full"

    def test_matches_the_dense_reference(self, small_ba_graph):
        """The engine path keeps the flips of a dense greedy validity pass
        over the same shuffle, and its per-budget losses equal a dense
        re-score of each poisoned prefix."""
        from repro.attacks.base import apply_flips
        from repro.attacks.candidates import CandidateSet
        from repro.attacks.constraints import filter_valid_flips
        from repro.oddball.surrogate import surrogate_loss_numpy
        from repro.utils.rng import as_generator

        targets, budget, weights = [0, 4, 9], 6, [1.0, 2.0, 0.5]
        result = RandomAttack(rng=13).attack(
            small_ba_graph, targets, budget=budget, target_weights=weights
        )

        adjacency = small_ba_graph.adjacency
        pairs = CandidateSet.full(adjacency.shape[0]).pairs()
        order = as_generator(13).permutation(len(pairs))
        expected = filter_valid_flips(adjacency, [pairs[i] for i in order], limit=budget)
        assert result.flips() == expected
        for b in range(len(expected) + 1):
            reference = surrogate_loss_numpy(
                apply_flips(adjacency, expected[:b]), targets, weights
            )
            assert result.surrogate_by_budget[b] == pytest.approx(reference, rel=1e-9)

    def test_draws_lazily_without_listing_every_pair(self, monkeypatch):
        """The shuffle indexes the candidate arrays lazily: with
        ``CandidateSet.pairs`` unavailable, the seeded flips still equal
        the digest pinned before the draw became lazy (same RNG stream)."""
        import hashlib
        import json

        from repro.attacks.candidates import CandidateSet
        from repro.graph import barabasi_albert

        def no_pairs(self):
            raise AssertionError("RandomAttack listed every candidate pair")

        monkeypatch.setattr(CandidateSet, "pairs", no_pairs)
        graph = barabasi_albert(200, 3, rng=0)
        result = RandomAttack(rng=7).attack(graph, [0, 1, 2], budget=8, candidates="full")
        flips = {
            b: [[int(u), int(v)] for u, v in result.flips(b)] for b in result.budgets
        }
        digest = hashlib.sha256(json.dumps(flips, sort_keys=True).encode()).hexdigest()
        assert digest == "c5b2acd6d17521c5e5b556a5ee5935628579463542c050cbcead4b4332b330b8"
