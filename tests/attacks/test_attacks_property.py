"""Property-based invariants common to all attack methods."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.attacks import BinarizedAttack, ContinuousA, GradMaxSearch, RandomAttack
from repro.graph.generators import barabasi_albert
from repro.oddball.detector import OddBall

ATTACK_FACTORIES = [
    lambda: GradMaxSearch(),
    lambda: ContinuousA(max_iter=25),
    lambda: BinarizedAttack(iterations=20, lambdas=(0.2,)),
    lambda: RandomAttack(rng=0),
]


@pytest.mark.parametrize("factory", ATTACK_FACTORIES, ids=["gradmax", "continuous", "binarized", "random"])
@settings(max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(15, 35), budget=st.integers(0, 6), seed=st.integers(0, 5))
def test_attack_output_is_valid_bounded_poison(factory, n, budget, seed):
    """For any graph/targets/budget: the poison is a valid simple graph,
    within budget, differing from the original in exactly the flip set."""
    graph = barabasi_albert(n, 2, rng=seed)
    report = OddBall().analyze(graph)
    targets = report.top_k(2).tolist()
    attack = factory()
    result = attack.attack(graph, targets, budget)

    flips = result.flips()
    assert len(flips) <= budget
    poisoned = result.poisoned().toarray()
    original = graph.adjacency

    # valid simple graph
    assert np.array_equal(poisoned, poisoned.T)
    assert set(np.unique(poisoned)) <= {0.0, 1.0}
    assert np.diagonal(poisoned).sum() == 0.0

    # the symmetric difference is exactly the flip set
    changed = {(min(u, v), max(u, v)) for u, v in zip(*np.nonzero(np.triu(poisoned != original)))}
    assert changed == set(flips)

    # no singletons created
    assert not ((poisoned.sum(axis=1) == 0) & (original.sum(axis=1) > 0)).any()
