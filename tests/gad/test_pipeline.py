"""Integration tests for the transfer-attack pipeline."""

import numpy as np
import pytest

from repro.attacks import BinarizedAttack, RandomAttack
from repro.gad.pipeline import TransferAttackPipeline
from repro.graph.datasets import load_dataset


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("bitcoin-alpha", rng=7, scale=0.15)


def _fast_pipeline(system: str) -> TransferAttackPipeline:
    return TransferAttackPipeline(
        system=system,
        seed=5,
        gal_kwargs={"epochs": 20},
        mlp_kwargs={"epochs": 50},
    )


class TestPrepare:
    def test_labels_and_split(self, dataset):
        pipeline = _fast_pipeline("refex")
        labels, train_index, test_index = pipeline.prepare(dataset.graph.adjacency)
        assert set(np.unique(labels)) <= {0, 1}
        assert labels.sum() >= 1
        combined = np.sort(np.concatenate([train_index, test_index]))
        np.testing.assert_array_equal(combined, np.arange(len(labels)))

    def test_invalid_system(self):
        with pytest.raises(ValueError):
            TransferAttackPipeline(system="oddball")


class TestRun:
    @pytest.mark.parametrize("system", ["refex", "gal"])
    def test_end_to_end(self, dataset, system):
        pipeline = _fast_pipeline(system)
        attack = BinarizedAttack(iterations=30)
        outcome = pipeline.run(dataset.graph, attack, budgets=[0, 4], max_targets=5)
        assert outcome.system == system
        assert len(outcome.rows) == 2
        baseline = outcome.rows[0]
        assert baseline.budget == 0
        assert baseline.delta_b_pct == pytest.approx(0.0)
        assert 0.0 <= baseline.auc <= 1.0
        assert 0.0 <= baseline.f1 <= 1.0
        assert outcome.penultimate_clean is not None
        assert outcome.penultimate_poisoned is not None
        assert len(outcome.targets) >= 1
        # targets must be test nodes
        assert np.isin(outcome.targets, outcome.test_index).all()

    def test_budget_zero_always_included(self, dataset):
        pipeline = _fast_pipeline("refex")
        attack = RandomAttack(rng=0)
        outcome = pipeline.run(dataset.graph, attack, budgets=[3], max_targets=5)
        assert [r.budget for r in outcome.rows] == [0, 3]

    def test_max_targets_cap(self, dataset):
        pipeline = _fast_pipeline("refex")
        attack = RandomAttack(rng=0)
        outcome = pipeline.run(dataset.graph, attack, budgets=[1], max_targets=2)
        assert len(outcome.targets) <= 2

    def test_embeddings_skipped_when_disabled(self, dataset):
        pipeline = _fast_pipeline("refex")
        attack = RandomAttack(rng=0)
        outcome = pipeline.run(
            dataset.graph, attack, budgets=[1], max_targets=3, keep_embeddings=False
        )
        assert outcome.penultimate_clean is None
