"""Paper-scale dataset names: load_dataset resolution, statistics, and the
table1 store rows."""

import numpy as np
import pytest

from repro.graph.datasets import dataset_statistics, load_dataset
from repro.store import STORE_DATASET_NAMES, GraphStore, load_store_dataset


class TestLoadDataset:
    def test_full_name_resolves_to_store(self, tmp_path):
        dataset = load_dataset(
            "blogcatalog-full", rng=3, scale=0.01, cache_dir=tmp_path
        )
        assert isinstance(dataset.graph, GraphStore)
        assert dataset.name == "blogcatalog-full"
        assert dataset.n_nodes == 888
        assert set(dataset.planted) == {"cliques", "stars"}

    def test_generator_rng_rejected_for_store_names(self, tmp_path):
        with pytest.raises(TypeError, match="integer seed"):
            load_dataset(
                "blogcatalog-full", rng=np.random.default_rng(0),
                scale=0.01, cache_dir=tmp_path,
            )

    def test_unknown_name_lists_store_names(self):
        with pytest.raises(KeyError, match="blogcatalog-full"):
            load_dataset("not-a-dataset")

    def test_all_store_names_resolve(self, tmp_path):
        for name in STORE_DATASET_NAMES:
            dataset = load_store_dataset(
                name, seed=1, scale=0.01, cache_dir=tmp_path
            )
            assert dataset.name == name
            assert dataset.n_edges > 0

    def test_reload_hits_the_cache(self, tmp_path):
        first = load_dataset("ba-full", rng=2, scale=0.02, cache_dir=tmp_path)
        second = load_dataset("ba-full", rng=2, scale=0.02, cache_dir=tmp_path)
        assert first.graph.path == second.graph.path


class TestStatistics:
    def test_dataset_statistics_on_store(self, tmp_path):
        dataset = load_dataset(
            "wikivote-full", rng=5, scale=0.02, cache_dir=tmp_path
        )
        stats = dataset_statistics(dataset)
        assert stats["nodes"] == dataset.n_nodes
        assert stats["edges"] == dataset.n_edges
        assert stats["connected"] is True
        assert stats["mean_degree"] == pytest.approx(
            2 * dataset.n_edges / dataset.n_nodes
        )


class TestTable1StoreRows:
    def test_store_rows_appended(self, tmp_path):
        from repro.experiments.config import SMOKE
        from repro.experiments.table1_datasets import run

        payload = run(
            scale=SMOKE.with_(graph_scale=0.02), seed=3, workers=1,
            store_datasets=["blogcatalog-full"], store_cache=tmp_path,
        )
        names = [row["name"] for row in payload["rows"]]
        assert names[-1] == "blogcatalog-full"
        store_row = payload["rows"][-1]
        assert store_row["attack_budget"] == 5
        assert "attack_tau" in store_row


class TestSparseOnlyGuard:
    def test_serial_campaign_rejects_dense_backend(self, tmp_path):
        from repro.attacks import AttackCampaign, build_campaign
        from repro.store import build_store

        store = build_store("er", cache_dir=tmp_path, scale=0.1, seed=1)
        with pytest.raises(TypeError, match="backend"):
            AttackCampaign(store, backend="dense")
        with pytest.raises(ValueError, match="'auto', 'sparse'"):
            build_campaign(store, workers=1, backend="dense")
