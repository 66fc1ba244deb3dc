"""Fingerprint alias table: a store-backed campaign and a payload-backed
campaign of the *same graph* carry different checkpoint fingerprints (O(1)
content-address token vs hashed coo arrays); the alias table recorded at
build time makes their checkpoints resume each other in both directions."""

import json

import pytest

from repro.attacks import AttackCampaign, SchedulingCampaignExecutor, grid_jobs
from repro.attacks.campaign import checkpoint_aliases, graph_fingerprint
from repro.store import (
    ALIAS_TABLE_NAME,
    alias_fingerprints,
    alias_table_path,
    build_store,
    record_alias_group,
)


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    cache = tmp_path_factory.mktemp("alias-store-cache")
    return build_store("blogcatalog", cache_dir=cache, scale=0.25, seed=5)


def _sweep_jobs(store, count=5, budget=2):
    return grid_jobs(
        "gradmaxsearch", [[int(t)] for t in store.top_targets(count)],
        budgets=[budget], candidates="target_incident",
    )


class TestAliasTable:
    def test_record_and_lookup(self, tmp_path):
        record_alias_group({"fp-a", "fp-b"}, cache_dir=tmp_path)
        assert alias_fingerprints("fp-a", cache_dir=tmp_path) == {"fp-b"}
        assert alias_fingerprints("fp-b", cache_dir=tmp_path) == {"fp-a"}
        assert alias_fingerprints("fp-c", cache_dir=tmp_path) == frozenset()

    def test_intersecting_groups_union_merge(self, tmp_path):
        record_alias_group({"fp-a", "fp-b"}, cache_dir=tmp_path)
        record_alias_group({"fp-b", "fp-c"}, cache_dir=tmp_path)
        assert alias_fingerprints("fp-a", cache_dir=tmp_path) == {"fp-b", "fp-c"}
        table = json.loads(alias_table_path(tmp_path).read_text())
        assert table["version"] == 1
        assert table["groups"] == [["fp-a", "fp-b", "fp-c"]]

    def test_disjoint_groups_stay_separate(self, tmp_path):
        record_alias_group({"fp-a", "fp-b"}, cache_dir=tmp_path)
        record_alias_group({"fp-x", "fp-y"}, cache_dir=tmp_path)
        assert alias_fingerprints("fp-a", cache_dir=tmp_path) == {"fp-b"}
        assert alias_fingerprints("fp-x", cache_dir=tmp_path) == {"fp-y"}

    def test_recording_is_idempotent(self, tmp_path):
        record_alias_group({"fp-a", "fp-b"}, cache_dir=tmp_path)
        before = alias_table_path(tmp_path).read_text()
        record_alias_group({"fp-b", "fp-a"}, cache_dir=tmp_path)
        assert alias_table_path(tmp_path).read_text() == before

    def test_fewer_than_two_distinct_fingerprints_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="two distinct"):
            record_alias_group({"fp-a", "fp-a"}, cache_dir=tmp_path)

    def test_corrupt_table_is_ignored_not_fatal(self, tmp_path):
        path = alias_table_path(tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"version": 1, "groups": [["fp-a",')  # torn write
        assert alias_fingerprints("fp-a", cache_dir=tmp_path) == frozenset()
        # recording over the wreck heals the table
        record_alias_group({"fp-a", "fp-b"}, cache_dir=tmp_path)
        assert alias_fingerprints("fp-a", cache_dir=tmp_path) == {"fp-b"}

    def test_unsupported_version_is_ignored(self, tmp_path):
        path = alias_table_path(tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"version": 99, "groups": [["a", "b"]]}))
        assert alias_fingerprints("a", cache_dir=tmp_path) == frozenset()

    def test_default_cache_dir_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_CACHE", str(tmp_path))
        record_alias_group({"fp-a", "fp-b"})
        assert (tmp_path / ALIAS_TABLE_NAME).exists()
        assert alias_fingerprints("fp-a") == {"fp-b"}


class TestStoreRegistration:
    def test_build_store_records_token_payload_group(self, store):
        table = store.path.parent / ALIAS_TABLE_NAME
        assert table.exists()
        token_fp = graph_fingerprint(store.csr(), "sparse")
        payload_fp = store.payload_fingerprint()
        assert token_fp != payload_fp  # the whole reason the table exists
        assert alias_fingerprints(
            token_fp, cache_dir=store.path.parent
        ) == {payload_fp}

    def test_payload_fingerprint_is_cached_in_a_sidecar(self, store):
        sidecar = store.path / "payload-fingerprint.json"
        first = store.payload_fingerprint()
        assert sidecar.exists()
        assert json.loads(sidecar.read_text())["fingerprint"] == first
        assert store.payload_fingerprint() == first  # cache hit path
        assert first == graph_fingerprint(store.detached_csr(), "sparse")

    def test_checkpoint_aliases_for_tagged_store_matrix(self, store):
        token_csr = store.csr()  # tagged with _repro_store_path
        token_fp = graph_fingerprint(token_csr, "sparse")
        assert checkpoint_aliases(token_csr, token_fp) == {
            store.payload_fingerprint()
        }

    def test_checkpoint_aliases_for_untagged_payload_matrix(
        self, store, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STORE_CACHE", str(store.path.parent))
        payload = store.detached_csr()  # no store tags at all
        payload_fp = graph_fingerprint(payload, "sparse")
        token_fp = graph_fingerprint(store.csr(), "sparse")
        assert checkpoint_aliases(payload, payload_fp) == {token_fp}


class TestCrossBackingResume:
    def test_payload_campaign_resumes_store_checkpoint(
        self, store, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STORE_CACHE", str(store.path.parent))
        jobs = _sweep_jobs(store)
        checkpoint = tmp_path / "campaign.jsonl"
        AttackCampaign(
            store.csr(), backend="sparse", checkpoint_path=checkpoint
        ).run(jobs)
        resumed = AttackCampaign(
            store.detached_csr(), backend="sparse", checkpoint_path=checkpoint
        ).run(jobs)
        assert resumed.resumed_jobs == len(jobs)

    def test_store_campaign_resumes_payload_checkpoint(
        self, store, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STORE_CACHE", str(store.path.parent))
        jobs = _sweep_jobs(store)
        checkpoint = tmp_path / "campaign.jsonl"
        AttackCampaign(
            store.detached_csr(), backend="sparse", checkpoint_path=checkpoint
        ).run(jobs)
        resumed = AttackCampaign(
            store.csr(), backend="sparse", checkpoint_path=checkpoint
        ).run(jobs)
        assert resumed.resumed_jobs == len(jobs)

    def test_store_executor_resumes_payload_checkpoint(
        self, store, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_STORE_CACHE", str(store.path.parent))
        jobs = _sweep_jobs(store)
        checkpoint = tmp_path / "campaign.jsonl"
        AttackCampaign(
            store.detached_csr(), backend="sparse", checkpoint_path=checkpoint
        ).run(jobs[:3])
        resumed = SchedulingCampaignExecutor(
            store, workers=2, checkpoint_path=checkpoint
        ).run(jobs)
        assert resumed.resumed_jobs == 3

    def test_without_the_table_resume_still_refuses(
        self, store, tmp_path, monkeypatch
    ):
        """The table is an affordance, not load-bearing: removing it
        restores the strict pre-alias behaviour instead of mis-resuming."""
        monkeypatch.setenv("REPRO_STORE_CACHE", str(tmp_path / "empty-cache"))
        jobs = _sweep_jobs(store, count=2)
        checkpoint = tmp_path / "campaign.jsonl"
        AttackCampaign(
            store.csr(), backend="sparse", checkpoint_path=checkpoint
        ).run(jobs)
        table = store.path.parent / ALIAS_TABLE_NAME
        saved = table.read_text()
        table.unlink()
        try:
            with pytest.raises(ValueError, match="different"):
                AttackCampaign(
                    store.detached_csr(), backend="sparse",
                    checkpoint_path=checkpoint,
                ).run(jobs)
        finally:
            table.write_text(saved)
