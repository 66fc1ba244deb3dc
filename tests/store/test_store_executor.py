"""Store-spec execution: workers that memory-map the graph via a
``store``-kind EngineSpec must produce results bit-identical to payload-spec
workers and to the serial campaign, at any worker count."""

import pickle

import numpy as np
import pytest
from scipy import sparse

from repro.attacks import (
    AttackCampaign,
    SchedulingCampaignExecutor,
    build_campaign,
)
from repro.oddball.surrogate import EngineSpec, SurrogateEngine

# store / sweep_jobs / assert_outcomes_identical come from tests/conftest.py
# (shared fixtures); this module derives its targets from store degrees.


@pytest.fixture(scope="module")
def memory_graph(store):
    return store.detached_csr()


@pytest.fixture(scope="module")
def store_targets(store):
    return np.argsort(-store.degrees(), kind="stable")[:8].tolist()


class TestStoreSpec:
    def test_spec_is_a_path_not_a_payload(self, store):
        spec = EngineSpec.from_store(store)
        assert spec.kind == "store"
        assert spec.payload == (str(store.path),)

    def test_spec_round_trip_builds_identical_engine(self, store, memory_graph):
        spec = pickle.loads(pickle.dumps(EngineSpec.from_store(store)))
        targets = [0, 1, 2]
        empty = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp))
        rebuilt = SurrogateEngine.from_spec(spec, targets, candidates=empty)
        reference = SurrogateEngine.create(memory_graph, targets, empty)
        assert rebuilt.backend == "sparse"
        assert rebuilt.current_loss() == reference.current_loss()
        n_a, e_a = rebuilt.node_features()
        n_b, e_b = reference.node_features()
        assert np.array_equal(n_a, n_b)
        assert np.array_equal(e_a, e_b)

    def test_to_graph_maps_read_only(self, store):
        graph = EngineSpec.from_store(store).to_graph()
        assert sparse.issparse(graph)
        assert not graph.data.flags.writeable


class TestStoreExecutorParity:
    def test_store_spec_1_vs_4_workers_vs_payload(self, store, memory_graph, sweep_jobs, assert_outcomes_identical, store_targets):
        """The satellite contract: a 1-worker and a 4-worker run from a
        ``store_path`` spec agree bit-for-bit with each other AND with the
        payload-spec (in-memory CSR) execution of the same grid."""
        jobs = sweep_jobs(store_targets, count=6)
        store_serial = build_campaign(store, workers=1).run(jobs)
        store_parallel = build_campaign(store, workers=4).run(jobs)
        payload_parallel = SchedulingCampaignExecutor(memory_graph, workers=4).run(jobs)
        assert_outcomes_identical(store_serial, store_parallel)
        assert_outcomes_identical(store_parallel, payload_parallel)

    def test_worker_stats_record_rss(self, store, sweep_jobs, store_targets):
        executor = SchedulingCampaignExecutor(store, workers=2)
        executor.run(sweep_jobs(store_targets, count=4))
        assert executor.last_worker_stats
        for stats in executor.last_worker_stats:
            assert stats["max_rss_kb"] > 0

    def test_store_checkpoint_resume(self, store, tmp_path, sweep_jobs, assert_outcomes_identical, store_targets):
        jobs = sweep_jobs(store_targets, count=6)
        checkpoint = tmp_path / "campaign.jsonl"
        AttackCampaign(store, checkpoint_path=checkpoint).run(jobs[:2])
        resumed = SchedulingCampaignExecutor(
            store, workers=3, checkpoint_path=checkpoint
        ).run(jobs)
        fresh = AttackCampaign(store).run(jobs)
        assert resumed.resumed_jobs == 2
        assert_outcomes_identical(fresh, resumed)

    def test_dense_backend_rejected(self, store):
        with pytest.raises(ValueError, match="'auto', 'sparse'"):
            SchedulingCampaignExecutor(store, workers=2, backend="dense")


class TestShardTruncation:
    def test_truncated_shard_mid_record_resumes(self, store, tmp_path, sweep_jobs, assert_outcomes_identical, store_targets):
        """Satellite: kill a worker mid-append (simulated by truncating its
        shard inside the final record) — the resume must skip exactly the
        torn job, warn, and still converge to the serial result."""
        jobs = sweep_jobs(store_targets, count=6)
        checkpoint = tmp_path / "campaign.jsonl"
        executor = SchedulingCampaignExecutor(
            store, workers=2, checkpoint_path=checkpoint
        )
        executor.run(jobs)
        # forge a killed run: move two completed outcomes back into a shard,
        # then tear the shard's last record in half
        lines = checkpoint.read_text().splitlines()
        assert len(lines) == len(jobs) + 1  # header + one line per job
        shard = tmp_path / "campaign.jsonl.shard0"
        torn = lines[-1][: len(lines[-1]) // 2]
        shard.write_text("\n".join([lines[0], lines[-2], torn]) + "\n")
        checkpoint.write_text("\n".join(lines[:-2]) + "\n")

        resumed = SchedulingCampaignExecutor(
            store, workers=3, checkpoint_path=checkpoint
        ).run(jobs)
        fresh = AttackCampaign(store).run(jobs)
        # everything the intact shard lines held was recovered; only the
        # torn record re-ran
        assert resumed.resumed_jobs == len(jobs) - 1
        assert_outcomes_identical(fresh, resumed)
        assert not shard.exists()  # merged and removed


class TestFingerprintRoundTrip:
    def test_tagged_csr_through_executor_with_checkpoint(self, store, tmp_path, sweep_jobs, assert_outcomes_identical, store_targets):
        """Passing the store's *tagged CSR* (not the GraphStore) must work:
        the parent fingerprints by the store token, workers rebuild from a
        byte payload — the token has to survive the spec round-trip or the
        shard merge rejects every completed job."""
        jobs = sweep_jobs(store_targets, count=4)
        checkpoint = tmp_path / "campaign.jsonl"
        via_csr = SchedulingCampaignExecutor(
            store.csr(), workers=2, checkpoint_path=checkpoint
        ).run(jobs)
        fresh = AttackCampaign(store).run(jobs)
        assert_outcomes_identical(fresh, via_csr)
        # and the checkpoint interoperates with a GraphStore-built campaign
        resumed = AttackCampaign(store, checkpoint_path=checkpoint).run(jobs)
        assert resumed.resumed_jobs == len(jobs)

    def test_spec_round_trip_preserves_token(self, store):
        spec = EngineSpec.from_graph(store.csr())
        assert spec.kind == "csr"
        assert spec.fingerprint == store.content_hash
        rebuilt = spec.to_graph()
        assert rebuilt._repro_fingerprint == spec.fingerprint
