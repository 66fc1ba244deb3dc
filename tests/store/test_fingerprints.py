"""One content hash per graph: a store CSR, its detached payload, the dense
array and a row-reordered CSR of one graph share one checkpoint fingerprint,
so their checkpoints resume each other with no environment set, while a
graph one edge away is still refused."""

import numpy as np
import pytest
from scipy import sparse

from repro.attacks import AttackCampaign, SchedulingCampaignExecutor, grid_jobs
from repro.attacks.campaign import graph_fingerprint
from repro.graph.sparse import content_hash
from repro.store import GraphStore, build_store


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    cache = tmp_path_factory.mktemp("fingerprint-store-cache")
    return build_store("blogcatalog", cache_dir=cache, scale=0.25, seed=5)


def _sweep_jobs(store, count=5, budget=2):
    return grid_jobs(
        "gradmaxsearch", [[int(t)] for t in store.top_targets(count)],
        budgets=[budget], candidates="target_incident",
    )


def _row_reversed(csr):
    """The same CSR with every row's indices stored in descending order."""
    indices = np.array(csr.indices)
    for row in range(csr.shape[0]):
        start, stop = csr.indptr[row], csr.indptr[row + 1]
        indices[start:stop] = indices[start:stop][::-1]
    return sparse.csr_matrix(
        (np.array(csr.data), indices, np.array(csr.indptr)), shape=csr.shape
    )


def _one_edge_flipped(csr):
    """A copy of the graph with the pair ``(0, n - 1)`` toggled."""
    lil = csr.tolil()
    last = csr.shape[0] - 1
    lil[0, last] = lil[last, 0] = 1.0 - lil[0, last]
    return lil.tocsr()


class TestContentHash:
    def test_manifest_records_the_content_hash(self, store):
        assert store.manifest["content_hash"] == content_hash(store.detached_csr())

    def test_every_backing_shares_one_fingerprint(self, monkeypatch, store):
        monkeypatch.delenv("REPRO_STORE_CACHE", raising=False)
        payload = store.detached_csr()
        reversed_rows = _row_reversed(payload)
        assert not reversed_rows.has_sorted_indices
        fingerprints = {
            graph_fingerprint(store.csr(), "sparse"),
            graph_fingerprint(payload, "sparse"),
            graph_fingerprint(payload.toarray(), "sparse"),
            graph_fingerprint(reversed_rows, "sparse"),
        }
        assert len(fingerprints) == 1

    def test_backend_changes_the_fingerprint(self, store):
        payload = store.detached_csr()
        assert graph_fingerprint(payload, "sparse") != graph_fingerprint(
            payload, "dense"
        )

    def test_store_fingerprint_reads_no_mapped_array(self, store):
        """The store CSR is named from its manifest token alone: with its
        mapped arrays swapped for objects that fail on any read, it still
        fingerprints, and to the same name as the payload."""

        class Unreadable:
            def __getattr__(self, name):
                raise AssertionError(f"fingerprinting read a mapped array ({name})")

            def __array__(self, *args, **kwargs):
                raise AssertionError("fingerprinting read a mapped array")

        csr = GraphStore.open(store.path).csr()
        csr.indices = csr.indptr = csr.data = Unreadable()
        assert graph_fingerprint(csr, "sparse") == graph_fingerprint(
            store.detached_csr(), "sparse"
        )


class TestCrossBackingResume:
    def test_payload_campaign_resumes_store_checkpoint(self, store, tmp_path):
        jobs = _sweep_jobs(store)
        checkpoint = tmp_path / "campaign.jsonl"
        AttackCampaign(
            store.csr(), backend="sparse", checkpoint_path=checkpoint
        ).run(jobs)
        resumed = AttackCampaign(
            store.detached_csr(), backend="sparse", checkpoint_path=checkpoint
        ).run(jobs)
        assert resumed.resumed_jobs == len(jobs)

    def test_store_campaign_resumes_payload_checkpoint(self, store, tmp_path):
        jobs = _sweep_jobs(store)
        checkpoint = tmp_path / "campaign.jsonl"
        AttackCampaign(
            store.detached_csr(), backend="sparse", checkpoint_path=checkpoint
        ).run(jobs)
        resumed = AttackCampaign(
            store.csr(), backend="sparse", checkpoint_path=checkpoint
        ).run(jobs)
        assert resumed.resumed_jobs == len(jobs)

    def test_store_executor_resumes_payload_checkpoint(self, store, tmp_path):
        jobs = _sweep_jobs(store)
        checkpoint = tmp_path / "campaign.jsonl"
        AttackCampaign(
            store.detached_csr(), backend="sparse", checkpoint_path=checkpoint
        ).run(jobs[:3])
        resumed = SchedulingCampaignExecutor(
            store, workers=2, checkpoint_path=checkpoint
        ).run(jobs)
        assert resumed.resumed_jobs == 3

    def test_one_flipped_edge_still_refuses_resume(self, store, tmp_path):
        jobs = _sweep_jobs(store, count=2)
        checkpoint = tmp_path / "campaign.jsonl"
        AttackCampaign(
            store.csr(), backend="sparse", checkpoint_path=checkpoint
        ).run(jobs)
        with pytest.raises(ValueError, match="different"):
            AttackCampaign(
                _one_edge_flipped(store.detached_csr()), backend="sparse",
                checkpoint_path=checkpoint,
            ).run(jobs)
