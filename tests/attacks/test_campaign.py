"""Campaign semantics: batching is a performance lever, never a semantics
change.  A campaign over k jobs must be bit-identical to k sequential
standalone ``attack()`` calls (on the sparse engine and on the injected
dense oracle), resume
deterministically from checkpoints, and keep the adaptive candidate set a
superset of ``target_incident`` at every step."""

import dataclasses
import hashlib
import json
import logging

import numpy as np
import pytest
from scipy import sparse

from repro import telemetry
from repro.attacks import (
    ATTACK_REGISTRY,
    AttackCampaign,
    AttackJob,
    BinarizedAttack,
    CampaignResult,
    CandidateSet,
    CheckpointStore,
    GradMaxSearch,
    grid_jobs,
)
from repro.attacks.candidates import AdaptiveCandidateSet
from repro.attacks.scheduler import Lease
from repro.graph.generators import erdos_renyi
from repro.graph.sparse import content_hash
from repro.oddball.surrogate import (
    DenseSurrogateEngine,
    SparseSurrogateEngine,
    SurrogateEngine,
)

# graph_and_targets comes from tests/conftest.py (shared campaign fixture)


def _engine(backend, graph, targets):
    """The dense autograd oracle for ``"dense"``; ``None`` (the attack's or
    campaign's own sparse engine) for ``"sparse"``."""
    return DenseSurrogateEngine(graph, targets) if backend == "dense" else None


#: Per-attack parameters that keep a one-job campaign cheap.
_FAST_PARAMS = {
    "binarizedattack": {"iterations": 15},
    "continuousa": {"max_iter": 15},
    "random": {"rng": 5},
    "oddball-heuristic": {"rng": 5},
}


def _mixed_jobs(targets):
    jobs = grid_jobs(
        "gradmaxsearch", [[t] for t in targets[:4]], budgets=[3],
        candidates="target_incident",
    )
    jobs += grid_jobs(
        "binarizedattack", [targets[:3]], budgets=[2, 3],
        candidates="target_incident", iterations=30,
    )
    jobs += grid_jobs(
        "continuousa", [targets[:2]], budgets=[2],
        candidates="target_incident", max_iter=15,
    )
    return jobs


class TestCampaignMatchesSequential:
    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_bit_identical_to_sequential_calls(self, graph_and_targets, backend):
        graph, targets = graph_and_targets
        jobs = _mixed_jobs(targets)
        result = AttackCampaign(graph, engine=_engine(backend, graph, targets)).run(jobs)
        for job, outcome in zip(jobs, result):
            solo = job.build_attack().attack(
                graph, list(job.targets), job.budget, candidates=job.candidates,
                engine=_engine(backend, graph, job.targets),
            )
            assert outcome.metadata["backend"] == backend
            assert {
                b: solo.flips(b) for b in solo.budgets
            } == outcome.flips_by_budget, job.attack
            for b, loss in solo.surrogate_by_budget.items():
                assert outcome.surrogate_by_budget[b] == pytest.approx(loss, rel=1e-12)

    def test_sparse_input_campaign(self, graph_and_targets):
        graph, targets = graph_and_targets
        csr = sparse.csr_matrix(graph.adjacency)
        jobs = grid_jobs(
            "gradmaxsearch", [[t] for t in targets[:3]], budgets=[3],
            candidates="target_incident",
        )
        from_sparse = AttackCampaign(csr).run(jobs)
        assert all(o.metadata["backend"] == "sparse" for o in from_sparse)
        from_dense = AttackCampaign(graph).run(jobs)
        for a, b in zip(from_sparse, from_dense):
            assert a.flips_by_budget == b.flips_by_budget

    def test_baseline_attacks_run_standalone(self, graph_and_targets):
        graph, targets = graph_and_targets
        jobs = [
            AttackJob.make("random", targets[:3], 3,
                           candidates="target_incident", rng=5),
            AttackJob.make("oddball-heuristic", targets[:3], 3, rng=5),
        ]
        result = AttackCampaign(graph).run(jobs)
        for job, outcome in zip(jobs, result):
            solo = job.build_attack().attack(
                graph, list(job.targets), job.budget, candidates=job.candidates
            )
            assert {b: solo.flips(b) for b in solo.budgets} == outcome.flips_by_budget

    def test_weighted_targets_job(self, graph_and_targets):
        graph, targets = graph_and_targets
        job = AttackJob.make(
            "gradmaxsearch", targets[:3], 3,
            candidates="target_incident", weights=[2.0, 1.0, 0.5],
        )
        outcome = AttackCampaign(graph).run([job]).outcome(job)
        solo = GradMaxSearch().attack(
            graph, list(job.targets), 3,
            target_weights=[2.0, 1.0, 0.5], candidates="target_incident",
        )
        assert {b: solo.flips(b) for b in solo.budgets} == outcome.flips_by_budget


class TestCampaignOutcomes:
    def test_score_decrease_matches_public_api(self, graph_and_targets):
        graph, targets = graph_and_targets
        job = AttackJob.make("gradmaxsearch", targets[:2], 4,
                             candidates="target_incident")
        outcome = AttackCampaign(graph).run([job]).outcome(job)
        reconstructed = outcome.attack_result(graph.adjacency)
        assert outcome.score_decrease == pytest.approx(
            reconstructed.score_decrease(list(job.targets)), rel=1e-9
        )

    def test_rank_shifts_bury_targets(self, graph_and_targets):
        graph, targets = graph_and_targets
        job = AttackJob.make("gradmaxsearch", [targets[0]], 4,
                             candidates="target_incident")
        outcome = AttackCampaign(graph).run([job]).outcome(job)
        # a successful attack pushes the target DOWN the ranking
        assert outcome.rank_shifts[targets[0]] > 0

    def test_outcomes_match_a_from_scratch_rescore(self, graph_and_targets):
        """τ and rank shifts scored on the shared engine equal a full
        OddBall re-score of the poisoned CSR, job by job."""
        from repro.attacks import apply_flips
        from repro.oddball.detector import OddBall
        from repro.oddball.scores import rank_positions

        graph, targets = graph_and_targets
        csr = sparse.csr_matrix(graph.adjacency)
        clean = OddBall().scores(csr)
        clean_ranks = rank_positions(clean)
        jobs = grid_jobs("gradmaxsearch", [[t] for t in targets[:4]], budgets=[3],
                         candidates="target_incident")
        for job, outcome in zip(jobs, AttackCampaign(csr).run(jobs)):
            (target,) = job.targets
            poisoned = OddBall().scores(apply_flips(csr, outcome.flips))
            tau = (clean[target] - poisoned[target]) / clean[target]
            assert outcome.score_decrease == pytest.approx(tau, abs=1e-9)
            shift = int(rank_positions(poisoned)[target] - clean_ranks[target])
            assert outcome.rank_shifts == {target: shift}

    def test_compute_ranks_off(self, graph_and_targets):
        graph, targets = graph_and_targets
        job = AttackJob.make("gradmaxsearch", [targets[0]], 2,
                             candidates="target_incident")
        outcome = AttackCampaign(graph, compute_ranks=False).run([job]).outcome(job)
        assert outcome.rank_shifts == {}

    @pytest.mark.parametrize("attack", sorted(ATTACK_REGISTRY))
    def test_result_roundtrips_through_json(self, graph_and_targets, attack, tmp_path):
        """Every checkpoint, queue and trace-sink payload is JSON-pure: it
        reads back from ``json`` as the same value, numpy-bearing metadata
        included, for a job of every registered attack."""
        graph, targets = graph_and_targets
        job = AttackJob.make(
            attack, targets[:2], 2, candidates="target_incident",
            **_FAST_PARAMS.get(attack, {}),
        )
        result = AttackCampaign(graph).run([job])
        numpy_metadata = dataclasses.replace(result.outcome(job), metadata={
            "count": np.int64(3), "flag": np.bool_(True),
            "array": np.arange(3), "pair": (1, 2),
        })
        result.outcomes.append(numpy_metadata)
        result.worker_stats.append({"jobs": np.int64(1), "max_rss_kb": 1024})
        tracer = telemetry.Tracer(
            telemetry.TelemetrySink(telemetry.sink_path(tmp_path, "w0"), worker="w0"),
            worker="w0",
        )
        with tracer.span("job", attack=attack) as span:
            pass
        tracer.close()
        lease = Lease(job_ids=(job.job_id,), worker="w0", deadline=1.5)
        for payload in (
            job.to_dict(),
            *(o.to_dict() for o in result.outcomes),
            result.to_dict(),
            lease.to_dict(),
            span.to_dict(),
        ):
            assert json.loads(json.dumps(payload)) == payload
        back = CampaignResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert back.to_dict() == result.to_dict()
        assert [o.job_id for o in back] == [o.job_id for o in result]


class TestCampaignResume:
    def test_resume_is_deterministic(self, graph_and_targets, tmp_path):
        graph, targets = graph_and_targets
        jobs = _mixed_jobs(targets)
        checkpoint = tmp_path / "campaign.json"
        # "interrupt" after the first three jobs
        AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs[:3])
        resumed = AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        fresh = AttackCampaign(graph).run(jobs)
        assert resumed.resumed_jobs == 3
        for a, b in zip(resumed, fresh):
            assert a.flips_by_budget == b.flips_by_budget
            assert a.surrogate_by_budget == b.surrogate_by_budget
            assert a.rank_shifts == b.rank_shifts

    def test_completed_campaign_resumes_without_work(self, graph_and_targets, tmp_path):
        graph, targets = graph_and_targets
        jobs = grid_jobs("gradmaxsearch", [[t] for t in targets[:3]], budgets=[2],
                         candidates="target_incident")
        checkpoint = tmp_path / "campaign.json"
        first = AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        again = AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        assert again.resumed_jobs == len(jobs)
        for a, b in zip(first, again):
            assert a.flips_by_budget == b.flips_by_budget
            assert a.seconds == b.seconds  # replayed from the checkpoint

    def test_checkpoint_rejects_different_graph(self, graph_and_targets, tmp_path):
        graph, targets = graph_and_targets
        jobs = grid_jobs("gradmaxsearch", [[targets[0]]], budgets=[2],
                         candidates="target_incident")
        checkpoint = tmp_path / "campaign.json"
        AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        other = erdos_renyi(90, 0.1, rng=1)
        with pytest.raises(ValueError, match="different"):
            AttackCampaign(other, checkpoint_path=checkpoint).run(jobs)

    @pytest.mark.parametrize("first, second", [("dense", "csr"), ("csr", "dense")])
    def test_dense_and_csr_backings_resume_each_other(
        self, graph_and_targets, tmp_path, first, second
    ):
        """The checkpoint names the graph by its content hash, not by the
        bytes of whichever container carried it."""
        graph, targets = graph_and_targets
        adjacency = np.array(graph.adjacency_view)
        backings = {"dense": adjacency, "csr": sparse.csr_matrix(adjacency)}
        jobs = grid_jobs("gradmaxsearch", [[t] for t in targets[:2]], budgets=[2],
                         candidates="target_incident")
        checkpoint = tmp_path / "campaign.json"
        AttackCampaign(backings[first], checkpoint_path=checkpoint).run(jobs)
        resumed = AttackCampaign(
            backings[second], checkpoint_path=checkpoint
        ).run(jobs)
        assert resumed.resumed_jobs == len(jobs)

    def test_row_reversed_csr_resumes_sorted_csr_checkpoint(
        self, graph_and_targets, tmp_path
    ):
        graph, targets = graph_and_targets
        ordered = sparse.csr_matrix(np.array(graph.adjacency_view))
        indices = np.array(ordered.indices)
        for row in range(ordered.shape[0]):
            start, stop = ordered.indptr[row], ordered.indptr[row + 1]
            indices[start:stop] = indices[start:stop][::-1]
        reordered = sparse.csr_matrix(
            (ordered.data.copy(), indices, ordered.indptr.copy()),
            shape=ordered.shape,
        )
        assert not reordered.has_sorted_indices
        jobs = grid_jobs("gradmaxsearch", [[t] for t in targets[:2]], budgets=[2],
                         candidates="target_incident")
        checkpoint = tmp_path / "campaign.json"
        AttackCampaign(ordered, checkpoint_path=checkpoint).run(jobs)
        resumed = AttackCampaign(reordered, checkpoint_path=checkpoint).run(jobs)
        assert resumed.resumed_jobs == len(jobs)

    def test_version_1_header_is_unsupported(self, graph_and_targets, tmp_path):
        """Version-1 headers named store graphs by recipe, not content: they
        fail loudly instead of being matched against a content hash."""
        graph, targets = graph_and_targets
        jobs = grid_jobs("gradmaxsearch", [[targets[0]]], budgets=[2],
                         candidates="target_incident")
        checkpoint = tmp_path / "campaign.json"
        AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        header, *records = checkpoint.read_text().splitlines()
        header = json.loads(header)
        assert header["version"] == 5
        header["version"] = 1
        checkpoint.write_text("\n".join([json.dumps(header), *records]) + "\n")
        with pytest.raises(ValueError, match="unsupported version 1"):
            AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)

    def test_version_2_header_is_unsupported(self, graph_and_targets, tmp_path):
        """Version-2 headers carried the engine backend and hashed it into
        the fingerprint; they are refused rather than silently resumed."""
        graph, targets = graph_and_targets
        jobs = grid_jobs("gradmaxsearch", [[targets[0]]], budgets=[2],
                         candidates="target_incident")
        checkpoint = tmp_path / "campaign.json"
        AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        header, *records = checkpoint.read_text().splitlines()
        header = json.loads(header)
        assert set(header) == {"version", "fingerprint", "n"}
        n = graph.number_of_nodes
        legacy = hashlib.sha1(
            f"sparse:{n}:{content_hash(graph.adjacency)}".encode()
        ).hexdigest()
        header = {"version": 2, "fingerprint": legacy, "backend": "sparse", "n": n}
        checkpoint.write_text("\n".join([json.dumps(header), *records]) + "\n")
        with pytest.raises(ValueError, match="unsupported version 2"):
            AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)

    def test_version_3_binarized_checkpoint_is_unsupported(
        self, graph_and_targets, tmp_path
    ):
        """Version 3 held BinarizedAttack outcomes of the λ-ladder
        algorithm under the job ids the budget-projected one keeps: a
        resume would return the old flips, so the file is refused by name."""
        graph, targets = graph_and_targets
        jobs = grid_jobs("binarizedattack", [targets[:2]], budgets=[2], iterations=4)
        checkpoint = tmp_path / "campaign.json"
        AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        header, *records = checkpoint.read_text().splitlines()
        header = json.loads(header)
        assert json.loads(records[0])["job"]["attack"] == "binarizedattack"
        header["version"] = 3
        checkpoint.write_text("\n".join([json.dumps(header), *records]) + "\n")
        with pytest.raises(ValueError, match="unsupported version 3") as refused:
            AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        assert str(checkpoint) in str(refused.value)

    def test_version_4_continuous_checkpoint_is_unsupported(
        self, graph_and_targets, tmp_path
    ):
        """Version 4 held ContinuousA outcomes of the box-clipped step
        under the job ids the budget-projected one keeps: a resume would
        return the old flips, so the file is refused by name."""
        graph, targets = graph_and_targets
        jobs = grid_jobs("continuousa", [targets[:2]], budgets=[2], max_iter=4)
        checkpoint = tmp_path / "campaign.json"
        AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        header, *records = checkpoint.read_text().splitlines()
        header = json.loads(header)
        assert json.loads(records[0])["job"]["attack"] == "continuousa"
        header["version"] = 4
        checkpoint.write_text("\n".join([json.dumps(header), *records]) + "\n")
        with pytest.raises(ValueError, match="unsupported version 4") as refused:
            AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        assert str(checkpoint) in str(refused.value)

    def test_duplicate_jobs_rejected(self, graph_and_targets):
        graph, targets = graph_and_targets
        job = AttackJob.make("gradmaxsearch", [targets[0]], 2)
        with pytest.raises(ValueError, match="duplicate"):
            AttackCampaign(graph).run([job, job])

    @pytest.mark.parametrize("strategy", ["two_hop", "adaptive"])
    def test_record_naming_a_deleted_strategy_costs_that_record(
        self, graph_and_targets, tmp_path, caplog, strategy
    ):
        """A record whose job names a candidate strategy that no longer
        exists fails ``AttackJob.make``: it is skipped with the warning
        naming the file, and every other record still resumes."""
        graph, targets = graph_and_targets
        jobs = grid_jobs("gradmaxsearch", [[t] for t in targets[:3]], budgets=[2],
                         candidates="target_incident")
        checkpoint = tmp_path / "campaign.json"
        AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        lines = checkpoint.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[2])
        record["job"]["candidates"] = strategy
        lines[2] = json.dumps(record).encode() + b"\n"
        assert CheckpointStore.read_line(lines[2]) is None
        checkpoint.write_bytes(b"".join(lines))
        with caplog.at_level(logging.WARNING, logger="repro.attacks.campaign"):
            resumed = AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        assert resumed.resumed_jobs == 2
        assert any(str(checkpoint) in record.getMessage() for record in caplog.records)
        fresh = AttackCampaign(graph).run(jobs)
        for a, b in zip(resumed, fresh):
            assert a.flips_by_budget == b.flips_by_budget

    def test_parseable_but_incomplete_record_is_skipped(
        self, graph_and_targets, tmp_path
    ):
        """A tear can land exactly on a close-brace, leaving valid JSON
        with fields missing — that record must cost one job, not the file."""
        graph, targets = graph_and_targets
        jobs = grid_jobs("gradmaxsearch", [[t] for t in targets[:2]], budgets=[2],
                         candidates="target_incident")
        checkpoint = tmp_path / "campaign.json"
        AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        lines = checkpoint.read_text().splitlines()
        # truncate the last record to a parseable prefix: its "job" object
        torn = json.loads(lines[-1])["job"]
        lines[-1] = json.dumps({"job": torn})
        checkpoint.write_text("\n".join(lines) + "\n")
        resumed = AttackCampaign(graph, checkpoint_path=checkpoint).run(jobs)
        fresh = AttackCampaign(graph).run(jobs)
        assert resumed.resumed_jobs == 1
        for a, b in zip(resumed, fresh):
            assert a.flips_by_budget == b.flips_by_budget

    @pytest.mark.parametrize("backend", ["dense", "sparse"])
    def test_failed_job_leaves_engine_clean(self, graph_and_targets, backend):
        graph, targets = graph_and_targets
        campaign = AttackCampaign(graph, engine=_engine(backend, graph, targets))
        good = grid_jobs("gradmaxsearch", [[t] for t in targets[:2]], budgets=[3],
                         candidates="target_incident")
        # run one job so the shared engine exists and holds state
        first = campaign.run(good[:1])
        # a job whose attack blows up mid-run: force a failure via an
        # interrupt-like exception inside attack
        boom = AttackJob.make("gradmaxsearch", [targets[0]], 2)
        original_attack = GradMaxSearch.attack

        def exploding_attack(self, graph_, targets_, budget, **kwargs):
            engine = kwargs.get("engine")
            if engine is not None:
                engine.apply_flip(0, 1)  # poison, then die mid-job
                raise KeyboardInterrupt
            return original_attack(self, graph_, targets_, budget, **kwargs)

        GradMaxSearch.attack = exploding_attack
        try:
            with pytest.raises(KeyboardInterrupt):
                campaign.run([boom])
        finally:
            GradMaxSearch.attack = original_attack
        # the shared engine must have been restored: rerunning the good jobs
        # on the SAME campaign instance matches a fresh campaign exactly
        rerun = campaign.run(good)
        fresh = AttackCampaign(graph, engine=_engine(backend, graph, targets)).run(good)
        for a, b in zip(rerun, fresh):
            assert a.flips_by_budget == b.flips_by_budget
        assert first.outcome(good[0]).flips_by_budget == rerun.outcome(
            good[0]
        ).flips_by_budget


class TestJobSpecs:
    def test_job_id_is_content_addressed(self):
        a = AttackJob.make("gradmaxsearch", [3, 1], 2, candidates="target_incident")
        b = AttackJob.make("gradmaxsearch", (3, 1), 2, candidates="target_incident")
        c = AttackJob.make("gradmaxsearch", [3, 2], 2, candidates="target_incident")
        assert a.job_id == b.job_id
        assert a.job_id != c.job_id

    def test_job_roundtrips_with_stable_id(self):
        job = AttackJob.make(
            "binarizedattack", [1, 2], 3,
            candidates="adaptive_gradient", weights=[1.0, 2.0], iterations=20,
        )
        back = AttackJob.from_dict(json.loads(json.dumps(job.to_dict())))
        assert back == job
        assert back.job_id == job.job_id

    def test_rejects_unknown_attack_and_strategy(self):
        with pytest.raises(ValueError, match="unknown attack"):
            AttackJob.make("nope", [0], 1)
        with pytest.raises(ValueError, match="strategy"):
            AttackJob.make("gradmaxsearch", [0], 1, candidates="bogus")

    def test_every_registered_attack_is_job_buildable(self):
        # the campaign resolves repro.attacks.ATTACK_REGISTRY lazily — a
        # newly registered attack must be job-buildable with no extra wiring
        from repro.attacks import ATTACK_REGISTRY, StructuralAttack

        for name in ATTACK_REGISTRY:
            job = AttackJob.make(name, [0], 1)
            assert isinstance(job.build_attack(), StructuralAttack)

    def test_rejects_params_the_attack_does_not_take(self):
        # caught at job-BUILD time, not mid-campaign
        with pytest.raises(ValueError, match="does not accept"):
            AttackJob.make("gradmaxsearch", [0], 1, iterations=5)
        with pytest.raises(ValueError, match="does not accept"):
            grid_jobs("binarizedattack", [[0]], budgets=[1], lambdas=[0.1])

    def test_backend_is_neither_a_job_param_nor_a_campaign_option(self, graph_and_targets):
        graph, _ = graph_and_targets
        for attack in ("gradmaxsearch", "binarizedattack", "continuousa"):
            with pytest.raises(ValueError, match="does not accept"):
                AttackJob.make(attack, [0], 1, backend="dense")
        with pytest.raises(TypeError, match="backend"):
            AttackCampaign(graph, backend="sparse")

    def test_grid_jobs_is_targets_by_budgets(self):
        jobs = grid_jobs("binarizedattack", [[0], [1]], budgets=[2, 3], iterations=10)
        assert [(j.targets, j.budget) for j in jobs] == [
            ((0,), 2), ((0,), 3), ((1,), 2), ((1,), 3)
        ]
        assert all(dict(j.params) == {"iterations": 10} for j in jobs)


class TestAdaptiveCandidates:
    def test_starts_as_target_incident(self, graph_and_targets):
        graph, targets = graph_and_targets
        adaptive = CandidateSet.build("adaptive_gradient", graph, targets)
        incident = CandidateSet.target_incident(graph.number_of_nodes, targets)
        assert adaptive.pair_set() == incident.pair_set()
        assert adaptive.strategy == "adaptive_gradient"

    def test_refresh_grows_superset_of_target_incident(self, graph_and_targets):
        graph, targets = graph_and_targets
        n = graph.number_of_nodes
        incident = CandidateSet.target_incident(n, targets).pair_set()
        adaptive = CandidateSet.build("adaptive_gradient", graph, targets)
        engine = SurrogateEngine.create(graph.adjacency, targets, adaptive)
        # land flips touching non-ball nodes and check the invariant holds
        outsiders = [v for v in range(n) if v not in set(targets)][:4]
        for v in outsiders:
            grown = adaptive.refresh([(targets[0], v)], engine)
            assert incident <= grown.pair_set()
            assert adaptive.pair_set() <= grown.pair_set()
            assert v in grown.ball
            adaptive = grown
        # flips between existing ball members change nothing
        assert adaptive.refresh([(targets[0], outsiders[0])], engine) is adaptive

    def test_static_strategies_refresh_to_self(self, graph_and_targets):
        graph, targets = graph_and_targets
        static = CandidateSet.build("target_incident", graph, targets)
        assert static.refresh([(0, 1)]) is static

    def test_refresh_requires_engine_for_growth(self, graph_and_targets):
        graph, targets = graph_and_targets
        adaptive = CandidateSet.build("adaptive_gradient", graph, targets)
        outsider = next(v for v in range(graph.number_of_nodes)
                        if v not in set(targets))
        with pytest.raises(ValueError, match="engine"):
            adaptive.refresh([(targets[0], outsider)])

    @pytest.mark.parametrize("attack_cls", [GradMaxSearch, BinarizedAttack])
    def test_adaptive_backend_parity(self, graph_and_targets, attack_cls):
        graph, targets = graph_and_targets
        kwargs = {"iterations": 15} if attack_cls is BinarizedAttack else {}
        dense = attack_cls(**kwargs).attack(
            graph, targets[:3], 4, candidates="adaptive_gradient",
            engine=DenseSurrogateEngine(graph, targets[:3]),
        )
        fast = attack_cls(**kwargs).attack(
            graph, targets[:3], 4, candidates="adaptive_gradient"
        )
        assert dense.flips_by_budget == fast.flips_by_budget

    def test_adaptive_final_set_contains_flipped_pairs(
        self, graph_and_targets, monkeypatch
    ):
        graph, targets = graph_and_targets
        searched = []
        gradient = SparseSurrogateEngine.candidate_gradient

        def recording(engine):
            searched.append(engine.rows.size)
            return gradient(engine)

        monkeypatch.setattr(SparseSurrogateEngine, "candidate_gradient", recording)
        result = GradMaxSearch().attack(
            graph, targets[:3], 5, candidates="adaptive_gradient"
        )
        incident = CandidateSet.target_incident(
            graph.number_of_nodes, targets[:3]
        )
        assert result.metadata["candidate_strategy"] == "adaptive_gradient"
        assert result.metadata["candidate_count"] >= len(incident)
        # the size of the set the final step searched: no refresh follows it
        assert len(searched) == result.metadata["steps_taken"] == 5
        assert result.metadata["candidate_count"] == searched[-1] > searched[0]

    def test_adaptive_campaign_jobs(self, graph_and_targets):
        graph, targets = graph_and_targets
        jobs = grid_jobs("gradmaxsearch", [[t] for t in targets[:3]], budgets=[3],
                         candidates="adaptive_gradient")
        result = AttackCampaign(graph).run(jobs)
        for job, outcome in zip(jobs, result):
            solo = GradMaxSearch().attack(
                graph, list(job.targets), job.budget, candidates="adaptive_gradient"
            )
            assert {b: solo.flips(b) for b in solo.budgets} == outcome.flips_by_budget

    def test_adaptive_set_validates_like_candidate_set(self):
        with pytest.raises(ValueError):
            AdaptiveCandidateSet(
                n=4,
                rows=np.array([2], dtype=np.intp),
                cols=np.array([1], dtype=np.intp),  # not canonical
            )
