"""Tests for BinarizedAttack (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import telemetry
from repro.attacks.binarized import BinarizedAttack, _Candidate, _top_k
from repro.attacks.constraints import filter_valid_flips_engine
from repro.attacks.random_attack import RandomAttack
from repro.oddball.detector import OddBall
from repro.telemetry import tracer as tracer_module


@pytest.fixture()
def attack_setup(small_ba_graph):
    report = OddBall().analyze(small_ba_graph)
    targets = report.top_k(3).tolist()
    return small_ba_graph, targets


def fast_attack(**overrides):
    defaults = dict(iterations=40, lambdas=(0.3, 0.05))
    defaults.update(overrides)
    return BinarizedAttack(**defaults)


class TestConstruction:
    def test_rejects_empty_lambdas(self):
        with pytest.raises(ValueError):
            BinarizedAttack(lambdas=())

    def test_rejects_negative_lambda(self):
        with pytest.raises(ValueError):
            BinarizedAttack(lambdas=(-0.1,))

    def test_rejects_bad_iterations(self):
        with pytest.raises(ValueError):
            BinarizedAttack(iterations=0)

    def test_rejects_bad_init(self):
        with pytest.raises(ValueError):
            BinarizedAttack(init=1.5)


class TestAttackInvariants:
    def test_budget_respected_at_every_level(self, attack_setup):
        graph, targets = attack_setup
        result = fast_attack().attack(graph, targets, budget=6)
        for b in result.budgets:
            assert len(result.flips(b)) <= b

    def test_poisoned_adjacency_valid(self, attack_setup):
        graph, targets = attack_setup
        result = fast_attack().attack(graph, targets, budget=6)
        poisoned = result.poisoned().toarray()
        assert np.array_equal(poisoned, poisoned.T)
        assert set(np.unique(poisoned)) <= {0.0, 1.0}
        assert np.diagonal(poisoned).sum() == 0.0

    def test_no_singletons(self, attack_setup):
        graph, targets = attack_setup
        result = fast_attack().attack(graph, targets, budget=8)
        degrees = result.poisoned().toarray().sum(axis=1)
        assert not ((degrees == 0) & (graph.degrees() > 0)).any()

    def test_surrogate_non_increasing_in_budget(self, attack_setup):
        """Best-recorded-solution selection is monotone by construction."""
        graph, targets = attack_setup
        result = fast_attack().attack(graph, targets, budget=6)
        losses = [result.surrogate_by_budget[b] for b in sorted(result.surrogate_by_budget)]
        assert all(b <= a + 1e-9 for a, b in zip(losses, losses[1:]))

    def test_budget_zero_is_clean_graph(self, attack_setup):
        graph, targets = attack_setup
        result = fast_attack().attack(graph, targets, budget=0)
        np.testing.assert_allclose(result.poisoned(0).toarray(), graph.adjacency)


class TestAttackQuality:
    def test_decreases_target_scores(self, attack_setup):
        graph, targets = attack_setup
        result = fast_attack(iterations=80).attack(graph, targets, budget=8)
        assert result.score_decrease(targets) > 0.1

    def test_beats_random_baseline(self, attack_setup):
        graph, targets = attack_setup
        binarized = fast_attack(iterations=80).attack(graph, targets, budget=8)
        random = RandomAttack(rng=0).attack(graph, targets, budget=8)
        assert binarized.score_decrease(targets) > random.score_decrease(targets)

    def test_metadata_recorded(self, attack_setup):
        graph, targets = attack_setup
        result = fast_attack().attack(graph, targets, budget=4)
        assert result.metadata["lambdas"] == [0.3, 0.05]
        assert result.metadata["candidates_recorded"] >= 1

    def test_textbook_pgd_path_runs(self, attack_setup):
        """normalize_gradient=False exercises the plain Alg. 1 update."""
        graph, targets = attack_setup
        result = fast_attack(normalize_gradient=False, lr=1e-3).attack(
            graph, targets, budget=4
        )
        assert result.max_budget == 4

    def test_larger_lambda_means_fewer_flips(self, attack_setup):
        """LASSO sparsity: a harsh λ yields no more flips than a mild one."""
        graph, targets = attack_setup
        harsh = BinarizedAttack(iterations=60, lambdas=(0.9,)).attack(graph, targets, 10)
        mild = BinarizedAttack(iterations=60, lambdas=(0.01,)).attack(graph, targets, 10)
        assert len(harsh.flips()) <= len(mild.flips()) + 1


class TestFloorConsistency:
    """Regression: `_record`/`_select` re-scored trimmed flip sets at a
    hard-coded floor of 1.0 while forward losses used ``self.floor``,
    corrupting the per-budget argmin whenever ``floor != 1.0``."""

    @pytest.mark.parametrize("floor", [2.0, 0.5])
    def test_recorded_losses_reproducible_at_attack_floor(self, attack_setup, floor):
        from repro.oddball.surrogate import surrogate_loss_numpy

        graph, targets = attack_setup
        attack = fast_attack(floor=floor)
        result = attack.attack(graph, targets, budget=5)
        for budget, loss in result.surrogate_by_budget.items():
            reproduced = surrogate_loss_numpy(
                result.poisoned(budget), targets, floor=floor
            )
            assert loss == pytest.approx(reproduced, rel=1e-12), (
                f"budget {budget}: recorded loss mixes floors"
            )

    def test_base_loss_seeded_at_attack_floor(self, attack_setup):
        from repro.oddball.surrogate import surrogate_loss_numpy

        graph, targets = attack_setup
        result = fast_attack(floor=2.0, iterations=5).attack(graph, targets, budget=3)
        assert result.surrogate_by_budget[0] == surrogate_loss_numpy(
            graph.adjacency, targets, floor=2.0
        )


_LENGTHS = st.integers(0, 60)
_VALUES = st.one_of(
    # heavy ties, signed zeros
    hnp.arrays(np.float64, _LENGTHS, elements=st.sampled_from([0.0, -0.0, 0.1, 0.5, 1.0])),
    hnp.arrays(np.float64, _LENGTHS, elements=st.floats(width=64)),
    # all equal
    st.builds(np.full, _LENGTHS, st.sampled_from([0.0, 0.3])),
)


class TestTopK:
    @settings(max_examples=300, deadline=None)
    @given(_VALUES, st.integers(0, 70))
    def test_equals_the_stable_full_sort(self, values, k):
        expected = np.argsort(-values, kind="stable")[:k]
        assert _top_k(values, k).tolist() == expected.tolist()


def _reference_select(recorded, engine, budget, final_zdot, rows, cols):
    """The selection as it ran before partial sorting: per budget, a min
    over every eligible recorded set, then a fallback over a full stable
    argsort of the final Ż, validated and scored budget by budget."""
    order = np.argsort(-final_zdot, kind="stable")
    flips, losses = {}, {}
    for b in range(budget + 1):
        best = min((c for c in recorded if c.size <= b), key=lambda c: (c.surrogate, c.size))
        chosen, loss = list(best.flips), best.surrogate
        if not chosen and b > 0:
            ranked = [
                (int(rows[k]), int(cols[k])) for k in order[: 4 * b] if final_zdot[k] > 0.0
            ]
            fallback = filter_valid_flips_engine(engine, ranked, limit=b)
            if fallback:
                fallback_loss = engine.score_flips(fallback)
                if fallback_loss < best.surrogate:
                    chosen, loss = fallback, fallback_loss
        flips[b], losses[b] = chosen, loss
    return flips, losses


class _ReferenceCheckedAttack(BinarizedAttack):
    """Computes the reference selection on the exact inputs of `_select`."""

    def _select(self, recorded, engine, budget, final_zdot, rows, cols):
        self.reference = _reference_select(recorded, engine, budget, final_zdot, rows, cols)
        return super()._select(recorded, engine, budget, final_zdot, rows, cols)


class TestSelection:
    @pytest.mark.parametrize("kernels", ["numpy", "compiled"])
    @pytest.mark.parametrize("iterations", [1, 40])
    @pytest.mark.parametrize("candidates", [None, "target_incident"])
    def test_matches_the_full_sort_reference(
        self, attack_setup, kernels, iterations, candidates, use_kernels
    ):
        """``iterations=1`` records nothing (Ż starts at 0, so the first
        iterate flips nothing), so every b > 0 takes the top-Ż fallback;
        40 iterations record sets of several sizes."""
        use_kernels(kernels)
        graph, targets = attack_setup
        attack = _ReferenceCheckedAttack(iterations=iterations, lambdas=(0.3, 0.05))
        result = attack.attack(graph, targets, budget=8, candidates=candidates)
        flips, losses = attack.reference
        assert result.flips_by_budget == flips
        assert result.surrogate_by_budget == losses
        if iterations == 1:
            assert result.metadata["candidates_recorded"] == 1
            fallback = [result.flips(b) for b in range(1, 9) if result.flips(b)]
            assert len(fallback) >= 2
            for shorter, longer in zip(fallback, fallback[1:]):
                assert longer[: len(shorter)] == shorter

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 6), st.sampled_from([0.5, 1.0, 1.5, 2.0])),
            max_size=30,
        )
    )
    def test_best_recorded_set_is_the_first_minimum(self, iterates):
        """Ties on (surrogate, size) go to the first recorded set, as with
        ``min`` over every eligible set."""
        recorded = [_Candidate((), 1.5, 0.0, -1)] + [
            _Candidate(tuple((i, i + j + 1) for j in range(size)), loss, 0.1, i)
            for i, (size, loss) in enumerate(iterates)
        ]
        flips, losses = BinarizedAttack()._select(recorded, None, 6, None, None, None)
        for b in range(7):
            best = min((c for c in recorded if c.size <= b), key=lambda c: (c.surrogate, c.size))
            assert flips[b] == list(best.flips)
            assert losses[b] == best.surrogate


def _counter(directory, name):
    return sum(
        record["count"] for record in telemetry.load_trace_dir(directory)
        if record["kind"] == "counter" and record["name"] == name
    )


class TestSelectionCounters:
    @pytest.mark.parametrize("iterations", [1, 40])
    def test_recorded_and_fallback_counts(self, attack_setup, tmp_path, iterations):
        graph, targets = attack_setup
        telemetry.configure(tmp_path / "trace")
        try:
            result = fast_attack(iterations=iterations).attack(graph, targets, budget=8)
        finally:
            # Closes (flushes) this trace, then lets the next test resolve
            # $REPRO_TELEMETRY afresh, as the tracing CI lane expects.
            telemetry.shutdown()
            tracer_module._RESOLVED = False
        recorded = _counter(tmp_path / "trace", "attacks.binarized.recorded")
        assert recorded == result.metadata["candidates_recorded"] - 1
        fallback = _counter(tmp_path / "trace", "attacks.binarized.fallback")
        if iterations == 1:
            assert recorded == 0
            assert fallback == sum(bool(result.flips(b)) for b in range(1, 9)) > 0
        else:
            assert recorded > 0


class TestCarriedRefresh:
    """A refresh of the engine's own set reads only the admitted pairs."""

    @pytest.mark.parametrize(
        "strategy, block_size", [("adaptive_gradient", None), ("block", 64)]
    )
    def test_reads_after_the_first_retarget_cover_admissions_only(
        self, attack_setup, monkeypatch, strategy, block_size
    ):
        from repro.oddball.surrogate import SparseSurrogateEngine, SurrogateEngine

        graph, targets = attack_setup
        # a campaign-style shared engine: built with no pairs, retargeted
        engine = SurrogateEngine.create(
            graph, targets, (np.empty(0, np.intp), np.empty(0, np.intp))
        )
        reads, admissions = [], []
        real_read = SparseSurrogateEngine._pair_values
        real_set = SurrogateEngine.set_candidates

        def read(self, rows, cols):
            reads.append(int(rows.size))
            return real_read(self, rows, cols)

        def set_candidates(self, candidates=None):
            lineage = getattr(candidates, "lineage", None)
            if lineage is not None and lineage.admitted.size:
                admissions.append(int(lineage.admitted.size))
            return real_set(self, candidates)

        monkeypatch.setattr(SparseSurrogateEngine, "_pair_values", read)
        monkeypatch.setattr(SurrogateEngine, "set_candidates", set_candidates)
        fast_attack(block_size=block_size).attack(
            graph, targets, budget=4, candidates=strategy, engine=engine
        )
        assert len(reads) > 1, "no refresh admitted a pair"
        assert reads[1:] == admissions
