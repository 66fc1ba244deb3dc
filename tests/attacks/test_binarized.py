"""Tests for BinarizedAttack (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import telemetry
from repro.attacks.binarized import (
    BinarizedAttack,
    _Candidate,
    _schedule,
    _top_k,
    project_budget,
    projected_step,
)
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
    defaults = dict(iterations=40)
    defaults.update(overrides)
    return BinarizedAttack(**defaults)


class TestConstruction:
    def test_rejects_bad_iterations(self):
        with pytest.raises(ValueError):
            BinarizedAttack(iterations=0)

    @pytest.mark.parametrize(
        "knob", [{"lambdas": (0.1,)}, {"init": 0.5}, {"normalize_gradient": False}]
    )
    def test_the_budget_projection_is_the_only_mechanism(self, knob):
        with pytest.raises(TypeError):
            BinarizedAttack(**knob)

    @pytest.mark.parametrize(
        "budget, iterations, expected",
        [
            (0, 10, []),
            (1, 10, [(1, 10)]),
            (2, 10, [(1, 5), (2, 5)]),
            (5, 11, [(3, 6), (5, 5)]),
            (8, 1, [(4, 1), (8, 0)]),
        ],
    )
    def test_schedule_splits_the_steps_over_two_levels(self, budget, iterations, expected):
        assert _schedule(budget, iterations) == expected


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
        assert result.metadata["iterations"] == 40
        assert result.metadata["lr"] == 0.1
        assert result.metadata["candidates_recorded"] >= 1


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


_GUESSES = st.floats(-2.0, 3.0)


def _reference_projection(values, level):
    """The projection onto ``{x ∈ [0, 1]^m : Σx ≤ level}`` by a full sort:
    ``Σ clip(v − μ, 0, 1)`` is linear between consecutive breakpoints
    ``{v, v − 1}``, so the root is interpolated on the piece that brackets it."""
    clipped = np.clip(values, 0.0, 1.0)
    if clipped.sum() <= level:
        return clipped
    points = np.unique(np.concatenate([values, values - 1.0, [0.0]]))
    points = points[points >= 0.0]
    sums = np.array([np.clip(values - p, 0.0, 1.0).sum() for p in points])
    i = int(np.flatnonzero(sums <= level)[0])
    if sums[i] == level:
        mu = points[i]
    else:
        mu = points[i - 1] + (sums[i - 1] - level) * (points[i] - points[i - 1]) / (
            sums[i - 1] - sums[i]
        )
    return np.clip(values - mu, 0.0, 1.0)


_PROJECTED = st.one_of(
    hnp.arrays(np.float64, _LENGTHS, elements=st.floats(-1.5, 2.5)),
    # ties, and entries exactly on the clip bounds
    hnp.arrays(
        np.float64, _LENGTHS, elements=st.sampled_from([-0.5, 0.0, 0.25, 0.5, 1.0, 1.5])
    ),
)
_LEVELS = st.one_of(st.integers(0, 8), st.floats(0.0, 8.0))


class TestProjection:
    @settings(max_examples=300, deadline=None)
    @given(_PROJECTED, _LEVELS, _GUESSES)
    def test_equals_the_sort_based_reference(self, values, level, guess):
        projected, _ = project_budget(values, level, guess)
        np.testing.assert_allclose(
            projected, _reference_projection(values, level), rtol=0, atol=1e-12
        )

    @settings(max_examples=300, deadline=None)
    @given(_PROJECTED, _LEVELS, _GUESSES)
    def test_result_is_feasible(self, values, level, guess):
        projected, shift = project_budget(values, level, guess)
        assert shift >= 0.0
        assert ((projected >= 0.0) & (projected <= 1.0)).all()
        assert projected.sum() <= level + 1e-9

    @settings(max_examples=300, deadline=None)
    @given(_PROJECTED, _LEVELS)
    def test_is_idempotent(self, values, level):
        once, _ = project_budget(values, level)
        twice, _ = project_budget(once, level)
        np.testing.assert_allclose(twice, once, rtol=0, atol=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(_PROJECTED, _LEVELS)
    def test_a_feasible_clip_is_returned_as_is(self, values, level):
        clipped = np.clip(values, 0.0, 1.0)
        if clipped.sum() <= level:
            projected, shift = project_budget(values, level, 0.7)
            assert shift == 0.0
            assert projected.tolist() == clipped.tolist()

    @settings(max_examples=300, deadline=None)
    @given(_PROJECTED, _LEVELS, st.lists(_GUESSES, min_size=2, max_size=4))
    def test_any_warm_start_gives_the_same_result(self, values, level, guesses):
        cold, _ = project_budget(values, level)
        for guess in guesses:
            warm, _ = project_budget(values, level, guess)
            np.testing.assert_allclose(warm, cold, rtol=0, atol=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(_PROJECTED, _PROJECTED, _LEVELS)
    def test_step_projects_the_normalised_update(self, values, gradient, level):
        """``projected_step`` is ``project(x − η·g / max|g|)``, and leaves
        its gradient argument untouched (an engine may memoise it)."""
        gradient = np.resize(gradient, values.shape)
        before = gradient.copy()
        stepped, shift = projected_step(values, gradient, 0.3, level, 0.0)
        scale = np.max(np.abs(gradient), initial=0.0)
        update = values - 0.3 * gradient / scale if scale > 0.0 else values
        expected, expected_shift = project_budget(update, level)
        np.testing.assert_allclose(stepped, expected, rtol=0, atol=1e-12)
        assert shift == pytest.approx(expected_shift, abs=1e-12)
        assert gradient.tobytes() == before.tobytes()


def _reference_round(engine, zdot, rows, cols, level):
    """A level's rounding with a full stable sort: the valid pairs among
    the top ``4ℓ`` positive entries of Ż, each prefix scored on its own."""
    order = [k for k in np.argsort(-zdot, kind="stable")[: 4 * level] if zdot[k] > 0.0]
    ranked = [(int(rows[k]), int(cols[k])) for k in order]
    rounded = filter_valid_flips_engine(engine, ranked, limit=level)
    return [
        _Candidate(tuple(rounded[:size]), engine.score_flips(rounded[:size]))
        for size in range(1, len(rounded) + 1)
    ]


def _reference_select(recorded, budget):
    """Per budget, a min over every eligible recorded set."""
    flips, losses = {}, {}
    for b in range(budget + 1):
        best = min((c for c in recorded if c.size <= b), key=lambda c: (c.surrogate, c.size))
        flips[b], losses[b] = list(best.flips), best.surrogate
    return flips, losses


class _ReferenceCheckedAttack(BinarizedAttack):
    """Checks each rounding and the selection against the references above,
    on the exact inputs of `_round` and `_select`."""

    rounded = 0

    def _round(self, recorded, engine, zdot, rows, cols, level):
        expected = _reference_round(engine, zdot, rows, cols, level)
        before = len(recorded)
        super()._round(recorded, engine, zdot, rows, cols, level)
        assert recorded[before:] == expected
        self.rounded += len(expected)

    def _select(self, recorded, budget):
        self.reference = _reference_select(recorded, budget)
        return super()._select(recorded, budget)


class TestSelection:
    @pytest.mark.parametrize("kernels", ["numpy", "compiled"])
    @pytest.mark.parametrize("iterations", [1, 40])
    @pytest.mark.parametrize("candidates", [None, "target_incident"])
    def test_matches_the_full_sort_reference(
        self, attack_setup, kernels, iterations, candidates, use_kernels
    ):
        """``iterations=1`` takes one step at ℓ = 4 and none at ℓ = 8, so
        the only iterate evaluated after a step is each level's last, and
        the rounding answers most budgets; 40 iterations record sets of
        several sizes."""
        use_kernels(kernels)
        graph, targets = attack_setup
        attack = _ReferenceCheckedAttack(iterations=iterations)
        result = attack.attack(graph, targets, budget=8, candidates=candidates)
        flips, losses = attack.reference
        assert result.flips_by_budget == flips
        assert result.surrogate_by_budget == losses
        assert attack.rounded > 0
        if iterations == 1:
            answers = [result.flips(b) for b in range(1, 9) if result.flips(b)]
            assert len(answers) >= 2

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
        recorded = [_Candidate((), 1.5)] + [
            _Candidate(tuple((i, i + j + 1) for j in range(size)), loss)
            for i, (size, loss) in enumerate(iterates)
        ]
        assert BinarizedAttack._select(recorded, 6) == _reference_select(recorded, 6)


def _counter(directory, name):
    return sum(
        record["count"] for record in telemetry.load_trace_dir(directory)
        if record["kind"] == "counter" and record["name"] == name
    )


class TestSelectionCounters:
    @pytest.mark.parametrize("iterations", [1, 40])
    def test_recorded_count(self, attack_setup, tmp_path, iterations):
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
        assert recorded == result.metadata["candidates_recorded"] - 1 > 0


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
