"""Smoke-level integration tests: every experiment driver runs end-to-end at
a tiny scale and produces a well-formed payload + formatted text.

These are the repository's strongest integration tests — they exercise the
full stack (datasets → detector → attacks → victims → metrics) exactly the
way the benchmark harness does.
"""

import inspect

import numpy as np
import pytest

from repro.experiments import (
    fig4_effectiveness,
    fig5_case_study,
    fig6_preferences,
    fig7_distributions,
    fig10_defense,
    table1_datasets,
    table2_side_effects,
)
from repro.experiments.common import attack_suite_params
from repro.experiments.config import SMOKE
from repro.experiments.runner import EXPERIMENTS, run_experiment

TINY = SMOKE.with_(n_repeats=1, attack_iterations=25, permutation_resamples=100)


class TestTable1:
    def test_payload_and_text(self):
        payload = table1_datasets.run(scale=TINY, seed=3)
        assert len(payload["rows"]) == 5
        for row in payload["rows"]:
            assert row["edges"] > 0
        text = table1_datasets.format_results(payload)
        assert "bitcoin-alpha" in text


class TestFig4:
    def test_single_panel(self):
        payload = fig4_effectiveness.run(
            scale=TINY, seed=3, panels=(("bitcoin-alpha", 10),)
        )
        panel = payload["panels"][0]
        assert set(panel["tau_mean"]) == {"gradmaxsearch", "continuousa", "binarizedattack"}
        lengths = {len(v) for v in panel["tau_mean"].values()}
        assert lengths == {len(panel["budgets"])}
        # the headline claim at max budget on this panel: binarized >= continuous
        assert (
            panel["tau_mean"]["binarizedattack"][-1]
            >= panel["tau_mean"]["continuousa"][-1] - 0.15
        )
        text = fig4_effectiveness.format_results(payload)
        assert "binarizedattack" in text


class TestFig5:
    def test_cases_reduce_scores(self):
        payload = fig5_case_study.run(scale=TINY, seed=3, n_cases=2)
        assert len(payload["cases"]) == 2
        for case in payload["cases"]:
            assert case["ascore_after"] <= case["ascore_before"]
            assert case["edges_added"] + case["edges_deleted"] <= payload["budget"]
        assert "Fig 5" in fig5_case_study.format_results(payload)


class TestFig6:
    def test_groups_and_regressions(self):
        payload = fig6_preferences.run(scale=TINY, seed=3, per_group=4)
        assert set(payload["tau_by_group"]) == {"low", "medium", "high"}
        assert np.isfinite(payload["regression_clean"]["beta1"])
        assert "regression poisoned" in fig6_preferences.format_results(payload)


class TestTable2:
    def test_pvalues_in_range(self):
        payload = table2_side_effects.run(
            scale=TINY, seed=3, datasets=("bitcoin-alpha",), n_experiments=1
        )
        rows = payload["table"]["bitcoin-alpha"]
        for row in rows:
            assert 0.0 < row["p_n"] <= 1.0
            assert 0.0 < row["p_e"] <= 1.0
        assert "Table II" in table2_side_effects.format_results(payload)


class TestFig7:
    def test_density_series(self):
        payload = fig7_distributions.run(scale=TINY, seed=3, bins=10)
        for feature in ("N", "E"):
            series = payload["series"][feature]
            assert len(series["centers"]) == 10
            assert len(series["clean"]) == 10
            summary = payload["summary"][feature]
            assert 0.0 <= summary["total_variation"] <= 1.0 + 1e-9
        assert "TV-distance" in fig7_distributions.format_results(payload)


class TestFig10:
    def test_defense_curves(self):
        payload = fig10_defense.run(scale=TINY, seed=3, datasets=("bitcoin-alpha",))
        data = payload["datasets"]["bitcoin-alpha"]
        assert set(data["tau"]) == {"ols", "huber", "ransac"}
        assert len(data["tau"]["ols"]) == len(data["budgets"])
        assert "no-defence" in fig10_defense.format_results(payload)


class TestRunner:
    def test_registry_covers_every_artifact(self):
        assert set(EXPERIMENTS) == {
            "table1", "fig4", "fig5", "fig6", "table2",
            "fig7", "table3", "table4", "fig8_9", "fig10",
        }

    def test_run_experiment_writes_outputs(self, tmp_path):
        payload, text = run_experiment("table1", scale=TINY, seed=3, output_dir=tmp_path)
        assert (tmp_path / "table1_smoke.json").exists()
        assert (tmp_path / "table1_smoke.txt").exists()
        assert payload["rows"]

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_no_driver_takes_a_backend(self):
        drivers = [attack_suite_params, run_experiment] + [
            run_fn for run_fn, _ in EXPERIMENTS.values()
        ]
        for driver in drivers:
            assert "backend" not in inspect.signature(driver).parameters, driver
