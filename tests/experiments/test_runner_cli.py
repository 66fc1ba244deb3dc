"""Tests for the experiment runner CLI (main entry point)."""

import pytest

from repro.experiments.runner import main


class TestMain:
    def test_single_experiment_prints_table(self, capsys, tmp_path):
        exit_code = main(
            ["--experiment", "table1", "--scale", "smoke", "--seed", "3",
             "--output", str(tmp_path)]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "Table I" in captured.out
        assert (tmp_path / "table1_smoke.json").exists()

    def test_requires_experiment_or_all(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_experiment_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["--experiment", "fig99"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            main(["--experiment", "table1", "--scale", "huge"])

    def test_backend_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["--experiment", "fig4", "--backend", "dense"])
        assert "unrecognized arguments: --backend" in capsys.readouterr().err

    def test_candidates_choices_are_the_strategy_registry(self, capsys):
        from repro.attacks.candidates import CANDIDATE_STRATEGIES

        with pytest.raises(SystemExit):
            main(["--experiment", "fig4", "--candidates", "legacy-full"])
        err = capsys.readouterr().err
        assert "invalid choice: 'legacy-full'" in err
        for strategy in CANDIDATE_STRATEGIES:
            assert repr(strategy) in err

    def test_kernels_choices_are_the_kernel_backends(self, capsys):
        from repro.kernels import KERNEL_BACKENDS

        with pytest.raises(SystemExit):
            main(["--experiment", "fig4", "--kernels", "gpu"])
        err = capsys.readouterr().err
        offered = err.split("(choose from ", 1)[1].split(")")[0]
        assert [name.strip("'") for name in offered.split(", ")] == list(KERNEL_BACKENDS)

    @pytest.mark.parametrize(
        "flags", [["--block-size", "64"], ["--block-seed", "3"]], ids=["size", "seed"]
    )
    @pytest.mark.parametrize(
        "candidates", [[], ["--candidates", "target_incident"]],
        ids=["default", "target_incident"],
    )
    def test_block_knobs_without_block_strategy_rejected(
        self, capsys, flags, candidates
    ):
        with pytest.raises(SystemExit) as error:
            main(["--experiment", "fig4", *candidates, *flags])
        assert error.value.code == 2
        assert "need the 'block' candidate strategy" in capsys.readouterr().err
