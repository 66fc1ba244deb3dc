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
