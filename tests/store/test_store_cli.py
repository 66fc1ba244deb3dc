"""Tests for the ``python -m repro.store`` argument parser."""

import pytest

from repro.attacks.candidates import CANDIDATE_STRATEGIES
from repro.store.cli import main


def test_campaign_candidates_choices_are_the_strategy_registry(capsys):
    with pytest.raises(SystemExit):
        main(["campaign", "er", "--candidates", "legacy-full"])
    err = capsys.readouterr().err
    assert "invalid choice: 'legacy-full'" in err
    for strategy in CANDIDATE_STRATEGIES:
        assert repr(strategy) in err
