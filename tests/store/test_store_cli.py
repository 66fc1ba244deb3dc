"""Tests for the ``python -m repro.store`` argument parser."""

import pytest

from repro.attacks import ATTACK_REGISTRY
from repro.attacks.candidates import CANDIDATE_STRATEGIES
from repro.kernels import KERNEL_BACKENDS
from repro.store.cli import main


def test_campaign_candidates_choices_are_the_strategy_registry(capsys):
    with pytest.raises(SystemExit):
        main(["campaign", "er", "--candidates", "legacy-full"])
    err = capsys.readouterr().err
    assert "invalid choice: 'legacy-full'" in err
    for strategy in CANDIDATE_STRATEGIES:
        assert repr(strategy) in err


def _choices(err: str) -> "list[str]":
    """The names an argparse ``invalid choice`` error offers, in order."""
    offered = err.split("(choose from ", 1)[1].split(")")[0]
    return [name.strip("'") for name in offered.split(", ")]


def test_campaign_attack_choices_are_the_attack_registry(capsys):
    with pytest.raises(SystemExit):
        main(["campaign", "er", "--attack", "nettack"])
    assert _choices(capsys.readouterr().err) == sorted(ATTACK_REGISTRY)


def test_campaign_kernels_choices_are_the_kernel_backends(capsys):
    with pytest.raises(SystemExit):
        main(["campaign", "er", "--kernels", "gpu"])
    assert _choices(capsys.readouterr().err) == list(KERNEL_BACKENDS)


@pytest.mark.parametrize(
    "flags", [["--block-size", "64"], ["--block-seed", "3"]], ids=["size", "seed"]
)
@pytest.mark.parametrize("candidates", [[], ["--candidates", "full"]],
                         ids=["default", "full"])
def test_campaign_rejects_block_knobs_without_block(capsys, tmp_path, flags, candidates):
    with pytest.raises(SystemExit) as error:
        main(["campaign", "er", "--cache", str(tmp_path), *candidates, *flags])
    assert error.value.code == 2
    assert "need the 'block' candidate strategy" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())  # rejected before any store build
