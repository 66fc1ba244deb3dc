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


@pytest.mark.parametrize("attack", ["random", "oddball-heuristic"])
def test_campaign_rejects_block_size_for_attacks_without_it(
    capsys, monkeypatch, tmp_path, attack
):
    """The baselines take no ``block_size``: the job grid's check fails in
    ``main()`` with a usage error, before the store is resolved or built."""
    import repro.store.cli as cli

    resolved = []
    monkeypatch.setattr(cli, "_resolve_store", lambda *a, **k: resolved.append(a))
    with pytest.raises(SystemExit) as error:
        main(["campaign", "er", "--cache", str(tmp_path), "--attack", attack,
              "--candidates", "block", "--block-size", "64"])
    assert error.value.code == 2
    assert f"{attack} does not accept parameter(s) ['block_size']" in capsys.readouterr().err
    assert resolved == []
    assert not any(tmp_path.iterdir())
