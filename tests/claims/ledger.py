"""The paper's claims at ci scale, evaluated over the experiment drivers'
payloads into one ledger.

:func:`run_drivers` runs the Fig. 4, Table II, Fig. 6 and Fig. 10 drivers
once each; :func:`evaluate` turns their payloads into a ledger that maps
each claim to the cells it tested, the cells that hold and the cells it
skipped as saturated.  Every τ in those payloads is
:func:`repro.oddball.scores.tau_as`; the ledger compares them and never
recomputes one.  ``tests/claims/test_claims.py`` asserts on the ledger;
run this file to print it, one line per claim::

    PYTHONPATH=src python tests/claims/ledger.py [--seed 0]
"""

from __future__ import annotations

import argparse
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.attacks.campaign import CheckpointStore
from repro.experiments import fig4_effectiveness, fig6_preferences, fig10_defense
from repro.experiments import table2_side_effects
from repro.experiments.config import CI

#: τ tolerance of every ordering claim.
BAND = 0.05
#: A Fig. 4 cell is saturated, and its τ ordering untested, when either
#: attack's mean relative surrogate drop exceeds this: the surrogate is
#: a sum of squared residuals, so once the largest target is gone the
#: attacks cannot tell the remaining τ gaps apart.
SATURATED_DROP = 0.99
#: The significance level Table II's p-values must stay above.
ALPHA = 0.05


@dataclass
class Tally:
    """One claim's cells: tested, holding, and skipped as saturated."""

    tested: list = field(default_factory=list)
    held: list = field(default_factory=list)
    skipped: list = field(default_factory=list)

    def check(self, cell, holds: bool) -> None:
        self.tested.append(cell)
        if holds:
            self.held.append(cell)

    @property
    def failing(self) -> list:
        held = set(self.held)
        return [cell for cell in self.tested if cell not in held]


def run_drivers(seed: int = 0) -> dict:
    """Every payload the claims read, at ci scale.

    The Fig. 4 payload gains, per panel, every job's ``surrogate_by_budget``
    grouped by attack, read back from the driver's own campaign checkpoints.
    """
    with tempfile.TemporaryDirectory() as checkpoints:
        fig4 = fig4_effectiveness.run(CI, seed=seed, campaign_checkpoint=checkpoints)
        for panel in fig4["panels"]:
            path = Path(checkpoints) / f"fig4_{panel['panel']}.json"
            surrogates: dict[str, list[dict[int, float]]] = {}
            for line in path.read_bytes().splitlines():
                outcome = CheckpointStore.read_line(line)
                if outcome is not None:
                    surrogates.setdefault(outcome.job.attack, []).append(
                        outcome.surrogate_by_budget
                    )
            panel["surrogates"] = surrogates
    return {
        "fig4": fig4,
        "table2": table2_side_effects.run(CI, seed=seed),
        "fig6": fig6_preferences.run(CI, seed=seed),
        "fig10": fig10_defense.run(CI, seed=seed),
    }


def _mean_drop(losses: "list[dict[int, float]]", budget: int) -> float:
    """Mean over jobs of the relative surrogate drop from the clean loss."""
    return float(np.mean([1.0 - job[budget] / job[0] for job in losses]))


def evaluate(payloads: dict) -> "dict[str, Tally]":
    """The claims over the driver payloads; cells are ``(name, budget %)``."""
    ledger = {
        name: Tally()
        for name in (
            "fig4.binarized.not_flat",
            "fig4.binarized.surrogate_monotone",
            "fig4.binarized.tau_vs_gradmax",
            "fig4.continuousa.tau_nonnegative",
            "table2.p_above_alpha",
            "fig6.high_above_others",
            "fig10.robust_le_ols",
        )
    }
    for panel in payloads["fig4"]["panels"]:
        name, budgets, tau = panel["panel"], panel["budgets"], panel["tau_mean"]
        binarized = tau["binarizedattack"]
        ledger["fig4.binarized.not_flat"].check(name, len(set(binarized)) > 1)
        for job, losses in enumerate(panel["surrogates"]["binarizedattack"]):
            series = [losses[b] for b in range(len(losses))]
            ledger["fig4.binarized.surrogate_monotone"].check(
                (name, job),
                all(later <= earlier for earlier, later in zip(series, series[1:])),
            )
        for i, budget in enumerate(budgets):
            cell = (name, round(panel["edges_changed_pct"][i], 2))
            ledger["fig4.continuousa.tau_nonnegative"].check(
                cell, tau["continuousa"][i] >= -BAND
            )
            drops = [
                _mean_drop(panel["surrogates"][attack], budget)
                for attack in ("binarizedattack", "gradmaxsearch")
            ]
            if max(drops) > SATURATED_DROP:
                ledger["fig4.binarized.tau_vs_gradmax"].skipped.append(cell)
            else:
                ledger["fig4.binarized.tau_vs_gradmax"].check(
                    cell, binarized[i] >= tau["gradmaxsearch"][i] - BAND
                )
    for dataset, rows in payloads["table2"]["table"].items():
        for row in rows:
            for feature in ("p_n", "p_e"):
                ledger["table2.p_above_alpha"].check(
                    (dataset, row["experiment"], feature), row[feature] > ALPHA
                )
    fig6 = payloads["fig6"]
    for i, pct in enumerate(fig6["edges_changed_pct"]):
        groups = {name: series[i] for name, series in fig6["tau_by_group"].items()}
        ledger["fig6.high_above_others"].check(
            ("fig6", round(pct, 2)),
            groups["high"] > max(groups["medium"], groups["low"]),
        )
    for dataset, data in payloads["fig10"]["datasets"].items():
        tau = data["tau"]
        for i, pct in enumerate(data["edges_changed_pct"]):
            ledger["fig10.robust_le_ols"].check(
                (dataset, round(pct, 2)),
                max(tau["huber"][i], tau["ransac"][i]) <= tau["ols"][i] + BAND,
            )
    return ledger


def main(argv: "list[str] | None" = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for name, tally in evaluate(run_drivers(args.seed)).items():
        print(
            f"{name:36} tested {len(tally.tested):3}  held {len(tally.held):3}  "
            f"skipped {len(tally.skipped):3}  failing {tally.failing}"
        )


if __name__ == "__main__":
    main()
