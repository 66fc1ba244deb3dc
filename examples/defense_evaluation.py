"""Countermeasures: OddBall with robust regression under attack (Section VII).

The defender swaps the OLS power-law fit for a Huber M-estimator or RANSAC.
Both blunt the attack a little — and the example also shows the *adaptive*
attacker (an extension beyond the paper): re-optimising the poison while the
defence is in place recovers part of the lost effectiveness.

Run:  python examples/defense_evaluation.py
"""

import numpy as np

from repro.attacks import BinarizedAttack
from repro.graph import load_dataset
from repro.oddball import ESTIMATORS, OddBall, tau_as


def scores_under(adjacency: np.ndarray, estimator: str) -> np.ndarray:
    return OddBall(estimator, rng=0).scores(adjacency)


def main() -> None:
    dataset = load_dataset("bitcoin-alpha", rng=7, scale=0.25)
    graph = dataset.graph
    adjacency = graph.adjacency

    report = OddBall().analyze(graph)
    rng = np.random.default_rng(1)
    targets = sorted(int(v) for v in rng.choice(report.top_k(50), size=5, replace=False))
    budget = 12
    print(f"targets {targets}, budget {budget}\n")

    result = BinarizedAttack(iterations=120).attack(graph, targets, budget)
    poisoned = result.poisoned()

    print(f"{'estimator':>10} {'S_T clean':>10} {'S_T poisoned':>13} {'tau':>7}")
    for estimator in ESTIMATORS:
        before = scores_under(adjacency, estimator)[targets].sum()
        after = scores_under(poisoned, estimator)[targets].sum()
        tau = tau_as(before, after)
        print(f"{estimator:>10} {before:>10.3f} {after:>13.3f} {tau:>6.1%}")

    print(
        "\nreading: Huber/RANSAC re-estimation mitigates the attack only "
        "slightly — BinarizedAttack remains effective (the paper's Fig. 10)."
    )

    # ---- extension: adaptive attacker against the robust defender ---------
    # The robust fit is not differentiable in closed form, so the adaptive
    # attacker keeps the OLS surrogate for gradients but *selects* among its
    # recorded candidates by the defender's actual (robust) score.
    print("\nadaptive attacker vs Huber defence:")
    best_tau, best_b = -np.inf, 0
    before_huber = scores_under(adjacency, "huber")[targets].sum()
    for b in result.budgets:
        after_huber = scores_under(result.poisoned(b), "huber")[targets].sum()
        tau = tau_as(before_huber, after_huber)
        if tau > best_tau:
            best_tau, best_b = tau, b
    print(f"  best budget against Huber: B={best_b}, tau = {best_tau:.1%}")


if __name__ == "__main__":
    main()
