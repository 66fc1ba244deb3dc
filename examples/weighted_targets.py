"""Unequal target importances (the κ-weighted objective of Section IV-B).

The paper evaluates only κ ≡ 1, noting the methods "can be easily extended
to the case with unequal weights".  This example exercises that extension:
a VIP target gets 100× the weight of two decoys, and the attack concentrates
its budget accordingly.

Run:  python examples/weighted_targets.py
"""

from repro.attacks import BinarizedAttack
from repro.graph import load_dataset
from repro.oddball import OddBall


def main() -> None:
    dataset = load_dataset("wikivote", rng=7, scale=0.25)
    graph = dataset.graph
    detector = OddBall()
    report = detector.analyze(graph)
    targets = report.top_k(3).tolist()
    vip, *decoys = targets
    print(f"targets: VIP = v{vip}, decoys = {decoys}")

    budget = 8
    attack = BinarizedAttack(iterations=100)
    before = report.scores

    for label, weights in (
        ("uniform kappa", [1.0, 1.0, 1.0]),
        ("VIP kappa=100", [100.0, 1.0, 1.0]),
    ):
        result = attack.attack(graph, targets, budget, target_weights=weights)
        after = detector.scores(result.poisoned())
        drops = {t: before[t] - after[t] for t in targets}
        vip_share = drops[vip] / max(sum(drops.values()), 1e-9)
        print(f"\n{label}: flips = {len(result.flips())}")
        for t in targets:
            marker = " <- VIP" if t == vip else ""
            print(f"  v{t}: AScore {before[t]:6.2f} -> {after[t]:6.2f}{marker}")
        print(f"  VIP's share of total score reduction: {vip_share:.0%}")


if __name__ == "__main__":
    main()
