"""Ablation bench: all implemented defences side by side (extension).

Fig. 10 evaluates Huber and RANSAC; the reproduction adds the low-rank SVD
graph-purification defence (related-work family [24]).  This bench puts the
three on the same attack instance and prints a defence league table.
"""


from repro.attacks import BinarizedAttack
from repro.graph.datasets import load_dataset
from repro.oddball.defense import purified_scores
from repro.oddball.detector import OddBall
from repro.oddball.robust import ESTIMATORS
from repro.oddball.scores import tau_as
from repro.utils.rng import SeedSequenceFactory


def test_bench_defense_league(benchmark, bench_scale, bench_seed):
    seeds = SeedSequenceFactory(bench_seed)
    dataset = load_dataset(
        "bitcoin-alpha", rng=seeds.generator("dataset-bitcoin-alpha"),
        scale=bench_scale.graph_scale,
    )
    graph = dataset.graph
    adjacency = graph.adjacency
    report = OddBall().analyze(graph)
    rng = seeds.generator("defense-targets")
    targets = sorted(
        int(v) for v in rng.choice(report.top_k(min(50, dataset.n_nodes)), 5, replace=False)
    )
    budget = max(bench_scale.budgets_for(graph.number_of_edges)[-1], 6)
    purify_rank = max(dataset.n_nodes // 4, 8)

    def run():
        result = BinarizedAttack(iterations=bench_scale.attack_iterations).attack(
            graph, targets, budget
        )
        poisoned = result.poisoned()
        taus = {}
        for estimator in ESTIMATORS:
            detector = OddBall(estimator, seeds.generator(f"defense-{estimator}"))
            before = detector.scores(adjacency)[targets].sum()
            after = detector.scores(poisoned)[targets].sum()
            taus[estimator] = tau_as(float(before), float(after))
        before = purified_scores(adjacency, rank=purify_rank)[targets].sum()
        after = purified_scores(poisoned.toarray(), rank=purify_rank)[targets].sum()
        taus["svd-purify"] = tau_as(float(before), float(after))
        return taus

    taus = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\ndefence league (lower tau = better defence): {taus}")
    # the attack must succeed without defence ...
    assert taus["ols"] > 0.3
    # ... and no defence should flip the sign of the attack's effect wildly
    for name, tau in taus.items():
        assert -0.5 <= tau <= 1.0, (name, tau)
