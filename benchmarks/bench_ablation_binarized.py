"""Ablation bench for BinarizedAttack: how much of the attack is gradient
guidance (see the module docstring of :mod:`repro.attacks.binarized`).

Not a paper artefact — it compares the attack with GradMax, the OddBall
heuristic and random perturbations at the same budget.
"""


from repro.attacks import BinarizedAttack, GradMaxSearch, OddBallHeuristic, RandomAttack
from repro.graph.datasets import load_dataset
from repro.oddball.detector import OddBall
from repro.utils.rng import SeedSequenceFactory


def _setup(bench_scale, bench_seed):
    seeds = SeedSequenceFactory(bench_seed)
    dataset = load_dataset("bitcoin-alpha", rng=seeds.generator("dataset-bitcoin-alpha"),
                           scale=bench_scale.graph_scale)
    report = OddBall().analyze(dataset.graph)
    rng = seeds.generator("ablation-targets")
    pool = report.top_k(min(50, dataset.n_nodes))
    targets = sorted(int(v) for v in rng.choice(pool, size=5, replace=False))
    budget = max(bench_scale.budgets_for(dataset.graph.number_of_edges)[-1], 6)
    return dataset.graph, targets, budget


def test_bench_ablation_gradient_guidance(benchmark, bench_scale, bench_seed):
    """How much of the attack is gradient guidance vs random perturbation."""
    graph, targets, budget = _setup(bench_scale, bench_seed)

    def run():
        return {
            "binarized": BinarizedAttack(iterations=bench_scale.attack_iterations)
            .attack(graph, targets, budget)
            .score_decrease(targets),
            "gradmax": GradMaxSearch().attack(graph, targets, budget).score_decrease(targets),
            "heuristic": OddBallHeuristic(rng=0)
            .attack(graph, targets, budget)
            .score_decrease(targets),
            "random": RandomAttack(rng=0).attack(graph, targets, budget).score_decrease(targets),
            "random_target_biased": RandomAttack(rng=0, target_biased=True)
            .attack(graph, targets, budget)
            .score_decrease(targets),
        }

    taus = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nablation gradient guidance: {taus}")
    # gradient-based methods beat blind perturbation ...
    assert taus["binarized"] > taus["random"] + 0.1
    assert taus["gradmax"] > taus["random"] + 0.1
    # ... and the domain-knowledge heuristic sits in between
    assert taus["heuristic"] > taus["random"]
    assert taus["binarized"] >= taus["heuristic"] - 0.1
