"""Table II — side effects: does the attack shift the ego-feature
distributions?

For each real dataset, 5 independent target samplings (|T| = 30 in the
paper) are attacked at the maximum budget; a Monte-Carlo permutation test
(Eq. 11) then compares the clean vs poisoned distributions of N and of E.
Paper finding: N is never significantly shifted; E occasionally is
(one Wikivote run at p < 0.01) — the attack is largely unnoticeable.
"""

from __future__ import annotations

from repro.attacks import BinarizedAttack
from repro.experiments.common import format_table, load_experiment_graph, sample_targets
from repro.experiments.config import CI, Scale
from repro.graph.sparse import egonet_features_sparse
from repro.ml.stats import permutation_test
from repro.oddball.detector import OddBall
from repro.utils.rng import SeedSequenceFactory

__all__ = ["format_results", "run"]

DATASETS = ("bitcoin-alpha", "blogcatalog", "wikivote")


def run(
    scale: Scale = CI,
    seed: int = 7,
    datasets=DATASETS,
    paper_targets: int = 30,
    n_experiments: int = 5,
) -> dict:
    """p-values for N and E over ``n_experiments`` repeats per dataset."""
    seeds = SeedSequenceFactory(seed)
    detector = OddBall()
    n_experiments = min(n_experiments, max(scale.n_repeats * 2, 2))
    table: dict[str, list[dict[str, float]]] = {}
    for name in datasets:
        dataset = load_experiment_graph(name, scale, seeds)
        graph = dataset.graph
        budget = scale.budgets_for(graph.number_of_edges)[-1]
        report = detector.analyze(graph)
        n_clean, e_clean = report.n_feature, report.e_feature
        n_targets = max(scale.scaled(paper_targets), 5)
        attack = BinarizedAttack(iterations=scale.attack_iterations)

        rows = []
        for experiment in range(n_experiments):
            rng = seeds.generator(f"table2-{name}-{experiment}")
            targets = sample_targets(report, n_targets, rng)
            result = attack.attack(graph, targets, budget)
            n_poisoned, e_poisoned = egonet_features_sparse(result.poisoned())
            p_n = permutation_test(
                n_clean, n_poisoned, n_resamples=scale.permutation_resamples,
                rng=seeds.generator(f"table2-perm-n-{name}-{experiment}"),
            )
            p_e = permutation_test(
                e_clean, e_poisoned, n_resamples=scale.permutation_resamples,
                rng=seeds.generator(f"table2-perm-e-{name}-{experiment}"),
            )
            rows.append({"experiment": experiment + 1, "p_n": p_n.p_value, "p_e": p_e.p_value,
                         "flips": len(result.flips())})
        table[name] = rows
    return {
        "scale": scale.name,
        "seed": seed,
        "n_resamples": scale.permutation_resamples,
        "paper_targets": paper_targets,
        "table": table,
    }


def format_results(payload: dict) -> str:
    datasets = list(payload["table"])
    headers = ["experiment"] + [f"{d}:{f}" for d in datasets for f in ("N", "E")]
    n_rows = max(len(rows) for rows in payload["table"].values())
    rows = []
    for i in range(n_rows):
        row = [i + 1]
        for dataset in datasets:
            entry = payload["table"][dataset][i]
            row.extend([entry["p_n"], entry["p_e"]])
        rows.append(row)
    return format_table(
        headers,
        rows,
        title=(
            f"Table II — permutation-test p-values for ego-features "
            f"(M={payload['n_resamples']}, scale={payload['scale']})"
        ),
    )
