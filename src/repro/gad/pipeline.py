"""Transfer-attack methodology (Section VI-B) and its evaluation harness.

Four steps, exactly as the paper describes:

1. **Data pre-processing** — OddBall (unsupervised) scores the clean graph;
   the top fraction becomes the anomaly class; nodes are split into
   stratified train/test sets.
2. **Targets identification** — the victim GAD system (GAL or ReFeX + MLP)
   is trained on the clean graph; the *test* nodes it predicts anomalous
   become the attack targets.
3. **Graph poisoning** — BinarizedAttack (designed for OddBall, black-box
   w.r.t. the victim) poisons the clean graph for those targets.
4. **Evaluation** — the victim is retrained from the same initialisation on
   clean and poisoned graphs; we report global AUC/F1 on the test split,
   the targets' soft-label sum, and its decrease δ_B (Tables III/IV), plus
   penultimate MLP features for the embedding analysis (Figs. 8/9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.attacks.base import AttackResult, StructuralAttack
from repro.gad.gal import GAL
from repro.gad.mlp import MLPClassifier
from repro.gad.refex import ReFeX
from repro.graph.graph import Graph
from repro.ml.metrics import f1_score, roc_auc_score
from repro.ml.preprocessing import train_test_split_indices
from repro.oddball.detector import OddBall
from repro.utils.logging import get_logger
from repro.utils.rng import SeedSequenceFactory

__all__ = ["TransferAttackPipeline", "TransferOutcome", "TransferRow"]

_log = get_logger("gad.pipeline")


@dataclass(frozen=True)
class TransferRow:
    """One row of Table III / Table IV."""

    budget: int
    edges_changed_pct: float
    auc: float
    f1: float
    soft_label_sum: float
    delta_b_pct: float


@dataclass
class TransferOutcome:
    """Everything the transfer experiments need downstream."""

    system: str
    rows: list[TransferRow]
    targets: np.ndarray
    labels: np.ndarray
    train_index: np.ndarray
    test_index: np.ndarray
    attack_result: "AttackResult | None" = None
    penultimate_clean: "np.ndarray | None" = None
    penultimate_poisoned: "np.ndarray | None" = None
    metadata: dict = field(default_factory=dict)


class TransferAttackPipeline:
    """Black-box transfer attack from OddBall's poison to GAL / ReFeX.

    Parameters
    ----------
    system:
        ``"gal"`` or ``"refex"``.
    anomaly_fraction:
        Fraction of top-scored OddBall nodes labelled anomalous in step 1.
    test_fraction:
        Test split size (stratified).
    seed:
        Root seed; model initialisation is held fixed across budgets so that
        metric changes are attributable to the poison alone.
    gal_kwargs / refex_kwargs / mlp_kwargs:
        Forwarded to the respective constructors.
    """

    def __init__(
        self,
        system: str = "gal",
        anomaly_fraction: float = 0.1,
        test_fraction: float = 0.3,
        seed: int = 0,
        gal_kwargs: "dict | None" = None,
        refex_kwargs: "dict | None" = None,
        mlp_kwargs: "dict | None" = None,
    ):
        system = system.lower()
        if system not in ("gal", "refex"):
            raise ValueError(f"system must be 'gal' or 'refex', got {system!r}")
        self.system = system
        self.anomaly_fraction = anomaly_fraction
        self.test_fraction = test_fraction
        self.seeds = SeedSequenceFactory(seed)
        self.gal_kwargs = dict(gal_kwargs or {})
        self.refex_kwargs = dict(refex_kwargs or {})
        self.mlp_kwargs = dict(mlp_kwargs or {})

    # ------------------------------------------------------------------ #
    def prepare(self, adjacency: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Step 1: OddBall labels + stratified split → (labels, train, test)."""
        labels = OddBall().label_anomalies(adjacency, fraction=self.anomaly_fraction)
        train_index, test_index = train_test_split_indices(
            len(labels),
            test_fraction=self.test_fraction,
            rng=self.seeds.generator("split"),
            stratify=labels,
        )
        return labels, train_index, test_index

    def train_victim(
        self, adjacency: np.ndarray, labels: np.ndarray, train_index: np.ndarray
    ) -> tuple[np.ndarray, MLPClassifier]:
        """Train the victim system; returns (embeddings, classifier)."""
        if self.system == "gal":
            gal = GAL(rng=self.seeds.seed("gal-init"), **self.gal_kwargs)
            gal.fit(adjacency, labels, train_index)
            embeddings = gal.embeddings(adjacency)
        else:
            embeddings = ReFeX(**self.refex_kwargs).transform(adjacency)
        classifier = MLPClassifier(
            embeddings.shape[1], rng=self.seeds.seed("mlp-init"), **self.mlp_kwargs
        )
        classifier.fit(embeddings[train_index], labels[train_index])
        return embeddings, classifier

    def identify_targets(
        self,
        adjacency: np.ndarray,
        labels: np.ndarray,
        train_index: np.ndarray,
        test_index: np.ndarray,
        max_targets: "int | None" = None,
    ) -> np.ndarray:
        """Step 2: test nodes the clean victim predicts anomalous."""
        embeddings, classifier = self.train_victim(adjacency, labels, train_index)
        predicted = classifier.predict(embeddings[test_index])
        targets = test_index[predicted == 1]
        if max_targets is not None and len(targets) > max_targets:
            scores = classifier.predict_proba(embeddings[targets])
            targets = targets[np.argsort(-scores, kind="stable")[:max_targets]]
        return np.sort(targets)

    # ------------------------------------------------------------------ #
    def run(
        self,
        graph: "Graph | np.ndarray",
        attack: StructuralAttack,
        budgets: Sequence[int],
        max_targets: "int | None" = 10,
        keep_embeddings: bool = True,
    ) -> TransferOutcome:
        """Full four-step pipeline over a family of budgets.

        ``budgets`` must be sorted ascending; budget 0 (the clean baseline)
        is always included.
        """
        adjacency = graph.adjacency if isinstance(graph, Graph) else np.asarray(
            graph, dtype=np.float64
        )
        budgets = sorted(set(int(b) for b in budgets) | {0})
        labels, train_index, test_index = self.prepare(adjacency)
        targets = self.identify_targets(
            adjacency, labels, train_index, test_index, max_targets=max_targets
        )
        if len(targets) == 0:
            raise RuntimeError(
                "the clean victim predicted no test node anomalous; "
                "increase anomaly_fraction or the graph's anomaly content"
            )
        _log.info("transfer attack on %s: %d targets", self.system, len(targets))

        attack_result = attack.attack(adjacency, targets.tolist(), max(budgets))
        n_edges = int(adjacency.sum()) // 2

        rows: list[TransferRow] = []
        baseline_soft_sum: "float | None" = None
        penultimate_clean: "np.ndarray | None" = None
        penultimate_poisoned: "np.ndarray | None" = None
        for budget in budgets:
            poisoned = attack_result.poisoned(budget).toarray()
            embeddings, classifier = self.train_victim(poisoned, labels, train_index)
            probabilities = classifier.predict_proba(embeddings[test_index])
            predictions = (probabilities >= 0.5).astype(np.int64)
            soft_sum = float(classifier.predict_proba(embeddings[targets]).sum())
            if baseline_soft_sum is None:
                baseline_soft_sum = soft_sum
            delta = (
                (baseline_soft_sum - soft_sum) / baseline_soft_sum * 100.0
                if baseline_soft_sum > 0
                else 0.0
            )
            rows.append(
                TransferRow(
                    budget=budget,
                    edges_changed_pct=len(attack_result.flips(budget)) / max(n_edges, 1) * 100.0,
                    auc=roc_auc_score(labels[test_index], probabilities),
                    f1=f1_score(labels[test_index], predictions),
                    soft_label_sum=soft_sum,
                    delta_b_pct=delta,
                )
            )
            if keep_embeddings and budget == 0:
                penultimate_clean = classifier.penultimate(embeddings)
            if keep_embeddings and budget == budgets[-1]:
                penultimate_poisoned = classifier.penultimate(embeddings)

        return TransferOutcome(
            system=self.system,
            rows=rows,
            targets=targets,
            labels=labels,
            train_index=train_index,
            test_index=test_index,
            attack_result=attack_result,
            penultimate_clean=penultimate_clean,
            penultimate_poisoned=penultimate_poisoned,
            metadata={"attack": attack.name, "budgets": budgets},
        )
