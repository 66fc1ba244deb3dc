"""Experiment scale presets.

``PAPER`` matches the paper's settings (1000-node graphs, 5 repeats,
100k-permutation Monte-Carlo tests); ``CI`` shrinks every axis so the whole
benchmark suite reruns in minutes on a laptop.  Every experiment driver and
benchmark takes a :class:`Scale`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["CI", "PAPER", "SMOKE", "Scale"]


@dataclass(frozen=True)
class Scale:
    """Knobs controlling experiment size.

    Attributes
    ----------
    name:
        Preset label recorded in result payloads.
    graph_scale:
        Multiplier on the paper's Table I node counts (1.0 → 1000-node graphs).
    n_repeats:
        Target-sampling repetitions; the paper reports means of 5.
    permutation_resamples:
        Monte-Carlo resamples of the Table II permutation test.
    attack_iterations:
        Inner-loop length T of BinarizedAttack / iteration cap of ContinuousA.
    gal_epochs / mlp_epochs:
        Training epochs for the transfer-attack victims.
    tsne_iterations:
        Gradient steps of the Fig. 8/9 t-SNE embeddings.
    budget_fractions:
        Attack-power grid (fraction of clean edges flipped) for Fig. 4/10.
    """

    name: str
    graph_scale: float
    n_repeats: int
    permutation_resamples: int
    attack_iterations: int
    gal_epochs: int
    mlp_epochs: int
    tsne_iterations: int
    budget_fractions: tuple[float, ...]

    def budgets_for(self, n_edges: int) -> list[int]:
        """Distinct integer budgets realising :attr:`budget_fractions`."""
        budgets = sorted({max(int(round(f * n_edges)), 1) for f in self.budget_fractions})
        return budgets

    def scaled(self, count: "int | float") -> int:
        """Scale a paper-sized count (targets, budgets) to this preset."""
        return max(int(round(count * self.graph_scale)), 1)

    def with_(self, **overrides) -> "Scale":
        """Copy with selected fields replaced."""
        return replace(self, **overrides)


PAPER = Scale(
    name="paper",
    graph_scale=1.0,
    n_repeats=5,
    permutation_resamples=100_000,
    attack_iterations=200,
    gal_epochs=100,
    mlp_epochs=300,
    tsne_iterations=500,
    budget_fractions=(0.0025, 0.005, 0.0075, 0.01, 0.0125, 0.015, 0.0175, 0.02),
)

CI = Scale(
    name="ci",
    graph_scale=0.25,
    n_repeats=2,
    permutation_resamples=2_000,
    attack_iterations=120,
    gal_epochs=60,
    mlp_epochs=150,
    tsne_iterations=250,
    budget_fractions=(0.005, 0.01, 0.02, 0.03),
)

#: Minimal preset for unit/integration tests: single repeat, tiny graphs.
SMOKE = Scale(
    name="smoke",
    graph_scale=0.12,
    n_repeats=1,
    permutation_resamples=200,
    attack_iterations=40,
    gal_epochs=25,
    mlp_epochs=60,
    tsne_iterations=60,
    budget_fractions=(0.01, 0.02),
)
