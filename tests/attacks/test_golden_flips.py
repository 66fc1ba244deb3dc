"""Golden flips: adaptive_gradient and block candidate refreshes are pinned,
byte for byte.

Each case is an attack, a candidate strategy and a single target on the
10k ``blogcatalog-full`` store recipe (seed 7), run at budget 5.  Three
digests are pinned per case:

* the flips, as a sha256 over their JSON list;
* the refresh trail, a sha256 over the int64 pair keys of every set a
  ``refresh`` returned, in call order (GradMaxSearch does not refresh
  after its final step, whose refreshed set no step would search);
* the per-budget surrogate losses (``surrogate_by_budget``), bit for bit.
  These pin the objective on the refresh path, where the engine carries
  per-pair state across refreshes and completes loss-only evaluations
  with their backward half.

Single-target flips at budget 5 land on target-incident pairs, so the
trail is what catches a drift in which pairs a refresh admits or evicts.
The BinarizedAttack cases refresh with multi-flip and empty ``landed``
lists.  Both digests must hold under either kernel backend.

BinarizedAttack is also pinned on the two static strategies where its PGD
iterates repeat a flip set: ``target_incident`` on the same 10k recipe,
and ``full`` on three ci-scale Fig. 4 graphs.  Those cases pin the flips
at every budget and the per-budget surrogate losses, bit for bit.

ContinuousA is pinned on ``full`` on the same three Fig. 4 graphs: its
flips at every budget, its per-budget losses, and the exact bits of its
``final_relaxed_loss`` and ``fractional_mass`` metadata.  ``full`` runs the
sparse engine's dense relaxed step, whose loss and gradient must keep
the dense oracle's operation order to hold these digests.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.attacks import BinarizedAttack, ContinuousA, GradMaxSearch
from repro.attacks.candidates import AdaptiveCandidateSet, BlockCandidateSet
from repro.experiments import common
from repro.experiments.config import CI
from repro.oddball.detector import OddBall
from repro.store import build_store
from repro.utils.rng import SeedSequenceFactory

ATTACKS = {
    "gradmaxsearch": GradMaxSearch,
    "binarizedattack": lambda: BinarizedAttack(iterations=20),
    "gradmaxsearch-block": lambda: GradMaxSearch(block_size=64),
}

#: (attack, strategy, target) -> (digest of the flips, digest of the
#: refresh trail, digest of the per-budget losses).
GOLDEN = {
    ("gradmaxsearch", "adaptive_gradient", 1844): (
        "c435b09bbee753a4beb39a53c9a0b9e4", "350b96f70e2503fcdce008ee6c8e83c0",
        "d192cd742fc18377fcb68fb7580a4893"),
    ("gradmaxsearch", "adaptive_gradient", 113): (
        "8fb8059c8e8e718af81710de44669396", "a56acd37205a1ad86d992a93b53a366b",
        "f9ec446fc4ccc8979b988454db97fe3c"),
    ("gradmaxsearch", "adaptive_gradient", 9721): (
        "57317dcf78fc8e7e297e537c9f277527", "f143d3eec79db524d6be0b83d3a52e08",
        "2c053adfce2c10fc3e7691932965dad9"),
    ("binarizedattack", "adaptive_gradient", 1844): (
        "c435b09bbee753a4beb39a53c9a0b9e4", "bc02dbb0346013e48c28401e80575ab1",
        "259262950fe1a49abd72a4e038a6802d"),
    ("binarizedattack", "adaptive_gradient", 113): (
        "8fb8059c8e8e718af81710de44669396", "c05efa949ef74207aa7707f190ce29af",
        "c162a267a1539783ce391e724d16102d"),
    ("binarizedattack", "adaptive_gradient", 9721): (
        "57317dcf78fc8e7e297e537c9f277527", "b116d89edc0bde8c0c5df0baf2a8d14d",
        "60833629df7dcfb7cce47390e5671de0"),
    ("gradmaxsearch-block", "block", 1844): (
        "c43623e07308cf449f25030c4435c4e0", "f81067ba21cdde00e2b6ecc6ccbac228",
        "48e28d261a009e391cb884f0f169d395"),
    ("gradmaxsearch-block", "block", 113): (
        "7b7b6bc153a904fb700dac735f7a2667", "3da071ed3cab76efb90180d3ccb36a9a",
        "c08f9e76ab51e491c25f9830deb35d6d"),
    ("gradmaxsearch-block", "block", 9721): (
        "0726c192aa01cdf101fcb12b262df77c", "2e0443003af883115394297c3fda96bf",
        "40b731a283c527bd95ed83895b6b18a8"),
}

#: BinarizedAttack on a static strategy: (strategy, graph, target) ->
#: (digest of the flips at every budget, digest of the per-budget losses).
GOLDEN_BINARIZED = {
    ("target_incident", "store-10k", 1844): (
        "33e766d7c60aa53f4d57c8a402f3fc86", "259262950fe1a49abd72a4e038a6802d"),
    ("target_incident", "store-10k", 113): (
        "46bcf94ec2fd3551279e8710ad022405", "c162a267a1539783ce391e724d16102d"),
    ("target_incident", "store-10k", 9721): (
        "55b374ecec7cc459f073b25037305469", "60833629df7dcfb7cce47390e5671de0"),
    ("full", "er", None): (
        "0b8c481024efb320768339926fa3b8c9", "ee8642bb742370fe4c563527e51962e2"),
    ("full", "ba", None): (
        "3f511cf47c432784ad1cae9cc5e787ef", "26607733b78cf03ae4baaa53a2f0ae60"),
    ("full", "blogcatalog", None): (
        "81b0e3e1e83ac70491557b5e7576ac48", "defb4f639f00846534b3e7f841f87cba"),
}

#: ContinuousA on ``full``: graph -> (digest of the flips at every budget,
#: digest of the per-budget losses, digest of the bits of
#: ``final_relaxed_loss`` and ``fractional_mass``).
GOLDEN_CONTINUOUS = {
    "er": ("672d527dd01e9ac1c565637fee70e6f6", "bd19ae2137004ad4d8a4c0ac2bb3d88c",
           "e66cba042f944461ef62a885f0603d39"),
    "ba": ("7bf1779c25de01b86dacd68e3d13a1b7", "49c13c39d6c8c4bb8ec136bb297cd58e",
           "bc1e37ae0f9759490ef0ea0018186d38"),
    "blogcatalog": ("35f9f7b52bf77531ccd70d4d1f4e3176", "efee76ffd95b1a440070126ccf8829ff",
                    "5885b555df41240786b54c3c89cb4589"),
}

KERNELS = ["numpy", "compiled"]


@pytest.fixture(scope="module")
def payload(tmp_path_factory):
    store = build_store(
        "blogcatalog-full", cache_dir=tmp_path_factory.mktemp("stores"),
        scale=10_000 / 88_800, seed=7,
    )
    return store.detached_csr()


@pytest.mark.parametrize("kernels", KERNELS)
@pytest.mark.parametrize(
    "case", sorted(GOLDEN), ids=lambda case: "-".join(map(str, case))
)
def test_flips_and_refresh_trail_are_pinned(
    case, kernels, payload, monkeypatch, use_kernels
):
    use_kernels(kernels)
    attack_name, strategy, target = case
    trail = hashlib.sha256()
    for cls in (AdaptiveCandidateSet, BlockCandidateSet):
        original = cls.refresh

        def recording(self, flips, engine=None, _original=original):
            refreshed = _original(self, flips, engine)
            keys = refreshed.rows * refreshed.n + refreshed.cols
            trail.update(np.ascontiguousarray(keys, dtype="<i8"))
            return refreshed

        monkeypatch.setattr(cls, "refresh", recording)

    result = ATTACKS[attack_name]().attack(
        payload, [target], budget=5, candidates=strategy
    )
    flips = [[int(u), int(v)] for u, v in result.flips()]
    flip_digest = hashlib.sha256(json.dumps(flips).encode()).hexdigest()[:32]
    assert (flip_digest, trail.hexdigest()[:32], _loss_digest(result)) == GOLDEN[case]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


def _loss_digest(result) -> str:
    losses = np.array(
        [result.surrogate_by_budget[b] for b in sorted(result.surrogate_by_budget)],
        dtype="<f8",
    )
    return _sha(losses.tobytes())


def _budget_digests(result) -> "tuple[str, str]":
    flips = {
        str(budget): [[int(u), int(v)] for u, v in pairs]
        for budget, pairs in sorted(result.flips_by_budget.items())
    }
    return _sha(json.dumps(flips, sort_keys=True).encode()), _loss_digest(result)


def _fig4_case(graph_name: str):
    """A ci-scale Fig. 4 graph, three targets sampled with ``default_rng(1)``
    and the panel's largest budget."""
    graph = common.load_experiment_graph(graph_name, CI, SeedSequenceFactory(7)).graph
    targets = common.sample_targets(
        OddBall().analyze(graph), 3, np.random.default_rng(1)
    )
    return graph, targets, CI.budgets_for(graph.number_of_edges)[-1]


@pytest.mark.parametrize("kernels", KERNELS)
@pytest.mark.parametrize(
    "case", list(GOLDEN_BINARIZED), ids=lambda case: "-".join(map(str, case))
)
def test_binarized_static_strategies_are_pinned(case, kernels, payload, use_kernels):
    """Store cases run budget 5 with 20 iterations per λ on one target;
    Fig. 4 cases run the ci preset's attack on three targets sampled with
    ``default_rng(1)``, at the panel's largest budget."""
    use_kernels(kernels)
    strategy, graph_name, target = case
    if graph_name == "store-10k":
        result = BinarizedAttack(iterations=20).attack(
            payload, [target], budget=5, candidates=strategy
        )
    else:
        graph, targets, budget = _fig4_case(graph_name)
        result = BinarizedAttack(iterations=CI.attack_iterations).attack(
            graph, targets, budget=budget, candidates=strategy
        )
    assert _budget_digests(result) == GOLDEN_BINARIZED[case]


@pytest.mark.parametrize("kernels", KERNELS)
@pytest.mark.parametrize("graph_name", list(GOLDEN_CONTINUOUS))
def test_continuous_full_is_pinned(graph_name, kernels, use_kernels):
    """The ci preset's ContinuousA on ``full``, on the Fig. 4 cases above."""
    use_kernels(kernels)
    graph, targets, budget = _fig4_case(graph_name)
    result = ContinuousA(max_iter=CI.attack_iterations).attack(
        graph, targets, budget=budget, candidates="full"
    )
    metadata = np.array(
        [result.metadata["final_relaxed_loss"], result.metadata["fractional_mass"]],
        dtype="<f8",
    )
    assert (*_budget_digests(result), _sha(metadata.tobytes())) == (
        GOLDEN_CONTINUOUS[graph_name]
    )
