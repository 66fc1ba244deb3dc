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
``final_relaxed_loss`` and ``fractional_mass`` metadata.  These pin the
sparse engine's CSR relaxed step, whose oracle check is only to
round-off, and the projected step's bits.
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
        "c435b09bbee753a4beb39a53c9a0b9e4", "bf3d5fa5a1f63e7a1e2bbe7dec4f8143",
        "d192cd742fc18377fcb68fb7580a4893"),
    ("binarizedattack", "adaptive_gradient", 113): (
        "8fb8059c8e8e718af81710de44669396", "3334905c07611f7e4b0eea88c8f350b9",
        "f9ec446fc4ccc8979b988454db97fe3c"),
    ("binarizedattack", "adaptive_gradient", 9721): (
        "57317dcf78fc8e7e297e537c9f277527", "6a8ef1176fce714f42f54b4ab066e44a",
        "2c053adfce2c10fc3e7691932965dad9"),
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
        "72859d77f0f919cd73d6ebb4746b2f5b", "d192cd742fc18377fcb68fb7580a4893"),
    ("target_incident", "store-10k", 113): (
        "fd7326ab5724eef167f72b2f1a59a51e", "f9ec446fc4ccc8979b988454db97fe3c"),
    ("target_incident", "store-10k", 9721): (
        "6df618d707dc5daaf7976a5df29c9320", "2c053adfce2c10fc3e7691932965dad9"),
    ("full", "er", None): (
        "8e404ead77131423303d21faf895c4a1", "7c330081bc27535d6a783ef83d5f74e6"),
    ("full", "ba", None): (
        "3553973e172c6566123fa1f723a8fa6c", "f67cea22e6b1822fb2441ea7c9b36120"),
    ("full", "blogcatalog", None): (
        "68f7090a94c98c6a4a2634f22765f673", "872a24faf145c68a5b517fa64fe3863a"),
}

#: ContinuousA on ``full``: graph -> (digest of the flips at every budget,
#: digest of the per-budget losses, digest of the bits of
#: ``final_relaxed_loss`` and ``fractional_mass``).
GOLDEN_CONTINUOUS = {
    "er": ("f5a108742583c13b512bc52559ba8305", "c79cc155d47769b752e0f70d4f3d45de",
           "26e1711e2952fae60e55e0c009686c41"),
    "ba": ("bde9bbe1289c93cb7127507e694a9073", "297577e6cad085fcb8865c6c308bb076",
           "050b968d18c99814ae4ecd6bd86d8627"),
    "blogcatalog": ("8adb0490c46bee9866cd6985b8004488", "4f2157f1bdd5428b04b5c5653b8ea7f0",
                    "f4266ba86c66932da108602dd6579902"),
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
    """Store cases run budget 5 with 20 iterations on one target;
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
