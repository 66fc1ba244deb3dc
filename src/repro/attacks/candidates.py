"""Candidate pair sets: restricting the attack's decision variables.

Every attack in this package optimises over *pairs* of nodes (potential edge
flips).  The seed implementation materialised all ``n(n−1)/2`` upper-triangle
pairs, which is exact but quadratic — at the paper's full dataset scale
(Blogcatalog: 88.8k nodes) that is 3.9 **billion** decision variables.
Prior structural-attack libraries (Nettack, the GREAT toolbox) solve this
with *candidate pruning*: only pairs that can plausibly move the objective
are enumerated.  For OddBall's egonet objective, flipping ``{u, v}`` changes
the features of ``u``, ``v`` and their common neighbours only, so pairs far
from every target are useless until the graph around a target has grown.

:class:`CandidateSet` is the container threaded through
:meth:`repro.attacks.base.StructuralAttack.attack`.  Four built-in
strategies trade coverage for speed:

``full``
    Every upper-triangle pair — exact, identical to the seed behaviour.
``target_incident``
    Pairs with at least one endpoint in the target set (|C| = |T|·(n−1) −
    |T|(|T|−1)/2).  This is the Nettack-style "direct attack" restriction;
    it captures every first-order effect on the targets' own features.
``adaptive_gradient``
    Starts as exactly ``target_incident`` and *grows per step*: every flip
    the attack lands pulls its endpoints into a growing ball, and each ball
    entrant pools its incident pairs (to its current neighbours and to
    earlier ball members).  The pool is ranked by the engine's predicted
    |∂L/∂A| at those pairs
    (:meth:`~repro.oddball.surrogate.SurrogateEngine.pair_gradient`) and
    only the top :func:`admission_cap` per refresh join the set.  Attacks
    call :meth:`CandidateSet.refresh` after each landed flip; static
    strategies return themselves unchanged, so the hook costs nothing
    unless the set actually adapts.  The set is a superset of
    ``target_incident`` at every step (invariant tested; growth only ever
    adds), reaches neighbour-neighbour flips only around regions the
    optimiser actually visits, and grows |C| by a bounded amount per
    landed flip.
``block``
    PRBCD-style randomized block coordinate descent ("Robustness of GNNs
    at Scale"): the decision variables are a seeded uniform random *block*
    of at most ``block_size`` pairs drawn (with replacement, then deduped)
    from all n(n−1)/2, so memory is O(block_size) **independent of n** —
    the only strategy that scales to the 88.8k-node store graphs without
    target-locality assumptions.  Each :meth:`~CandidateSet.refresh`
    re-ranks the live block by |∂L/∂A|, keeps the top half plus every
    already-flipped pair (flips are never evicted — the invariant the
    attacks' state transfer relies on), and resamples the remainder from a
    fresh deterministic draw.  Unlike ``adaptive_gradient`` a refresh
    both adds AND drops pairs.  When ``block_size`` covers
    every pair the block degenerates to exactly ``full`` (same pairs, same
    order, refresh is a no-op), which is the parity anchor the tests pin.

Other pair sets — e.g. the neighbour pairs a structural heuristic flips —
are built with :meth:`CandidateSet.from_pairs`.

Both refreshes build the new key array as ``np.insert(survivors,
positions, admitted)``, and every refresh that returns a new set records
that plan as its :class:`Lineage`: which pairs of the set it was called on
survive (all of them for ``adaptive_gradient``) and where the admitted
pairs go.
:meth:`Lineage.carry` moves any per-pair array with one compaction and
one insert: the set's own ``rows``/``cols``, the attacks' optimiser state
(:func:`adopt_refresh`) and the engine's per-pair caches
(:meth:`~repro.oddball.surrogate.SurrogateEngine.set_candidates`), so a
refresh costs its admissions plus a few O(|C|) memory moves, not a
re-derivation of every pair.

Admission and block sizing share one budget-aware policy
(:func:`admission_cap`, :func:`default_block_size`): both scale with the
attack budget, and λ-awareness enters through the ranking itself — the
engine's ``pair_gradient`` is the λ-regularised surrogate gradient, so a
sweep's sparsity pressure directly shapes which pairs survive a refresh.

Candidate pairs are canonical (``u < v``), unique and lexicographically
sorted, so ``full`` enumerates pairs in exactly the order of
``np.triu_indices(n, k=1)`` — the seed ordering — which is what makes the
``full`` set (what ``candidates=None`` means) reproduce the seed's
full-pair attacks bit-for-bit.  Equivalently, a set is the ascending array of its int64 pair
keys ``u·n + v``, and every set operation here (deduplication, membership,
union) runs on those keys through the sort-based helpers
:func:`~repro.graph.sparse.sorted_unique`,
:func:`~repro.graph.sparse.key_positions` and
:func:`~repro.graph.sparse.merge_novel`, which the store builder shares —
never through numpy's ``unique``/``union1d``/``setdiff1d``.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro import telemetry as _telemetry
from repro.graph.sparse import key_positions, merge_novel, sorted_unique, to_sparse

__all__ = [
    "AdaptiveCandidateSet",
    "BlockCandidateSet",
    "CandidateSet",
    "CANDIDATE_STRATEGIES",
    "Lineage",
    "admission_cap",
    "adopt_refresh",
    "block_params",
    "default_block_size",
]

Edge = tuple[int, int]

CANDIDATE_STRATEGIES = ("full", "target_incident", "adaptive_gradient", "block")

#: Default per-refresh admission count of ``adaptive_gradient``: the
#: floor of the budget-aware :func:`admission_cap`.
DEFAULT_ADMIT_CAP = 32

#: Default block size of the ``block`` strategy when no explicit
#: ``block_size`` is given — small enough that the per-refresh gradient
#: scatter stays cheap, large enough to cover every pair outright below
#: n ≈ 256 (where blocks degenerate to ``full``).
DEFAULT_BLOCK_SIZE = 32_768


def admission_cap(budget: "int | None" = None) -> int:
    """Per-refresh admission count of ``adaptive_gradient``.

    A larger flip budget explores more of the graph, so each refresh may
    admit proportionally more pairs (``8·budget``, floored at
    :data:`DEFAULT_ADMIT_CAP`).  λ-awareness needs no knob
    here — ranking uses the engine's λ-regularised ``pair_gradient``, so
    sparsity pressure already shapes which pairs win the cap.
    """
    if budget is None:
        return DEFAULT_ADMIT_CAP
    return max(DEFAULT_ADMIT_CAP, 8 * int(budget))


def default_block_size(n: int, budget: "int | None" = None) -> int:
    """Default ``block`` size: budget-scaled, clamped to the full pair count.

    Shares the shape of :func:`admission_cap` — more budget, more
    simultaneous decision variables — with a much larger floor because the
    block is the *entire* variable set, not a per-refresh increment.
    """
    total = n * (n - 1) // 2
    if budget is None:
        return min(total, DEFAULT_BLOCK_SIZE)
    return min(total, max(DEFAULT_BLOCK_SIZE, 4096 * int(budget)))


def block_params(
    strategy: "str | None", block_size: "int | None" = None, block_seed: int = 0
) -> "dict[str, int]":
    """The ``block_size``/``block_seed`` job parameters of ``strategy``.

    Only ``block`` takes them: a size or a non-zero seed with any other
    strategy raises ``ValueError``.  Defaults are left out, so a job built
    from the result hashes like one built without them.
    """
    if strategy != "block":
        if block_size is not None or block_seed:
            raise ValueError(
                "block_size/block_seed need the 'block' candidate strategy, "
                f"got {strategy!r}"
            )
        return {}
    params = {}
    if block_size is not None:
        params["block_size"] = int(block_size)
    if block_seed:
        params["block_seed"] = int(block_seed)
    return params


class Lineage(NamedTuple):
    """How a refresh built its set from the set it was called on.

    Both refreshes build the new key array as ``np.insert(survivors,
    positions, admitted)``, and the lineage records exactly that plan.
    ``parent`` is a weak reference to the set the refresh was called on (a
    strong one would chain every set of a long refresh sequence together
    in memory).  ``kept`` masks the parent's pairs that survive, or is
    ``None`` when all of them do.  ``positions`` holds the ascending
    insertion points of the admitted pairs into the survivors.
    """

    parent: "weakref.ref[CandidateSet]"
    kept: "np.ndarray | None"
    positions: np.ndarray

    def carry(self, array: np.ndarray, fill) -> np.ndarray:
        """``array``, aligned with the parent, moved onto the refreshed set.

        Survivors keep their entries and the admitted pairs get ``fill``
        (a scalar, or one value per admitted pair in key order): one
        compaction and one ``np.insert``.  Returns a new array of
        ``array``'s dtype.
        """
        survivors = array if self.kept is None else array[self.kept]
        return np.insert(survivors, self.positions, fill)

    @property
    def admitted(self) -> np.ndarray:
        """Positions of the admitted pairs in the refreshed set."""
        return self.positions + np.arange(self.positions.size)


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """An immutable, canonically-ordered set of candidate pairs.

    Attributes
    ----------
    n:
        Number of nodes of the graph the pairs address.
    rows, cols:
        Aligned ``intp`` arrays with ``rows[k] < cols[k]``, lexicographically
        sorted and duplicate-free.  ``(rows[k], cols[k])`` is the k-th
        candidate pair.
    strategy:
        The name of the strategy that built the set (``"custom"`` for
        :meth:`from_pairs`).
    lineage:
        Set by :meth:`refresh` on the sets it returns: the
        :class:`Lineage` from the set it was called on (``None`` for a set
        built from scratch or unpickled).
    keys:
        The ascending pair keys ``rows·n + cols``, kept from validation.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    strategy: str = "custom"
    _pair_set: "frozenset[Edge] | None" = field(
        default=None, repr=False, compare=False
    )
    lineage: "Lineage | None" = field(default=None, repr=False, compare=False)
    keys: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.intp)
        cols = np.asarray(self.cols, dtype=np.intp)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError(
                f"rows/cols must be aligned 1-D arrays, got {rows.shape}, {cols.shape}"
            )
        keys = rows * self.n + cols
        if rows.size:
            if rows.min() < 0 or cols.max() >= self.n:
                raise ValueError(f"pair indices out of range [0, {self.n})")
            if np.any(rows >= cols):
                raise ValueError("candidate pairs must be canonical (u < v)")
            if np.any(np.diff(keys) <= 0):
                raise ValueError(
                    "candidate pairs must be lexicographically sorted and unique"
                )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "keys", keys)

    def __getstate__(self) -> dict:
        # A lineage names a live parent set of this process, so a pickled
        # set carries none: its engine then reads every pair afresh.
        return {**self.__dict__, "lineage": None}

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        strategy: str,
        graph,
        targets: "Sequence[int] | None" = None,
        budget: "int | None" = None,
        block_size: "int | None" = None,
        block_seed: int = 0,
    ) -> "CandidateSet":
        """Build a candidate set with a named strategy.

        ``graph`` is anything :func:`~repro.graph.sparse.to_sparse` takes
        (an attack passes its validated CSR, which costs nothing), of which
        only the node count is read;
        ``targets`` is required for every strategy except ``full`` and
        ``block`` (global random sampling needs no locality seed — targets
        are accepted and ignored).  ``budget``
        feeds the budget-aware sizing policies (:func:`admission_cap` for
        ``adaptive_gradient``, :func:`default_block_size` for ``block``);
        ``block_size``/``block_seed`` parametrise ``block`` only.
        """
        if strategy not in CANDIDATE_STRATEGIES:
            raise ValueError(
                f"unknown candidate strategy {strategy!r}; "
                f"choose from {CANDIDATE_STRATEGIES}"
            )
        n = to_sparse(graph).shape[0]
        if strategy == "full":
            return cls.full(n)
        if strategy == "block":
            return BlockCandidateSet.start(
                n, block_size=block_size, seed=block_seed, budget=budget
            )
        if targets is None:
            raise ValueError(f"strategy {strategy!r} requires a target set")
        targets = sorted({int(t) for t in targets})
        if any(not 0 <= t < n for t in targets):
            raise ValueError(f"target ids out of range [0, {n})")
        if strategy == "target_incident":
            return cls.target_incident(n, targets)
        return AdaptiveCandidateSet.start(
            n, targets, admit_cap=admission_cap(budget)
        )

    @classmethod
    def full(cls, n: int) -> "CandidateSet":
        """All upper-triangle pairs, in ``np.triu_indices`` order."""
        if n < 0:
            raise ValueError(f"node count must be non-negative, got {n}")
        rows, cols = np.triu_indices(n, k=1)
        return cls(n=n, rows=rows.astype(np.intp), cols=cols.astype(np.intp),
                   strategy="full")

    @classmethod
    def target_incident(cls, n: int, targets: Sequence[int]) -> "CandidateSet":
        """Pairs with at least one endpoint in ``targets``.

        Built vectorised: |T|·n index arithmetic and one
        :func:`~repro.graph.sparse.sorted_unique`.  At campaign scale this
        runs once per job, as part of every job's fixed cost.
        """
        target_list = sorted({int(t) for t in targets})
        if not target_list:
            raise ValueError("target set must not be empty")
        if target_list[0] < 0 or target_list[-1] >= n:
            raise ValueError(f"target ids out of range [0, {n})")
        t = np.asarray(target_list, dtype=np.intp)
        others = np.arange(n, dtype=np.intp)
        rows = np.minimum(t[:, None], others[None, :]).ravel()
        cols = np.maximum(t[:, None], others[None, :]).ravel()
        keys = sorted_unique(rows * n + cols)  # sorts + dedupes; drops nothing else
        keys = keys[keys // n != keys % n]  # remove the diagonal (v == t) keys
        return cls(
            n=n,
            rows=(keys // n).astype(np.intp),
            cols=(keys % n).astype(np.intp),
            strategy="target_incident",
        )

    @classmethod
    def from_pairs(
        cls, n: int, pairs: Iterable[Edge], strategy: str = "custom"
    ) -> "CandidateSet":
        """Build from explicit pairs (canonicalised, deduplicated, sorted)."""
        canonical: set[Edge] = set()
        for u, v in pairs:
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"diagonal pair ({u}, {u}) is not a candidate")
            canonical.add((u, v) if u < v else (v, u))
        return cls._from_sorted_pairs(n, sorted(canonical), strategy)

    @classmethod
    def _from_sorted_pairs(
        cls, n: int, pairs: Sequence[Edge], strategy: str
    ) -> "CandidateSet":
        if pairs:
            rows = np.fromiter((p[0] for p in pairs), dtype=np.intp, count=len(pairs))
            cols = np.fromiter((p[1] for p in pairs), dtype=np.intp, count=len(pairs))
        else:
            rows = np.empty(0, dtype=np.intp)
            cols = np.empty(0, dtype=np.intp)
        return cls(n=n, rows=rows, cols=cols, strategy=strategy)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return int(self.rows.size)

    @property
    def is_full(self) -> bool:
        """Whether the set covers every upper-triangle pair."""
        return len(self) == self.n * (self.n - 1) // 2

    @property
    def density(self) -> float:
        """|C| over the n(n−1)/2 full-pair count."""
        total = self.n * (self.n - 1) // 2
        return len(self) / total if total else 0.0

    def pairs(self) -> list[Edge]:
        """Candidate pairs as a list of (u, v) tuples, u < v."""
        return list(zip(self.rows.tolist(), self.cols.tolist()))

    def pair_set(self) -> "frozenset[Edge]":
        """Frozen membership set (cached after the first call)."""
        cached = self.__dict__.get("_pair_set")
        if cached is None:
            cached = frozenset(self.pairs())
            object.__setattr__(self, "_pair_set", cached)
        return cached

    def __contains__(self, pair: Edge) -> bool:
        u, v = pair
        return ((u, v) if u < v else (v, u)) in self.pair_set()

    # ------------------------------------------------------------------ #
    # Per-step adaptation
    # ------------------------------------------------------------------ #
    def refresh(self, flips: "Sequence[Edge]", engine=None) -> "CandidateSet":
        """Hook the attacks call after ``flips`` land: maybe grow the set.

        Static strategies are immutable and return ``self`` (so the hook is
        free); :class:`AdaptiveCandidateSet` returns a grown set.  ``engine``
        is the live :class:`~repro.oddball.surrogate.SurrogateEngine`, used
        for neighbour lookups against the *current* (partially poisoned)
        graph.  A returned set other than ``self`` carries its
        :class:`Lineage` from ``self``.
        """
        return self

    def _refreshed(
        self,
        kept: "np.ndarray | None",
        positions: np.ndarray,
        admitted: np.ndarray,
        **fields,
    ):
        """The set a refresh of ``self`` returns: the sorted keys
        ``admitted`` inserted at ``positions`` into the pairs ``kept``
        masks (all of them if ``None``).

        ``rows``/``cols`` move along the new :class:`Lineage` like any
        per-pair array, so only the admitted keys are split into pairs.
        ``fields`` are the subclass's own fields.
        """
        lineage = Lineage(weakref.ref(self), kept, positions)
        return type(self)(
            n=self.n,
            rows=lineage.carry(self.rows, admitted // self.n),
            cols=lineage.carry(self.cols, admitted % self.n),
            strategy=self.strategy,
            lineage=lineage,
            **fields,
        )


def adopt_refresh(engine, refreshed: CandidateSet, state: np.ndarray, fill) -> np.ndarray:
    """Point ``engine`` at ``refreshed`` and carry per-pair ``state`` onto it.

    ``state`` is aligned with the set ``refreshed`` was refreshed from (the
    engine's current set): every pair the refresh kept keeps its entry, and
    admitted pairs start at ``fill``.  The one migration both attacks run
    after a refresh — GradMaxSearch's used-pair mask and BinarizedAttack's
    Ż — beside the engine's own carried caches.
    """
    engine.set_candidates(refreshed)
    return refreshed.lineage.carry(state, fill)


@dataclass(frozen=True, eq=False)
class AdaptiveCandidateSet(CandidateSet):
    """A candidate set that grows its ball as the attack's flips land.

    ``ball`` is the set of nodes whose incident pairs have been admitted;
    it starts as the target set (so the pairs start as exactly
    ``target_incident`` — the containment invariant the tests pin down) and
    every landed flip pulls its endpoints in.  A ball entrant ``w``
    contributes the pairs ``(w, x)`` for ``x ∈ Γ(w) ∪ ball`` — its current
    neighbours (the egonet-internal flips that move ``E`` without moving
    degree, which is what the OddBall objective rewards) plus the earlier
    ball members (so locally-discovered structure can be rewired).

    Once that pool of would-be admissions holds more than ``admit_cap``
    pairs, it is *ranked* by the engine's predicted |∂L/∂A| at each pair
    (one :meth:`~repro.oddball.surrogate.SurrogateEngine.pair_gradient`
    call per refresh) and only the top ``admit_cap`` join (default
    :func:`admission_cap`) — the set stays focused on pairs the objective
    actually responds to, growing by a bounded amount per landed flip
    instead of by the entrant's degree.

    Instances are immutable like every :class:`CandidateSet`;
    :meth:`refresh` returns a *new* set and the attacks re-point their
    engine at it (:meth:`~repro.oddball.surrogate.SurrogateEngine.set_candidates`).
    """

    ball: "frozenset[int]" = frozenset()
    #: Pairs admitted per refresh (ties broken by
    #: canonical pair order, so refreshes are deterministic).  Sized by the
    #: budget-aware :func:`admission_cap` policy when built via
    #: :meth:`CandidateSet.build`.
    admit_cap: int = DEFAULT_ADMIT_CAP

    @classmethod
    def start(
        cls,
        n: int,
        targets: Sequence[int],
        admit_cap: int = DEFAULT_ADMIT_CAP,
    ) -> "AdaptiveCandidateSet":
        """The initial set: exactly ``target_incident`` over ``targets``.

        Later refreshes admit at most ``admit_cap`` pairs each.
        """
        if admit_cap < 1:
            raise ValueError(f"admit_cap must be >= 1, got {admit_cap}")
        base = CandidateSet.target_incident(n, targets)
        return cls(
            n=n,
            rows=base.rows,
            cols=base.cols,
            strategy="adaptive_gradient",
            ball=frozenset(int(t) for t in targets),
            admit_cap=int(admit_cap),
        )

    def refresh(self, flips: "Sequence[Edge]", engine=None) -> "CandidateSet":
        """Grow the ball with the endpoints of ``flips``; returns a new set.

        Each new endpoint ``w`` (in ascending order) pools the keys of its
        pairs with ``Γ(w) ∪ ball`` and then joins the ball.  The pool is
        deduplicated by one sort, and its members already in the set are
        dropped by one binary search whose insertion points are the
        :class:`Lineage`'s: O(Σ_{w new} (deg(w) + |ball|) log + |C|) per
        call, with no hash dedupe (plus one engine ``pair_gradient``
        evaluation over a pool larger than ``admit_cap``).  ``self`` is
        returned unchanged when no flip endpoint is new.  The result is
        always a superset of the current set: every pair of ``self``
        survives (``kept`` is ``None``).
        """
        new_nodes = sorted(
            {int(w) for pair in flips for w in pair} - self.ball
        )
        if not new_nodes:
            return self
        if engine is None:
            raise ValueError(
                "adaptive candidate refresh needs a surrogate engine for "
                "neighbour lookups"
            )
        n = self.n
        ball = np.fromiter(self.ball, dtype=np.intp, count=len(self.ball))
        chunks = []
        for w in new_nodes:
            partners = np.concatenate((engine.neighbors(w), ball))
            partners = partners[partners != w]
            chunks.append(np.minimum(partners, w) * n + np.maximum(partners, w))
            ball = np.append(ball, w)
        pool = sorted_unique(np.concatenate(chunks))
        positions, novel = key_positions(self.keys, pool)
        positions, pool = positions[novel], pool[novel]
        _telemetry.count("candidates.pool", int(pool.size))
        if pool.size > self.admit_cap:
            # the admitted slice, back in key order for the sorted insert
            admitted = np.sort(_gradient_order(n, pool, engine)[: self.admit_cap])
            positions, pool = positions[admitted], pool[admitted]
        _telemetry.count("candidates.admissions", int(pool.size))
        return self._refreshed(
            None, positions, pool,
            ball=self.ball.union(new_nodes),
            admit_cap=self.admit_cap,
        )


def _gradient_order(n: int, keys: np.ndarray, engine) -> np.ndarray:
    """Indices sorting ``keys`` by descending |∂L/∂A| at their pairs.

    The one ranking rule both refreshes (``adaptive_gradient`` admission
    and ``block`` retention) share.  Sorting is on (−|g|, key): deterministic
    under ties, backend-independent because the engines' ``pair_gradient``
    implementations agree bit-for-bit.
    """
    rows = (keys // n).astype(np.intp)
    cols = (keys % n).astype(np.intp)
    magnitude = np.abs(engine.pair_gradient(rows, cols))
    return np.lexsort((keys, -magnitude))


def _sample_pair_keys(n: int, count: int, seed: int, draw: int) -> np.ndarray:
    """``count`` uniform random canonical-pair keys (sorted, deduplicated).

    Sampling is *with replacement* over triangular ranks in
    [0, n(n−1)/2), then deduplicated — the PRBCD recipe — so the result
    may hold fewer than ``count`` keys.  The generator is seeded from
    ``(seed, draw)``: every (seed, draw) pair maps to one fixed block on
    every platform/backend, which is what makes block attacks
    checkpoint-resumable and their flip sets reproducible per seed.
    """
    if count <= 0:
        return np.empty(0, dtype=np.intp)
    total = n * (n - 1) // 2
    rng = np.random.default_rng([int(seed), int(draw)])
    ranks = sorted_unique(rng.integers(0, total, size=count, dtype=np.int64))
    # Invert the triangular rank: row i owns ranks [S(i), S(i+1)) where
    # S(i) = i·n − i(i+1)/2.  The float solve of the quadratic is within
    # ±1 of the true row; the two fix-up loops each run at most twice.
    approx = (2 * n - 1 - np.sqrt((2.0 * n - 1) ** 2 - 8.0 * ranks)) / 2.0
    i = np.clip(np.floor(approx).astype(np.int64), 0, n - 2)

    def _row_start(row: np.ndarray) -> np.ndarray:
        return row * n - row * (row + 1) // 2

    overshoot = _row_start(i) > ranks
    while overshoot.any():
        i[overshoot] -= 1
        overshoot = _row_start(i) > ranks
    undershoot = _row_start(i + 1) <= ranks
    while undershoot.any():
        i[undershoot] += 1
        undershoot = _row_start(i + 1) <= ranks
    j = ranks - _row_start(i) + i + 1
    return (i * n + j).astype(np.intp)


@dataclass(frozen=True, eq=False)
class BlockCandidateSet(CandidateSet):
    """A PRBCD random block of candidate pairs with gradient resampling.

    The block is a seeded uniform draw of at most ``block_size`` canonical
    pairs over the *whole* upper triangle — no target locality, so memory
    and per-step cost are O(block_size) regardless of n.  Every
    :meth:`refresh` call:

    1. folds the newly landed flips into ``flipped`` (once flipped, a pair
       stays in the block forever — its optimiser state must survive);
    2. ranks the current block by |∂L/∂A| (:func:`_gradient_order`) and
       keeps the top ``block_size // 2`` plus all flipped pairs;
    3. draws a fresh deterministic sample (``draw + 1``) to refill up to
       ``block_size``.

    Determinism: the k-th refresh of a block started with ``seed`` always
    evaluates generator ``(seed, k)``, so identical seeds yield identical
    candidate sequences across backends, kernels, and resumed checkpoints.

    Degenerate case: when ``block_size`` covers all n(n−1)/2 pairs the
    block *is* ``full`` (same pairs, same ``np.triu_indices`` order) and
    :meth:`refresh` returns ``self`` — block attacks then match full-pair
    attacks bit-for-bit (parity-tested for every shared-engine attack).
    """

    block_size: int = DEFAULT_BLOCK_SIZE
    seed: int = 0
    draw: int = 0
    flipped: "frozenset[Edge]" = frozenset()

    @classmethod
    def start(
        cls,
        n: int,
        block_size: "int | None" = None,
        seed: int = 0,
        budget: "int | None" = None,
    ) -> "BlockCandidateSet":
        """Draw the initial block (draw 0) of at most ``block_size`` pairs.

        ``block_size=None`` applies :func:`default_block_size`; explicit
        sizes are clamped to the full pair count (asking for more than
        every pair is the documented degenerate-``full`` mode, not an
        error).
        """
        if n < 2:
            raise ValueError(f"block candidates need >= 2 nodes, got {n}")
        total = n * (n - 1) // 2
        if block_size is None:
            block_size = default_block_size(n, budget)
        block_size = int(block_size)
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        block_size = min(block_size, total)
        if block_size == total:
            rows, cols = np.triu_indices(n, k=1)
            keys = None
        else:
            keys = _sample_pair_keys(n, block_size, seed, 0)
            rows = (keys // n).astype(np.intp)
            cols = (keys % n).astype(np.intp)
        return cls(
            n=n,
            rows=rows.astype(np.intp),
            cols=cols.astype(np.intp),
            strategy="block",
            block_size=block_size,
            seed=int(seed),
            draw=0,
        )

    @property
    def is_degenerate_full(self) -> bool:
        """Whether the block covers every pair (the ``full``-parity mode)."""
        return self.block_size >= self.n * (self.n - 1) // 2

    def refresh(self, flips: "Sequence[Edge]", engine=None) -> "CandidateSet":
        """Resample the low-|gradient| half of the block; returns a new set.

        Keeps the top ``block_size // 2`` pairs by current |∂L/∂A| plus
        every pair ever flipped, then refills from draw ``draw + 1``.
        |result| ≤ ``block_size`` always; flipped pairs are never evicted.
        Degenerate-full blocks return ``self`` (nothing to resample).
        """
        if self.is_degenerate_full:
            return self
        if engine is None:
            raise ValueError(
                "block candidate refresh needs a surrogate engine for "
                "gradient ranking"
            )
        flipped = set(self.flipped)
        for u, v in flips:
            u, v = int(u), int(v)
            flipped.add((u, v) if u < v else (v, u))
        keys = self.keys
        kept = np.zeros(keys.size, dtype=bool)
        kept[_gradient_order(self.n, keys, engine)[: self.block_size // 2]] = True
        flip_keys = sorted_unique(np.fromiter(
            (u * self.n + v for u, v in flipped), dtype=np.intp, count=len(flipped),
        ))
        at, outside = key_positions(keys, flip_keys)
        kept[at[~outside]] = True
        survivors = keys[kept]
        # A landed flip the block never held joins it like a sampled pair.
        joined = flip_keys[outside]
        held = survivors.size + joined.size
        refill = self.block_size - held
        if refill > 0:
            fresh = _sample_pair_keys(self.n, refill, self.seed, self.draw + 1)
            _, novel = key_positions(merge_novel(survivors, joined), fresh)
            joined = sorted_unique(np.concatenate((joined, fresh[novel][:refill])))
        _telemetry.count("candidates.block_refreshes", 1)
        _telemetry.count("candidates.evictions", int(keys.size - held))
        _telemetry.count(
            "candidates.admissions", int(survivors.size + joined.size - held)
        )
        return self._refreshed(
            kept, np.searchsorted(survivors, joined), joined,
            block_size=self.block_size,
            seed=self.seed,
            draw=self.draw + 1,
            flipped=frozenset(flipped),
        )
