"""Structural poisoning attacks against OddBall (the paper's Section V).

Every attack accepts a ``candidates`` argument (strategy name or
:class:`CandidateSet`) restricting its decision variables to a pruned pair
set — see :mod:`repro.attacks.candidates` for the strategy trade-offs.
"""

from repro.attacks.base import AttackResult, StructuralAttack, apply_flips, validate_targets
from repro.attacks.binarized import BinarizedAttack
from repro.attacks.campaign import (
    AttackCampaign,
    AttackJob,
    CampaignResult,
    CheckpointStore,
    JobOutcome,
    grid_jobs,
)
from repro.attacks.executor import build_campaign
from repro.attacks.scheduler import SchedulingCampaignExecutor, WorkQueue
from repro.attacks.candidates import (
    CANDIDATE_STRATEGIES,
    AdaptiveCandidateSet,
    BlockCandidateSet,
    CandidateSet,
)
from repro.attacks.constraints import (
    creates_singleton,
    filter_valid_flips,
)
from repro.attacks.continuous import ContinuousA
from repro.attacks.gradmax import GradMaxSearch
from repro.attacks.heuristic import OddBallHeuristic
from repro.attacks.random_attack import RandomAttack

ATTACK_REGISTRY = {
    BinarizedAttack.name: BinarizedAttack,
    GradMaxSearch.name: GradMaxSearch,
    ContinuousA.name: ContinuousA,
    RandomAttack.name: RandomAttack,
    OddBallHeuristic.name: OddBallHeuristic,
}

__all__ = [
    "ATTACK_REGISTRY",
    "AdaptiveCandidateSet",
    "BlockCandidateSet",
    "AttackCampaign",
    "AttackJob",
    "AttackResult",
    "BinarizedAttack",
    "CANDIDATE_STRATEGIES",
    "CampaignResult",
    "CandidateSet",
    "CheckpointStore",
    "ContinuousA",
    "GradMaxSearch",
    "JobOutcome",
    "OddBallHeuristic",
    "RandomAttack",
    "SchedulingCampaignExecutor",
    "StructuralAttack",
    "WorkQueue",
    "apply_flips",
    "build_campaign",
    "creates_singleton",
    "filter_valid_flips",
    "grid_jobs",
    "validate_targets",
]
