"""build_campaign: the one switch between serial and multi-worker campaigns.

The paper's headline experiments — Fig. 4's effectiveness sweeps, Table I's
attackability column — are grids of *independent* (target × budget × λ ×
attack) jobs.  :class:`~repro.attacks.campaign.AttackCampaign` drains such
a grid on one core through one shared engine;
:class:`~repro.attacks.scheduler.SchedulingCampaignExecutor` drains it on
N worker processes through a lease queue.  Both expose the same
``run(jobs) -> CampaignResult`` surface, produce bit-identical results and
resume each other's checkpoints, so the experiment drivers choose between
them by worker count alone.
"""

from __future__ import annotations

from repro.attacks.campaign import AttackCampaign
from repro.attacks.scheduler import SchedulingCampaignExecutor, check_campaign_backend

__all__ = ["build_campaign"]


def build_campaign(
    graph,
    *,
    workers: int = 1,
    backend: str = "auto",
    checkpoint_path=None,
    compute_ranks: bool = True,
    telemetry: "str | None" = None,
):
    """Serial :class:`AttackCampaign` or a :class:`SchedulingCampaignExecutor`.

    The one switch the experiment drivers call: ``workers <= 1`` returns
    the serial campaign, anything larger the lease-queue executor (lease
    TTL from ``$REPRO_LEASE_TTL``, else 30 s).  Both produce bit-identical
    results, so callers never branch again.  Both run the process-default
    kernel backend (:func:`repro.kernels.set_default_kernels`).  ``backend``
    accepts only ``"auto"`` and ``"sparse"``
    (:data:`~repro.attacks.scheduler.CAMPAIGN_BACKENDS`), both the sparse
    engine.  ``telemetry`` names a trace directory for the
    :mod:`repro.telemetry` layer (``None`` defers to ``$REPRO_TELEMETRY``);
    tracing changes no results.
    """
    check_campaign_backend(backend)
    if workers <= 1:
        return AttackCampaign(
            graph,
            checkpoint_path=checkpoint_path,
            compute_ranks=compute_ranks,
            telemetry=telemetry,
        )
    return SchedulingCampaignExecutor(
        graph,
        workers=workers,
        checkpoint_path=checkpoint_path,
        compute_ranks=compute_ranks,
        telemetry=telemetry,
    )
