"""Telemetry must never change results: flip sets are bit-identical on/off.

Telemetry is excluded from every content hash — job ids, checkpoint
payloads, fingerprints — so a traced run and an untraced run of the same
grid must agree bit-for-bit, serial and parallel, on either kernel
backend.  These tests pin that contract end-to-end.
"""

from __future__ import annotations

import pytest

from repro import telemetry
from repro.attacks.campaign import AttackCampaign, CampaignResult
from repro.attacks.scheduler import SchedulingCampaignExecutor
from repro.kernels import kernel_table


def _kernel_backends():
    backends = ["numpy"]
    if kernel_table() is not None:
        backends.append("compiled")
    return backends


class TestFlipParity:
    def test_serial_campaign_identical_on_off(
        self, graph_and_targets, tmp_path, sweep_jobs, assert_outcomes_identical
    ):
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets, count=4)
        telemetry.configure(None)
        untraced = AttackCampaign(graph).run(jobs)
        telemetry.configure(tmp_path / "trace")
        traced = AttackCampaign(graph).run(jobs)
        telemetry.shutdown()
        assert_outcomes_identical(untraced, traced)
        # the traced run actually produced a trace
        assert telemetry.load_trace_dir(tmp_path / "trace")

    @pytest.mark.parametrize("kernels", _kernel_backends())
    def test_kernel_backends_identical_on_off(
        self, graph_and_targets, tmp_path, sweep_jobs,
        assert_outcomes_identical, kernels,
    ):
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets, count=3)
        telemetry.configure(None)
        untraced = AttackCampaign(graph, kernels=kernels).run(jobs)
        telemetry.configure(tmp_path / "trace")
        traced = AttackCampaign(graph, kernels=kernels).run(jobs)
        telemetry.shutdown()
        assert_outcomes_identical(untraced, traced)

    def test_parallel_executor_identical_on_off(
        self, graph_and_targets, tmp_path, sweep_jobs, assert_outcomes_identical
    ):
        graph, targets = graph_and_targets
        jobs = sweep_jobs(targets, count=4)
        untraced = SchedulingCampaignExecutor(graph, workers=2).run(jobs)
        traced = SchedulingCampaignExecutor(
            graph, workers=2, telemetry=tmp_path / "trace"
        ).run(jobs)
        telemetry.shutdown()
        assert_outcomes_identical(untraced, traced)
        # both worker sinks and the parent's landed in the directory
        events = telemetry.load_trace_dir(tmp_path / "trace")
        workers = {e["worker"] for e in events}
        assert {"worker-0", "worker-1"} <= workers

    def test_job_ids_unchanged_by_telemetry(
        self, graph_and_targets, tmp_path, sweep_jobs
    ):
        _, targets = graph_and_targets
        before = [job.job_id for job in sweep_jobs(targets, count=4)]
        telemetry.configure(tmp_path / "trace")
        after = [job.job_id for job in sweep_jobs(targets, count=4)]
        telemetry.shutdown()
        assert before == after


class TestCampaignResultStats:
    def test_roundtrip_with_observability_fields(self):
        result = CampaignResult(
            outcomes=[],
            n=90,
            seconds=1.5,
            worker_stats=[{"jobs": 2, "max_rss_kb": 1024}],
            dead_workers=("scheduler-worker-1",),
            requeues=3,
        )
        restored = CampaignResult.from_dict(result.to_dict())
        assert restored.worker_stats == [{"jobs": 2, "max_rss_kb": 1024}]
        assert restored.dead_workers == ("scheduler-worker-1",)
        assert restored.requeues == 3
        assert restored.peak_rss_kb == 1024

    def test_defaults_load_from_old_payloads(self):
        result = CampaignResult(outcomes=[], n=90, seconds=1.0)
        payload = result.to_dict()
        for key in ("worker_stats", "dead_workers", "requeues"):
            payload.pop(key)
        restored = CampaignResult.from_dict(payload)
        assert restored.worker_stats == []
        assert restored.dead_workers == ()
        assert restored.requeues == 0
        assert restored.peak_rss_kb == 0
