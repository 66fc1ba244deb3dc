"""Quickstart: detect anomalies with OddBall, then hide them with
BinarizedAttack — and scale the attack with candidate sets.

Run:  python examples/quickstart.py
"""

from repro.attacks import BinarizedAttack, CandidateSet, GradMaxSearch
from repro.graph import load_dataset
from repro.oddball import OddBall, tau_as


def main() -> None:
    # 1. Load a graph (a stand-in for the paper's Bitcoin-Alpha sample).
    dataset = load_dataset("bitcoin-alpha", rng=7, scale=0.25)
    graph = dataset.graph
    print(f"graph: {graph.number_of_nodes} nodes, {graph.number_of_edges} edges")

    # 2. Run the OddBall detector: egonet features + power-law regression.
    detector = OddBall()
    report = detector.analyze(graph)
    print(
        f"fitted Egonet Density Power Law: "
        f"lnE = {report.fit.beta0:.3f} + {report.fit.beta1:.3f} lnN"
    )

    # 3. The attacker picks the three most anomalous nodes as targets.
    targets = report.top_k(3).tolist()
    score_before = report.scores[targets].sum()
    print(f"targets {targets}: total AScore before attack = {score_before:.3f}")

    # 4. Poison the graph with BinarizedAttack (budget: 8 edge flips).
    attack = BinarizedAttack(iterations=100)
    result = attack.attack(graph, targets, budget=8)
    print(f"attack flipped {len(result.flips())} edges: {result.flips()}")

    # 5. The defender re-runs OddBall on the poisoned graph.
    score_after = detector.scores(result.poisoned())[targets].sum()
    tau = tau_as(score_before, score_after)
    print(f"total AScore after attack = {score_after:.3f}  (decrease {tau:.1%})")

    poisoned_report = detector.analyze(result.poisoned())
    ranks = [poisoned_report.rank_of(t) for t in targets]
    print(f"target ranks after attack (0 = most anomalous): {ranks}")

    # 6. Candidate sets: trade coverage for speed on larger graphs.
    #
    #    Every attack accepts ``candidates=`` restricting which pairs it may
    #    flip.  The strategies cover different slices of the pair space:
    #
    #    * "full"             — all n(n−1)/2 pairs (what ``None`` means).
    #                           Exact but quadratic; fine up to a few
    #                           thousand nodes.
    #    * "target_incident"  — only pairs touching a target (|C| = |T|·(n−1)
    #                           −|T|(|T|−1)/2).  The Nettack-style "direct"
    #                           restriction; linear in n, and with
    #                           GradMaxSearch each greedy step drops from
    #                           O(n³) to O(m + |C|) — 100×+ faster at
    #                           n = 2000 (see benchmarks/results/).
    #    * "adaptive_gradient" — starts as exactly target_incident and
    #                           GROWS per step: every landed flip pulls its
    #                           endpoints into a ball, and the top-|∂L/∂A|
    #                           pairs incident to them join the set.
    #                           Reaches neighbour-neighbour flips, but only
    #                           around regions the optimiser actually
    #                           visits, keeping |C| near-linear.
    #    * "block"            — a seeded random block of pairs, resampled
    #                           by gradient each step (PRBCD): memory is
    #                           O(block size) whatever n is.
    #
    #    Restricting candidates can only shrink the search space, so expect a
    #    (usually tiny) loss in attack strength in exchange for the speedup.
    fast = GradMaxSearch().attack(
        graph, targets, budget=8, candidates="target_incident"
    )
    print(
        f"candidate engine ({fast.metadata['candidate_count']} of "
        f"{graph.number_of_nodes * (graph.number_of_nodes - 1) // 2} pairs): "
        f"score decrease {fast.score_decrease(targets):.1%}"
    )

    #    Prebuilt CandidateSets can be shared across attacks and inspected;
    #    a growing set reports the size of the set its last step searched:
    growing = CandidateSet.build("adaptive_gradient", graph, targets, budget=8)
    grown = GradMaxSearch().attack(graph, targets, budget=8, candidates=growing)
    print(
        f"adaptive_gradient candidate set: {len(growing)} pairs at the start "
        f"({growing.density:.1%} of all pairs), "
        f"{grown.metadata['candidate_count']} after 8 flips"
    )

    # 7. The surrogate engine: every attack's optimisation loop runs through
    #    one SparseSurrogateEngine (repro.oddball.surrogate).  It keeps
    #    incremental egonet features with an apply → score → rollback flip
    #    API and scatters closed-form gradients onto the candidate pairs
    #    only, so one BinarizedAttack PGD iteration costs O(Σ deg + n + |C|)
    #    instead of the O(n³) autograd forward.  Sparse inputs stay sparse
    #    end-to-end — through the attack, the AttackResult and its
    #    poisoned() graphs.  The tests check it against a dense autograd
    #    oracle: same losses bit-for-bit, same flips.
    fast_binarized = BinarizedAttack(iterations=100)
    sparse_result = fast_binarized.attack(
        graph, targets, budget=8, candidates="target_incident"
    )
    print(
        f"sparse-engine BinarizedAttack: score decrease "
        f"{sparse_result.score_decrease(targets):.1%} "
        f"(engine={sparse_result.metadata['backend']})"
    )
    #    Paper figures can be regenerated at larger n with a candidate
    #    strategy:
    #      python -m repro.experiments.runner -e fig4 --candidates target_incident
    #      python -m repro.experiments.runner --list

    # 8. Campaigns: batch many (targets × budgets) jobs on ONE graph.
    #
    #    A bare attack() call rebuilds graph state per run; AttackCampaign
    #    shares one sparse engine across every job (retarget + rollback
    #    between jobs), records flips / losses / rank shifts / timings per
    #    job, and — given a checkpoint_path — resumes interrupted sweeps
    #    from the last completed job.  Flip sets are identical to
    #    independent attack() calls.
    from repro.attacks import AttackCampaign, grid_jobs

    jobs = grid_jobs(
        "gradmaxsearch",
        [[t] for t in targets],          # one job per target
        budgets=[8],
        candidates="target_incident",
    )
    sweep = AttackCampaign(graph).run(jobs)
    print(
        f"campaign: {len(sweep)} jobs in {sweep.seconds:.2f}s, "
        f"mean tau {sum(o.score_decrease for o in sweep) / len(sweep):.1%}"
    )

    # 9. Parallel campaigns: drain the job grid on worker processes.
    #
    #    SchedulingCampaignExecutor gives every worker its own engine
    #    (rebuilt once from a pickled EngineSpec); workers claim jobs one
    #    at a time from a shared lease queue, so a killed worker's jobs are
    #    requeued.  Results are bit-identical to the serial campaign, and
    #    checkpoints resume across different worker counts.
    #    build_campaign() is the one-line switch:
    from repro.attacks import build_campaign

    parallel_sweep = build_campaign(graph, workers=2).run(jobs)
    assert [o.flips for o in parallel_sweep] == [o.flips for o in sweep]
    print(
        f"parallel campaign (2 workers): {len(parallel_sweep)} jobs, "
        "flips identical to the serial run"
    )
    #    See examples/campaign.py for the full multi-target budget sweep
    #    walkthrough and --workers / --campaign-checkpoint on the
    #    experiment runner.


if __name__ == "__main__":
    main()
