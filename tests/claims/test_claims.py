"""The paper's claims at ci scale, seed 0, asserted on the ledger of
``ledger.py``: every claim holds on every cell it tests, except the
cells below, each an ``xfail(strict=True)`` naming the ROADMAP item
expected to flip it.  A cell that starts holding fails its xfail; drop
it from the list then."""

import pytest

from ledger import evaluate, run_drivers

#: claim -> {cell: the ROADMAP item expected to flip it, and why}.
KNOWN_FAILING = {
    "fig4.binarized.tau_vs_gradmax": {
        ("blogcatalog-10", 0.51): (
            "ROADMAP item 14: the smallest budget of blogcatalog-10 is the "
            "largest gap the two-level schedule leaves to GradMax"
        ),
    },
    "fig10.robust_le_ols": {
        ("bitcoin-alpha", 0.52): (
            "ROADMAP item 10: at ci scale (|T| = 3) the robust fits bury "
            "bitcoin-alpha's targets less than OLS at the smallest budget"
        ),
    },
}

#: Claims that fail as a whole, with the ROADMAP item expected to flip them.
FAILING_CLAIMS = {
    "fig4.continuousa.tau_nonnegative": (
        "ROADMAP item 3: ContinuousA's unnormalised step raises its own "
        "objective, so its τ goes negative"
    ),
}


@pytest.fixture(scope="module")
def ledger():
    return evaluate(run_drivers(seed=0))


def _claims():
    for name in (
        "fig4.binarized.not_flat",
        "fig4.binarized.surrogate_monotone",
        "fig4.binarized.tau_vs_gradmax",
        "fig4.continuousa.tau_nonnegative",
        "table2.p_above_alpha",
        "fig6.high_above_others",
        "fig10.robust_le_ols",
    ):
        marks = ()
        if name in FAILING_CLAIMS:
            marks = pytest.mark.xfail(strict=True, reason=FAILING_CLAIMS[name])
        yield pytest.param(name, marks=marks, id=name)


@pytest.mark.parametrize("claim", _claims())
def test_claim_holds_on_every_tested_cell(ledger, claim):
    tally = ledger[claim]
    assert tally.tested, f"{claim} tested no cell"
    failing = set(tally.failing) - set(KNOWN_FAILING.get(claim, ()))
    assert not failing, f"{claim} fails on {sorted(failing)}"


@pytest.mark.parametrize(
    "claim, cell",
    [
        pytest.param(
            claim, cell, marks=pytest.mark.xfail(strict=True, reason=reason),
            id=f"{claim}-{cell[0]}-{cell[1]}",
        )
        for claim, cells in KNOWN_FAILING.items()
        for cell, reason in cells.items()
    ],
)
def test_known_failing_cell(ledger, claim, cell):
    assert cell in ledger[claim].held


def test_ledger_covers_every_panel_and_budget(ledger):
    """Each Fig. 4 cell is tested or skipped as saturated, never dropped."""
    tally = ledger["fig4.binarized.tau_vs_gradmax"]
    assert len(tally.tested) + len(tally.skipped) == len(
        ledger["fig4.continuousa.tau_nonnegative"].tested
    ) == 32
    assert len(ledger["fig4.binarized.not_flat"].tested) == 8
