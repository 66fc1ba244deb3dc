"""The paper's claims at ci scale, seed 0, asserted on the ledger of
``ledger.py``: every claim holds on every cell it tests, except the
cells below, each an ``xfail(strict=True)`` naming the ROADMAP item
expected to flip it.  A cell that starts holding fails its xfail; drop
it from the list then."""

import pytest

from ledger import CLAIMS, evaluate, run_drivers

#: claim -> {cell: the ROADMAP item expected to flip it, and why}.
KNOWN_FAILING = {
    "fig4.binarized.surrogate_vs_gradmax": {
        ("blogcatalog-10", 0.51): (
            "ROADMAP item 14: the smallest budget of blogcatalog-10 is the "
            "largest gap the two-level schedule leaves to GradMax"
        ),
        ("bitcoin-alpha-30", 0.52): (
            "ROADMAP item 14: at the smallest budget of bitcoin-alpha-30 the "
            "two-level schedule lowers the surrogate less than GradMax"
        ),
    },
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


@pytest.fixture(scope="module")
def ledger():
    return evaluate(run_drivers(seed=0))


@pytest.mark.parametrize("claim", CLAIMS)
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
    for claim in ("fig4.binarized.tau_vs_gradmax", "fig4.continuousa.tau_below_gradmax"):
        tally = ledger[claim]
        assert len(tally.tested) + len(tally.skipped) == len(
            ledger["fig4.continuousa.tau_nonnegative"].tested
        ) == len(ledger["fig4.binarized.surrogate_vs_gradmax"].tested) == 32
    assert len(ledger["fig4.binarized.not_flat"].tested) == 8
    # every job of the three attacks, at every budget
    assert len(ledger["fig4.surrogate_below_clean"].tested) == 3 * 16 * 4
