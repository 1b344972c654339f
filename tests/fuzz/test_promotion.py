"""End-to-end: a seeded bug is found, shrunk, promoted, and replays.

The bug is real corruption in a real subsystem — ``CreditLedger.transfer``
minting one extra credit per transfer — patched in at class level.  The
campaign must catch it via the credit-conservation invariant, minimize
the failing timeline, and write a content-hashed regression file; with
the bug removed the promoted crasher must replay green (the regression
contract), and with the bug present it must still fail.
"""

from __future__ import annotations

import json

import pytest

import repro.core.cbfrp as cbfrp
from repro.fuzz.promote import iter_crashers, load_crasher
from repro.fuzz.runner import SCENARIO, campaign, case_finding

#: campaign coordinates chosen so case 0 is a vulcan multi-workload
#: timeline (probed once; generation is a pure function of the seed pair)
SEED, RUNS = 7, 2


@pytest.fixture
def minting_ledger():
    """Arm the seeded bug: every transfer mints one credit for the donor."""
    orig = cbfrp.CreditLedger.transfer

    def buggy(self, donor, borrower, units=1):
        orig(self, donor, borrower, units)
        self.credits[donor] += 1

    cbfrp.CreditLedger.transfer = buggy
    try:
        yield orig  # the genuine method, for "fix the bug" replays
    finally:
        cbfrp.CreditLedger.transfer = orig


class TestSeededBugEndToEnd:
    def test_caught_shrunk_promoted_and_replayed(self, minting_ledger, tmp_path):
        report = campaign(
            seed=SEED, runs=RUNS,
            shrink=True, promote_dir=tmp_path,
        )

        # -- caught -------------------------------------------------------
        assert report["counts"]["violations"] >= 1
        failure = report["failures"][0]
        assert failure["finding"]["check"] == "credit_conservation"
        assert "conservation broken" in failure["finding"]["message"]

        # -- shrunk: minimized <= original in events and epochs -----------
        sh = failure["shrink"]
        assert sh["steps"] > 0
        assert sh["n_events"] <= failure["original"]["n_events"]
        assert sh["n_epochs"] <= failure["original"]["n_epochs"]

        # -- promoted: content-hashed file on disk ------------------------
        paths = iter_crashers(SCENARIO, tmp_path)
        assert paths, "no crasher file was promoted"
        data = json.loads(paths[0].read_text())
        assert data["format"] == SCENARIO.crasher_format
        assert data["violation"]["check"] == "credit_conservation"
        case, violation = load_crasher(SCENARIO, paths[0])
        assert paths[0].name == f"crasher_{case.spec.content_hash()[:12]}.json"

        # -- replays red while the bug is in ------------------------------
        finding = case_finding(SCENARIO, case)
        assert finding is not None
        assert finding["check"] == "credit_conservation"

    def test_promoted_crasher_replays_green_after_fix(self, minting_ledger, tmp_path):
        report = campaign(
            seed=SEED, runs=1,
            shrink=True, promote_dir=tmp_path,
        )
        assert report["counts"]["violations"] == 1
        path = iter_crashers(SCENARIO, tmp_path)[0]

        # "fix the bug" = restore the genuine transfer, then replay
        case, _violation = load_crasher(SCENARIO, path)
        buggy = cbfrp.CreditLedger.transfer
        cbfrp.CreditLedger.transfer = minting_ledger  # the fixture yields the original
        try:
            assert case_finding(SCENARIO, case) is None
        finally:
            cbfrp.CreditLedger.transfer = buggy
