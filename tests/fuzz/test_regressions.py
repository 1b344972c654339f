"""Replay every promoted crasher: fixed bugs must stay fixed.

Every crasher file under ``tests/golden/fuzz_regressions/`` — scenario
``crasher_*.json`` and fleet ``fleet_crasher_*.json`` alike — was a fuzz
finding whose underlying bug has since been fixed; each must now replay
as fixed through the same code ``repro fuzz --replay`` runs.  A failure
here means a regression resurrected a bug the fuzzer already caught once.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.fuzz.promote import iter_crashers
from repro.fuzz.runner import FLEET, SCENARIO, replay_crasher

REGRESSION_DIR = Path(__file__).resolve().parents[1] / "golden" / "fuzz_regressions"

CRASHERS = [(kind, path) for kind in (SCENARIO, FLEET) for path in iter_crashers(kind, REGRESSION_DIR)]


def test_regression_dir_exists():
    assert REGRESSION_DIR.is_dir(), "promoted-crasher directory is part of the repo"


@pytest.mark.parametrize(("kind", "path"), CRASHERS, ids=[p.name for _kind, p in CRASHERS])
def test_promoted_crasher_replays_green(kind, path):
    """Fixed either way: the crasher's spec is now rejected at validation
    (the crash is unreachable through any entry point), or it loads and
    runs clean under every check its kind arms."""
    result = replay_crasher(kind, path)
    finding = result["finding"]
    assert result["status"] == "fixed", (
        f"{path.name} (originally caught [{result['original_check']}]) fails again: "
        f"[{finding['check']}] {finding['message']}"
    )
