"""Spec content hashes must be stable across processes and hash seeds.

Scenario and fleet specs hash their canonical JSON; fuzz records,
promoted crasher names and scenario results carry that hash.  If it
depended on dict insertion order or ``PYTHONHASHSEED``, a promoted
crasher's spec hash would not reproduce.  The subprocess test runs the
hashes under *different* hash seeds and demands identical output.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro.fleet import get_fleet_scenario
from repro.scenario import get_scenario


def hash_in_subprocess(hashseed: str) -> dict:
    """Compute reference hashes in a fresh interpreter with a given seed."""
    code = (
        "import json\n"
        "from repro.fleet import get_fleet_scenario\n"
        "from repro.scenario import get_scenario\n"
        "print(json.dumps({\n"
        "  'fleet': get_fleet_scenario('drain_rebalance').content_hash(),\n"
        "  'scenario': get_scenario('churn').content_hash(),\n"
        "}))\n"
    )
    env = {**os.environ, "PYTHONHASHSEED": hashseed,
           "PYTHONPATH": os.pathsep.join(sys.path)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True)
    return json.loads(out.stdout)


def test_hashes_identical_across_hash_seeds():
    a = hash_in_subprocess("0")
    b = hash_in_subprocess("424242")
    assert a == b
    # and the parent process (whatever seed pytest runs under) agrees
    assert a == {
        "fleet": get_fleet_scenario("drain_rebalance").content_hash(),
        "scenario": get_scenario("churn").content_hash(),
    }
