"""Content hashes must be stable across processes and hash seeds.

Result-cache keys flow through ``harness.cache.content_hash``, and
scenario and fleet specs hash their canonical JSON; if any of them
depended on dict insertion order, ``PYTHONHASHSEED``, or ``repr``
addresses, a cache written by one process would silently miss in the
next, and a promoted crasher's spec hash would not reproduce.  The
subprocess tests run the hashes under *different* hash seeds and demand
identical output.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.harness.cache import canonicalize, content_hash

SAMPLE = {
    "kind": "sweep",
    "payload": {"fast_gb": [8.0, 16.0], "seeds": [3, 1, 2], "mix": "dilemma"},
    "tags": {"b", "a", "c"},
    "blob": b"\x00\xff",
}


def hash_in_subprocess(hashseed: str) -> dict:
    """Compute reference hashes in a fresh interpreter with a given seed."""
    code = (
        "import json\n"
        "from repro.harness.cache import content_hash\n"
        "from repro.fleet import get_fleet_scenario\n"
        "from repro.scenario import get_scenario\n"
        "sample = {'kind': 'sweep', 'payload': {'fast_gb': [8.0, 16.0],"
        " 'seeds': [3, 1, 2], 'mix': 'dilemma'}, 'tags': {'b', 'a', 'c'},"
        " 'blob': b'\\x00\\xff'}\n"
        "print(json.dumps({\n"
        "  'sample': content_hash(sample),\n"
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
    assert content_hash(SAMPLE) == a["sample"]


def test_set_order_is_canonical():
    assert content_hash({"tags": {"a", "b", "c"}}) == content_hash({"tags": {"c", "a", "b"}})


def test_dict_insertion_order_is_canonical():
    assert content_hash({"a": 1, "b": 2}) == content_hash({"b": 2, "a": 1})


def test_int_float_distinguished_like_json():
    # json.dumps renders 1 and 1.0 differently, so the hashes differ;
    # callers that want 1 == 1.0 must coerce before hashing
    assert content_hash({"x": 1}) != content_hash({"x": 1.0})


def test_bytes_hash_stably():
    assert content_hash(b"\x00\x01") == content_hash(b"\x00\x01")
    assert content_hash(b"\x00\x01") != content_hash(b"\x00\x02")


def test_address_bearing_repr_rejected():
    class Opaque:
        pass

    with pytest.raises(TypeError, match="memory address"):
        content_hash({"obj": Opaque()})


def test_canonicalize_nested():
    out = canonicalize({"s": {2, 1}, "t": (1, 2), "b": b"\xff"})
    assert out == {"s": [1, 2], "t": [1, 2], "b": "ff"}
    json.dumps(out)  # canonical form must be JSON-serializable
