"""HeatStore array growth: writes that creep away from the base."""

from __future__ import annotations

import numpy as np

from repro.profiling.heat_store import _GROW_PAD, HeatStore

PID = 7


def _grow(store: HeatStore, vpns: list[int]) -> int:
    """Write each vpn once, in order; returns the number of reallocations.

    Asserts after every write that the array stays within twice the
    written span plus pad, so a runaway growth rule fails on its first
    bad step instead of allocating without bound.
    """
    reallocs = 0
    heat = None
    lo = hi = vpns[0]
    for i, vpn in enumerate(vpns):
        store.accumulate(PID, np.array([vpn]), np.array([1.0]))
        ph = store._pids[PID]
        if ph.heat is not heat:
            reallocs += 1
            heat = ph.heat
        lo, hi = min(lo, vpn), max(hi, vpn)
        assert ph.heat.size <= 2 * (hi - lo + 1 + _GROW_PAD), (i, ph.heat.size)
    return reallocs


def test_downward_creep_grows_geometrically():
    k, step = 2000, 100
    top = 10_000_000
    vpns = [top - i * step for i in range(k)]  # each lands below the last base
    store = HeatStore()
    reallocs = _grow(store, vpns)
    span = vpns[0] - vpns[-1] + 1
    assert reallocs <= int(np.log2(k)) + 2
    assert store._pids[PID].heat.size <= 2 * (span + _GROW_PAD)
    assert store.as_dict(PID) == {vpn: 1.0 for vpn in vpns}


def test_upward_creep_grows_geometrically():
    k, step = 2000, 100
    vpns = [1_000 + i * step for i in range(k)]
    store = HeatStore()
    reallocs = _grow(store, vpns)
    assert reallocs <= int(np.log2(k)) + 2
    assert store.as_dict(PID) == {vpn: 1.0 for vpn in vpns}


def test_downward_growth_clamps_at_vpn_zero():
    store = HeatStore()
    _grow(store, [5_000, 4_000, 10, 0])
    ph = store._pids[PID]
    assert ph.base == 0
    assert store.gather(PID, np.array([0, 10, 4_000, 5_000])).tolist() == [1.0] * 4
