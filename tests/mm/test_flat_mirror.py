"""FlatPageTable array growth: writes that creep away from the base."""

from __future__ import annotations

import numpy as np

from repro.mm.replication import FlatPageTable

PAD = FlatPageTable._GROW_PAD


def _grow(table: FlatPageTable, vpns: list[int]) -> int:
    """Map each vpn once, in order; returns the number of reallocations.

    Asserts after every write that the arrays stay within twice the
    written span plus pad, so a runaway growth rule fails on its first
    bad step instead of allocating without bound.
    """
    reallocs = 0
    pfn = None
    lo = hi = vpns[0]
    for i, vpn in enumerate(vpns):
        table.set(vpn, pfn=i, owner=0, dirty=False, raw=i + 1)
        if table.pfn is not pfn:
            reallocs += 1
            pfn = table.pfn
        lo, hi = min(lo, vpn), max(hi, vpn)
        assert table.pfn.size <= 2 * (hi - lo + 1 + PAD), (i, table.pfn.size)
    return reallocs


def _check(table: FlatPageTable, vpns: list[int]) -> None:
    assert table.mapped == len(vpns)
    assert table.present_vpns().tolist() == sorted(vpns)
    assert table.pfn[table.indices(np.array(vpns))].tolist() == list(range(len(vpns)))


def test_downward_creep_grows_geometrically():
    k, step = 2000, 100
    top = 10_000_000
    vpns = [top - i * step for i in range(k)]  # each lands below the last base
    table = FlatPageTable()
    reallocs = _grow(table, vpns)
    assert reallocs <= int(np.log2(k)) + 2
    assert table.pfn.size <= 2 * (vpns[0] - vpns[-1] + 1 + PAD)
    _check(table, vpns)


def test_upward_creep_grows_geometrically():
    k, step = 2000, 100
    vpns = [1_000 + i * step for i in range(k)]
    table = FlatPageTable()
    reallocs = _grow(table, vpns)
    assert reallocs <= int(np.log2(k)) + 2
    _check(table, vpns)


def test_downward_growth_clamps_at_vpn_zero():
    table = FlatPageTable()
    vpns = [5_000, 4_000, 10, 0]
    _grow(table, vpns)
    assert table.base == 0
    _check(table, vpns)


def test_set_many_grows_once_to_cover_the_range():
    table = FlatPageTable()
    table.set(50_000, pfn=0, owner=0, dirty=False)
    vpns = np.arange(20_000, 30_000, dtype=np.int64)
    table.set_many(vpns, vpns + 1, np.zeros_like(vpns), vpns + 2)
    assert table.base <= 20_000 and table.pfn.size <= 2 * (50_000 - 20_000 + 1 + PAD)
    assert table.present_vpns().tolist() == [*vpns.tolist(), 50_000]
    assert table.value[table.indices(vpns)].tolist() == (vpns + 2).tolist()
