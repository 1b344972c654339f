"""FlatPteMirror array growth: writes that creep away from the base."""

from __future__ import annotations

import numpy as np

from repro.mm.replication import FlatPteMirror

PAD = FlatPteMirror._GROW_PAD


def _grow(mirror: FlatPteMirror, vpns: list[int]) -> int:
    """Map each vpn once, in order; returns the number of reallocations.

    Asserts after every write that the arrays stay within twice the
    written span plus pad, so a runaway growth rule fails on its first
    bad step instead of allocating without bound.
    """
    reallocs = 0
    pfn = None
    lo = hi = vpns[0]
    for i, vpn in enumerate(vpns):
        mirror.set(vpn, pfn=i, owner=0, dirty=False, raw=i + 1)
        if mirror.pfn is not pfn:
            reallocs += 1
            pfn = mirror.pfn
        lo, hi = min(lo, vpn), max(hi, vpn)
        assert mirror.pfn.size <= 2 * (hi - lo + 1 + PAD), (i, mirror.pfn.size)
    return reallocs


def _check(mirror: FlatPteMirror, vpns: list[int]) -> None:
    assert mirror.present_vpns().tolist() == sorted(vpns)
    assert mirror.pfn[mirror.indices(np.array(vpns))].tolist() == list(range(len(vpns)))


def test_downward_creep_grows_geometrically():
    k, step = 2000, 100
    top = 10_000_000
    vpns = [top - i * step for i in range(k)]  # each lands below the last base
    mirror = FlatPteMirror()
    reallocs = _grow(mirror, vpns)
    assert reallocs <= int(np.log2(k)) + 2
    assert mirror.pfn.size <= 2 * (vpns[0] - vpns[-1] + 1 + PAD)
    _check(mirror, vpns)


def test_upward_creep_grows_geometrically():
    k, step = 2000, 100
    vpns = [1_000 + i * step for i in range(k)]
    mirror = FlatPteMirror()
    reallocs = _grow(mirror, vpns)
    assert reallocs <= int(np.log2(k)) + 2
    _check(mirror, vpns)


def test_downward_growth_clamps_at_vpn_zero():
    mirror = FlatPteMirror()
    vpns = [5_000, 4_000, 10, 0]
    _grow(mirror, vpns)
    assert mirror.base == 0
    _check(mirror, vpns)


def test_set_many_grows_once_to_cover_the_range():
    mirror = FlatPteMirror()
    mirror.set(50_000, pfn=0, owner=0, dirty=False)
    vpns = np.arange(20_000, 30_000, dtype=np.int64)
    mirror.set_many(vpns, vpns + 1, np.zeros_like(vpns), vpns + 2)
    assert mirror.base <= 20_000 and mirror.pfn.size <= 2 * (50_000 - 20_000 + 1 + PAD)
    assert mirror.present_vpns().tolist() == [*vpns.tolist(), 50_000]
    assert mirror.value[mirror.indices(vpns)].tolist() == (vpns + 2).tolist()
