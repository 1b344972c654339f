"""Per-kernel unit tests against independent numpy oracles.

Parametrized over every importable backend: the numpy reference always,
the numba mirror when the ``repro[fast]`` extra is installed — so the
CI fast leg proves each compiled kernel against the same oracle, not
just against the reference backend end to end.
"""

from __future__ import annotations

import importlib.util

import numpy as np
import pytest

from repro.kernels import np_backend

_BACKENDS = {"python": np_backend}
if importlib.util.find_spec("numba") is not None:
    from repro.kernels import nb_backend

    _BACKENDS["numba"] = nb_backend


@pytest.fixture(params=sorted(_BACKENDS), ids=sorted(_BACKENDS))
def be(request):
    return _BACKENDS[request.param]


def _rng():
    return np.random.default_rng(42)


# -- zipf ------------------------------------------------------------------------


def test_zipf_invert_matches_searchsorted(be):
    from repro.workloads.zipf import ZipfSampler

    # 300k ranks: most buckets are wide, so both finishing paths run
    for n, skew in ((5000, 0.99), (300_000, 0.0)):
        s = ZipfSampler(n=n, s=skew)
        u = _rng().random(20_000)
        got = be.zipf_invert(s._cdf, s._lut, s._wide, s._LUT_BUCKETS, u)
        want = np.searchsorted(s._cdf, u, side="right")
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)


# -- page store ------------------------------------------------------------------


def test_page_record_rows_oracle(be):
    rng = _rng()
    n = 64
    er = rng.integers(0, 50, n).astype(np.int64)
    ew = rng.integers(0, 50, n).astype(np.int64)
    lac = np.zeros(n, dtype=np.int64)
    touched = np.zeros(n, dtype=bool)
    pfns = rng.permutation(n)[:20].astype(np.int64)
    nr = rng.integers(0, 9, 20).astype(np.int64)
    nw = rng.integers(0, 9, 20).astype(np.int64)

    exp = [a.copy() for a in (er, ew, lac, touched)]
    for i, p in enumerate(pfns):
        exp[0][p] += nr[i]
        exp[1][p] += nw[i]
        exp[2][p] = 99
        exp[3][p] = True

    be.page_record_rows(er, ew, lac, touched, pfns, nr, nw, 99)
    for got, want in zip((er, ew, lac, touched), exp):
        np.testing.assert_array_equal(got, want)


def test_page_reset_epoch_only_clears_touched_live_rows(be):
    n = 32
    rng = _rng()
    touched = rng.random(n) < 0.5
    state = rng.integers(0, 4, n).astype(np.int8)
    er = rng.integers(1, 9, n).astype(np.int64)
    ew = rng.integers(1, 9, n).astype(np.int64)
    t0, s0, er0, ew0 = touched.copy(), state.copy(), er.copy(), ew.copy()
    be.page_reset_epoch(touched, state, er, ew)
    for i in range(n):
        if t0[i] and s0[i] in (1, 2):
            assert er[i] == 0 and ew[i] == 0 and not touched[i]
        else:
            assert er[i] == er0[i] and ew[i] == ew0[i] and touched[i] == t0[i]
    np.testing.assert_array_equal(state, s0)


def _full_scan_ground_truth(state, pid_col, er, ew, pid, fast_frames, cut):
    """Every row, touched or not: the scan the kernel must equal."""
    live = (state == 1) | (state == 2)
    mine = np.flatnonzero(live & (pid_col == pid))
    hot = (er[mine] + ew[mine]) >= cut
    fast = int((mine < fast_frames).sum())
    hot_fast = int((hot & (mine < fast_frames)).sum())
    return (int(hot.sum()), hot_fast, fast - hot_fast, fast)


def _store_rows(rng, n):
    """Random rows that keep the store's invariant: nonzero epoch
    counters imply touched (and touched rows may have zero counters)."""
    state = rng.integers(0, 4, n).astype(np.int8)
    pid_col = rng.integers(100, 104, n).astype(np.int64)
    er = rng.integers(0, 6, n).astype(np.int64) * (rng.random(n) < 0.6)
    ew = rng.integers(0, 6, n).astype(np.int64) * (rng.random(n) < 0.6)
    touched = (er > 0) | (ew > 0) | (rng.random(n) < 0.1)
    return state, pid_col, er, ew, touched


def test_pid_usage_and_ground_truth(be):
    rng = _rng()
    n = 200
    state, pid_col, er, ew, touched = _store_rows(rng, n)
    fast_frames, pid, cut = 80, 101, 4
    live = (state == 1) | (state == 2)
    mine = np.flatnonzero(live & (pid_col == pid))
    want_fast = int((mine < fast_frames).sum())
    assert be.pid_fast_usage(state, pid_col, pid, fast_frames) == want_fast
    hot = (er[mine] + ew[mine]) >= cut
    got = be.pid_ground_truth(state, pid_col, er, ew, touched, pid, fast_frames, cut)
    want_hf = int((hot & (mine < fast_frames)).sum())
    assert tuple(int(x) for x in got) == (
        int(hot.sum()), want_hf, want_fast - want_hf, want_fast,
    )


@pytest.mark.parametrize("fast_frames", [0, 1, 80, 199, 200, 260])
@pytest.mark.parametrize("cut", [1, 4, 8])
def test_pid_ground_truth_matches_full_scan(be, fast_frames, cut):
    """The fast-rows-plus-touched scan against a scan of every row.
    SHADOW rows keep their counters and their touched bit, one pid has
    no touched row, and ``fast_frames`` may lie past the rows."""
    rng = np.random.default_rng(fast_frames * 10 + cut)
    n = 200
    state, pid_col, er, ew, touched = _store_rows(rng, n)
    shadows = rng.permutation(n)[:30]
    state[shadows] = 3
    er[shadows] += cut
    touched[shadows] = True
    # pid 104 maps rows on both sides of the fast boundary, all untouched
    quiet = np.flatnonzero(~touched)[::4]
    pid_col[quiet] = 104
    state[quiet] = 1
    assert quiet.size and not touched[pid_col == 104].any()
    for pid in range(100, 106):
        want = _full_scan_ground_truth(state, pid_col, er, ew, pid, fast_frames, cut)
        got = be.pid_ground_truth(state, pid_col, er, ew, touched, pid, fast_frames, cut)
        assert tuple(int(x) for x in got) == want, pid


@pytest.mark.parametrize("fast_frames", [0, 1, 80, 199, 200, 260])
def test_pid_fast_usage_matches_full_scan(be, fast_frames):
    """The fast-rows-only scan against a scan of every row, also when
    the materialized rows end at or before the fast tier does."""
    rng = _rng()
    n = 200
    state = rng.integers(0, 4, n).astype(np.int8)
    pid_col = rng.integers(100, 104, n).astype(np.int64)
    for pid in range(100, 104):
        live = (state == 1) | (state == 2)
        mine = np.flatnonzero(live & (pid_col == pid))
        want = int((mine < fast_frames).sum())
        assert be.pid_fast_usage(state, pid_col, pid, fast_frames) == want


# -- heat store ------------------------------------------------------------------


def test_heat_accumulate_reports_new_and_min(be):
    heat = np.zeros(10)
    live = np.zeros(10, dtype=bool)
    live[3] = True
    heat[3] = 2.0
    idx = np.array([3, 5, 7], dtype=np.int64)
    sums = np.array([1.0, 4.0, 0.5])
    new, mn = be.heat_accumulate(heat, live, idx, sums)
    np.testing.assert_array_equal(new, [False, True, True])
    assert live[[3, 5, 7]].all()
    np.testing.assert_allclose(heat[[3, 5, 7]], [3.0, 4.0, 0.5])
    assert mn == 0.5


def test_heat_add_scaled(be):
    heat = np.zeros(6)
    live = np.zeros(6, dtype=bool)
    idx = np.array([1, 4], dtype=np.int64)
    new, mn = be.heat_add_scaled(heat, live, idx, np.array([2.0, 8.0]), 0.25)
    np.testing.assert_allclose(heat[[1, 4]], [0.5, 2.0])
    assert new.all() and mn == 0.5


def test_heat_decay_compact_min(be):
    heat = np.array([0.0, 4.0, 0.1, 2.0])
    live = np.array([False, True, True, True])
    be.heat_decay(heat, 0.5)
    np.testing.assert_allclose(heat, [0.0, 2.0, 0.05, 1.0])
    dead = be.heat_compact(heat, live, 0.5)
    np.testing.assert_array_equal(dead, [2])
    assert heat[2] == 0.0 and not live[2]
    assert be.heat_min_live(heat, live) == 1.0
    assert be.heat_min_live(heat, np.zeros(4, dtype=bool)) == np.inf


def test_heat_gather_out_of_range_is_zero(be):
    heat = np.array([1.0, 2.0, 3.0])
    got = be.heat_gather(heat, 100, np.array([99, 100, 102, 103], dtype=np.int64))
    np.testing.assert_allclose(got, [0.0, 1.0, 3.0, 0.0])


# -- profiler helpers ------------------------------------------------------------


def test_write_fractions(be):
    h = np.array([0.0, 2.0, 4.0, 1.0])
    w = np.array([1.0, 1.0, 8.0, 0.0])
    np.testing.assert_allclose(be.write_fractions(h, w), [0.0, 0.5, 1.0, 0.0])


# -- plan execution --------------------------------------------------------------


def _plan_fixture(write_p=0.4, span=30):
    rng = _rng()
    offsets = np.array([0, 40, 40, 100], dtype=np.int64)
    off_all = rng.integers(0, span, 100).astype(np.int64)
    is_write = rng.random(100) < write_p
    key = off_all << 1 | is_write
    return off_all, is_write, key, offsets


#: (write probability, span): mixed, all-write, no-write, and one offset
_PLAN_CASES = ((0.4, 30), (1.0, 30), (0.0, 30), (0.5, 1))


def test_plan_span_stats_oracle(be):
    """Read and write counts and the per-segment tier split against a
    per-access walk; the span table holds -1 at the offsets no access
    names."""
    for write_p, span in _PLAN_CASES:
        off_all, is_write, key, offsets = _plan_fixture(write_p, span)
        fast_frames = 100 if span > 1 else 4
        pfn_span = np.arange(span, dtype=np.int64) * 7 + 3  # one pfn per offset
        pfn_span[np.setdiff1d(np.arange(span), off_all)] = -1
        counts, fast_seg = be.plan_span_stats(key, pfn_span, fast_frames, offsets, span)
        want_reads = np.zeros(span, dtype=np.int64)
        want_writes = np.zeros(span, dtype=np.int64)
        for o, w in zip(off_all.tolist(), is_write.tolist()):
            (want_writes if w else want_reads)[o] += 1
        assert counts.dtype == fast_seg.dtype == np.int64
        assert counts.size == 2 * span
        np.testing.assert_array_equal(counts[0::2], want_reads)
        np.testing.assert_array_equal(counts[1::2], want_writes)
        want_fast = [
            sum(int(pfn_span[o] < fast_frames) for o in off_all[s:e].tolist())
            for s, e in zip(offsets[:-1].tolist(), offsets[1:].tolist())
        ]
        np.testing.assert_array_equal(fast_seg, want_fast)


def test_plan_segment_unique_oracle(be):
    for write_p, span in _PLAN_CASES:
        off_all, is_write, key, offsets = _plan_fixture(write_p, span)
        scratch = np.zeros(2 * span, dtype=bool)
        ucat, written, bounds = be.plan_segment_unique(key, offsets, scratch)
        assert not scratch.any(), "scratch must be returned all-False"
        assert bounds[0] == 0 and bounds.size == offsets.size
        assert ucat.dtype == bounds.dtype == np.int64 and written.dtype == bool
        # sized to the unique count, owning its memory
        assert ucat.size == written.size == bounds[-1]
        assert ucat.base is None or ucat.base.size == ucat.size
        for k in range(offsets.size - 1):
            seg = off_all[offsets[k] : offsets[k + 1]]
            seg_w = is_write[offsets[k] : offsets[k + 1]]
            uniq = np.unique(seg)
            np.testing.assert_array_equal(ucat[bounds[k] : bounds[k + 1]], uniq)
            np.testing.assert_array_equal(written[bounds[k] : bounds[k + 1]], np.isin(uniq, seg[seg_w]))


# -- candidate gathering ---------------------------------------------------------


def test_hot_slow_candidates_oracle(be):
    rng = _rng()
    base, n_pages, fast_frames, shared = 1000, 60, 25, 255
    pfn_tab = rng.permutation(50).astype(np.int64)
    pfn_tab = np.concatenate([pfn_tab, np.full(10, -1, dtype=np.int64)])
    owner_tab = rng.integers(0, 3, n_pages).astype(np.int16)
    owner_tab[rng.random(n_pages) < 0.3] = shared
    vpns = base + rng.permutation(n_pages)[:40].astype(np.int64)
    vpns[:4] = base - 5  # out-of-range vpns must be dropped
    heats = rng.random(40) * 20
    got_v, got_h, got_p = be.hot_slow_candidates(
        vpns, heats, 10.0, pfn_tab, owner_tab, base, fast_frames, shared
    )
    exp = []
    for v, h in zip(vpns.tolist(), heats.tolist()):
        if h < 10.0:
            continue
        i = v - base
        if not (0 <= i < n_pages) or pfn_tab[i] < 0 or pfn_tab[i] < fast_frames:
            continue
        exp.append((v, h, owner_tab[i] != shared))
    np.testing.assert_array_equal(got_v, [e[0] for e in exp])
    np.testing.assert_allclose(got_h, [e[1] for e in exp])
    np.testing.assert_array_equal(got_p, [e[2] for e in exp])


def test_empty_inputs(be):
    e_i = np.empty(0, dtype=np.int64)
    e_f = np.empty(0, dtype=np.float64)
    e_b = np.empty(0, dtype=bool)
    ucat, written, bounds = be.plan_segment_unique(
        e_i, np.zeros(3, dtype=np.int64), np.zeros(0, dtype=bool)
    )
    assert ucat.size == written.size == 0 and bounds.tolist() == [0, 0, 0]
    cdf = np.array([0.5, 1.0])
    lut = np.zeros(65536, dtype=np.int32)
    assert be.zipf_invert(cdf, lut, np.zeros(65536, dtype=bool), 65536, e_f).size == 0
    v, h, p = be.hot_slow_candidates(
        e_i, e_f, 1.0, np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int16), 0, 2, 255
    )
    assert v.size == h.size == p.size == 0
    assert be.heat_gather(np.zeros(3), 0, e_i).size == 0
