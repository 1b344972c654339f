"""Numba mirrors of the reference kernels (DESIGN.md §6).

Each ``@njit(cache=True)`` function reimplements the matching
:mod:`repro.kernels.np_backend` array program as an explicit loop.  The
contract is bit-identity: integer kernels are free to reorder (integer
adds commute), float kernels perform the same elementwise operations in
the same per-slot order (one add per unique key in array order, one
multiply per decay), and no kernel touches RNG state.  The differential
backend suite (tests/kernels/) runs the golden matrix and a fuzz
campaign under both backends and asserts identical JSON.

Only the conservative numba subset is used — plain loops, scalar
``np.searchsorted``, ``np.sort`` — so the module compiles on any
reasonably recent numba.  Importing this module without numba installed
raises ImportError; the dispatcher in ``repro.kernels`` catches that and
falls back to the numpy backend.
"""

from __future__ import annotations

import numpy as np
from numba import njit

_STATE_MAPPED = 1
_STATE_MIGRATING = 2


# -- Zipf LUT inversion ----------------------------------------------------------


@njit(cache=True)
def zipf_invert(cdf, lut, wide, m, u):
    n = u.size
    out = np.empty(n, dtype=np.int64)
    csize = cdf.size
    for i in range(n):
        ui = u[i]
        b = np.int64(ui * m)
        r = np.int64(lut[b])
        if wide[b]:
            # bracket [lut[b], lut[b+1]]; the last bucket's top is n
            hi = np.int64(lut[b + 1]) if b + 1 < m else csize
            while r < hi:
                mid = (r + hi) >> 1
                if cdf[mid] <= ui:
                    r = mid + 1
                else:
                    hi = mid
        elif cdf[r] <= ui:
            r += 1
        out[i] = r
    return out


# -- PageStatsStore hot updates --------------------------------------------------


@njit(cache=True)
def page_record_rows(
    epoch_reads, epoch_writes, last_access_cycle, touched, pfns, n_reads, n_writes, cycle,
):
    for i in range(pfns.size):
        p = pfns[i]
        epoch_reads[p] += n_reads[i]
        epoch_writes[p] += n_writes[i]
        last_access_cycle[p] = cycle
        touched[p] = True


@njit(cache=True)
def page_reset_epoch(touched, state, epoch_reads, epoch_writes):
    for p in range(touched.size):
        if touched[p]:
            s = state[p]
            if s == _STATE_MAPPED or s == _STATE_MIGRATING:
                epoch_reads[p] = 0
                epoch_writes[p] = 0
                touched[p] = False


@njit(cache=True)
def pid_fast_usage(state, pid_col, pid, fast_frames):
    n = state.size if state.size < fast_frames else fast_frames
    count = 0
    for p in range(n):
        s = state[p]
        if (s == _STATE_MAPPED or s == _STATE_MIGRATING) and pid_col[p] == pid:
            count += 1
    return count


@njit(cache=True)
def pid_ground_truth(state, pid_col, epoch_reads, epoch_writes, touched, pid, fast_frames, cut):
    n_fast = state.size if state.size < fast_frames else fast_frames
    hot_fast = 0
    fast = 0
    for p in range(n_fast):
        s = state[p]
        if (s == _STATE_MAPPED or s == _STATE_MIGRATING) and pid_col[p] == pid:
            fast += 1
            if epoch_reads[p] + epoch_writes[p] >= cut:
                hot_fast += 1
    hot = hot_fast
    for p in range(n_fast, state.size):
        if touched[p]:
            s = state[p]
            if (
                (s == _STATE_MAPPED or s == _STATE_MIGRATING)
                and pid_col[p] == pid
                and epoch_reads[p] + epoch_writes[p] >= cut
            ):
                hot += 1
    return (hot, hot_fast, fast - hot_fast, fast)


# -- HeatStore accumulate / decay / gather -------------------------------------


@njit(cache=True)
def heat_accumulate(heat, live, idx, sums):
    n = idx.size
    new = np.empty(n, dtype=np.bool_)
    m = np.inf
    for i in range(n):
        j = idx[i]
        heat[j] += sums[i]
    for i in range(n):
        j = idx[i]
        new[i] = not live[j]
        live[j] = True
        if heat[j] < m:
            m = heat[j]
    return new, m


@njit(cache=True)
def heat_add_scaled(heat, live, idx, heats, scale):
    n = idx.size
    new = np.empty(n, dtype=np.bool_)
    m = np.inf
    for i in range(n):
        j = idx[i]
        heat[j] += heats[i] * scale
    for i in range(n):
        j = idx[i]
        new[i] = not live[j]
        live[j] = True
        if heat[j] < m:
            m = heat[j]
    return new, m


@njit(cache=True)
def heat_decay(heat, decay):
    for i in range(heat.size):
        heat[i] *= decay


@njit(cache=True)
def heat_compact(heat, live, floor):
    count = 0
    for i in range(heat.size):
        if live[i] and heat[i] < floor:
            count += 1
    dead_idx = np.empty(count, dtype=np.int64)
    if count:
        j = 0
        for i in range(heat.size):
            if live[i] and heat[i] < floor:
                dead_idx[j] = i
                j += 1
                heat[i] = 0.0
                live[i] = False
    return dead_idx


@njit(cache=True)
def heat_min_live(heat, live):
    m = np.inf
    for i in range(heat.size):
        if live[i] and heat[i] < m:
            m = heat[i]
    return m


@njit(cache=True)
def heat_gather(heat, base, vpns):
    out = np.zeros(vpns.size, dtype=np.float64)
    size = heat.size
    for i in range(vpns.size):
        j = vpns[i] - base
        if 0 <= j < size:
            out[i] = heat[j]
    return out


# -- profiler helpers ------------------------------------------------------------


@njit(cache=True)
def write_fractions(h, w):
    out = np.zeros(h.size, dtype=np.float64)
    for i in range(h.size):
        hi = h[i]
        if hi > 0.0:
            f = w[i] / hi
            out[i] = f if f < 1.0 else 1.0
    return out


# -- EpochPlan execution ---------------------------------------------------------


@njit(cache=True)
def plan_span_stats(key, pfn_span, fast_frames, offsets, span):
    counts = np.zeros(2 * span, dtype=np.int64)
    for i in range(key.size):
        counts[key[i]] += 1
    n_seg = offsets.size - 1
    fast_seg = np.zeros(n_seg, dtype=np.int64)
    for k in range(n_seg):
        c = 0
        for i in range(offsets[k], offsets[k + 1]):
            if pfn_span[key[i] >> 1] < fast_frames:
                c += 1
        fast_seg[k] = c
    return counts, fast_seg


@njit(cache=True)
def plan_segment_unique(key, offsets, scratch):
    n_seg = offsets.size - 1
    out = np.empty(key.size, dtype=np.int64)
    flag = np.empty(key.size, dtype=np.bool_)
    bounds = np.zeros(n_seg + 1, dtype=np.int64)
    pos = 0
    for k in range(n_seg):
        cnt = 0
        for i in range(offsets[k], offsets[k + 1]):
            kk = key[i]
            o = kk >> 1
            if not (scratch[2 * o] or scratch[2 * o + 1]):
                out[pos + cnt] = o
                cnt += 1
            scratch[kk] = True
        # first-occurrence order -> ascending (the flatnonzero order)
        seg = np.sort(out[pos:pos + cnt])
        for i in range(cnt):
            o = seg[i]
            out[pos + i] = o
            flag[pos + i] = scratch[2 * o + 1]
            scratch[2 * o] = False
            scratch[2 * o + 1] = False
        pos += cnt
        bounds[k + 1] = pos
    return out[:pos].copy(), flag[:pos].copy(), bounds


# -- candidate gathering (bias / policies) ---------------------------------------


@njit(cache=True)
def hot_slow_candidates(
    vpns, heats, hot_threshold, pfn_tab, owner_tab, base, fast_frames, shared_tid
):
    n = vpns.size
    tab = pfn_tab.size
    count = 0
    for i in range(n):
        if heats[i] >= hot_threshold:
            j = vpns[i] - base
            if 0 <= j < tab:
                p = pfn_tab[j]
                if p >= 0 and p >= fast_frames:
                    count += 1
    sel_vpns = np.empty(count, dtype=np.int64)
    sel_heats = np.empty(count, dtype=np.float64)
    priv = np.empty(count, dtype=np.bool_)
    k = 0
    for i in range(n):
        if heats[i] >= hot_threshold:
            j = vpns[i] - base
            if 0 <= j < tab:
                p = pfn_tab[j]
                if p >= 0 and p >= fast_frames:
                    sel_vpns[k] = vpns[i]
                    sel_heats[k] = heats[i]
                    priv[k] = owner_tab[j] != shared_tid
                    k += 1
    return sel_vpns, sel_heats, priv


# -- compile warm-up -------------------------------------------------------------


def warmup() -> None:
    """Force one compilation per kernel at the production signatures.

    Runs at import (dispatcher) so ``cache=True`` artifacts are built —
    or loaded — before any timed region; without it the first bench
    epoch would pay the JIT cost.
    """
    i64 = np.arange(2, dtype=np.int64)
    f64 = np.ones(2, dtype=np.float64)
    b = np.zeros(2, dtype=np.bool_)
    i8 = np.zeros(2, dtype=np.int8)
    i16 = np.zeros(2, dtype=np.int16)
    u = np.array([0.1, 0.9])
    cdf = np.array([0.5, 1.0])
    lut = np.searchsorted(cdf, np.arange(65536) / 65536.0, side="right").astype(np.int32)
    zipf_invert(cdf, lut, np.zeros(65536, dtype=np.bool_), 65536, u)
    page_record_rows(
        i64.copy(), i64.copy(), i64.copy(), b.copy(), np.array([0, 1], dtype=np.int64),
        i64, i64, 1,
    )
    page_reset_epoch(b.copy(), i8, i64.copy(), i64.copy())
    pid_fast_usage(i8, i64, 0, 1)
    pid_ground_truth(i8, i64, i64, i64, b, 0, 1, 1)
    heat_accumulate(f64.copy(), b.copy(), i64, f64)
    heat_add_scaled(f64.copy(), b.copy(), i64, f64, 0.5)
    heat_decay(f64.copy(), 0.5)
    heat_compact(f64.copy(), b.copy(), 1e-6)
    heat_min_live(f64, b)
    heat_gather(f64, 0, i64)
    write_fractions(f64, f64)
    plan_span_stats(i64, i64, 1, np.array([0, 2], dtype=np.int64), 1)
    plan_segment_unique(i64, np.array([0, 2], dtype=np.int64), np.zeros(4, dtype=np.bool_))
    hot_slow_candidates(i64, f64, 0.5, i64, i16, 0, 1, -1)
