"""Pure-numpy reference kernels (DESIGN.md §6).

Every function here is the *specification* the numba mirrors in
:mod:`repro.kernels.nb_backend` are differentially pinned against.
Most bodies are the array programs the hot paths ran before the kernel
tier existed, moved verbatim.  ``zipf_invert``, ``pid_ground_truth``
and ``plan_span_stats`` are faster exact rewrites, pinned by the
oracles in tests/kernels/ and tests/test_zipf_inverse.py.  Keep them
boring — no behavioural cleverness belongs in this file, only the
arithmetic the goldens froze.

Shared contract (both backends):

* integer kernels may reorder freely (integer adds commute);
* float kernels must perform the same elementwise operations in the
  same per-slot order the dict/object era used (one add per unique key
  per batch, one multiply per decay);
* no kernel consumes RNG state — draws stay in the callers so stream
  order is backend-independent.
"""

from __future__ import annotations

import numpy as np

#: lifecycle codes, mirrored from repro.mm.page_store (no import cycle)
_STATE_MAPPED = 1
_STATE_MIGRATING = 2


def warmup() -> None:
    """No-op (the numba backend compiles its kernels here)."""


# -- Zipf LUT inversion ----------------------------------------------------------


def zipf_invert(
    cdf: np.ndarray, lut: np.ndarray, wide: np.ndarray, m: int, u: np.ndarray
) -> np.ndarray:
    """Exactly ``np.searchsorted(cdf, u, side='right')``, for ``u`` in [0, 1).

    ``m`` must be a power of two, so ``u * m`` is exact and its floor
    ``b`` satisfies ``b/m <= u < (b+1)/m``.  ``lut[b]`` (int32, ``m``
    entries) counts the CDF steps ``<= b/m`` and ``wide[b]`` flags a
    bucket holding more than one step.  Elsewhere ``r = lut[b]; r +=
    cdf[r] <= u`` is the answer: a one-step bucket needs that compare,
    and in an empty one ``cdf[lut[b]] > (b+1)/m > u`` keeps ``r``.
    Flagged buckets fall back to ``searchsorted``.  Ranks are int64.
    """
    b = (u * m).astype(np.intp)
    r = lut[b].astype(np.int64)
    r += cdf[r] <= u
    in_wide = wide[b]
    if in_wide.any():
        w = np.flatnonzero(in_wide)
        r[w] = np.searchsorted(cdf, u[w], side="right")
    return r


# -- PageStatsStore hot updates --------------------------------------------------


def page_record_rows(
    epoch_reads: np.ndarray,
    epoch_writes: np.ndarray,
    last_access_cycle: np.ndarray,
    touched: np.ndarray,
    pfns: np.ndarray,
    n_reads: np.ndarray,
    n_writes: np.ndarray,
    cycle: int,
) -> None:
    """Account per-frame access counts for unique ``pfns`` rows."""
    epoch_reads[pfns] += n_reads
    epoch_writes[pfns] += n_writes
    last_access_cycle[pfns] = cycle
    touched[pfns] = True


def page_reset_epoch(
    touched: np.ndarray,
    state: np.ndarray,
    epoch_reads: np.ndarray,
    epoch_writes: np.ndarray,
) -> None:
    """Zero epoch counters on touched MAPPED/MIGRATING frames."""
    idx = np.flatnonzero(touched)
    if idx.size == 0:
        return
    st = state[idx]
    clearable = idx[(st == _STATE_MAPPED) | (st == _STATE_MIGRATING)]
    epoch_reads[clearable] = 0
    epoch_writes[clearable] = 0
    touched[clearable] = False


def pid_fast_usage(state: np.ndarray, pid_col: np.ndarray, pid: int, fast_frames: int) -> int:
    """How many fast-tier frames ``pid`` maps (PTE-walk equivalent).

    A frame is fast exactly when its pfn, the row index, is below
    ``fast_frames``, so only those rows are scanned.
    """
    state, pid_col = state[:fast_frames], pid_col[:fast_frames]
    live = (state == _STATE_MAPPED) | (state == _STATE_MIGRATING)
    return int(np.count_nonzero(live & (pid_col == pid)))


def pid_ground_truth(
    state: np.ndarray,
    pid_col: np.ndarray,
    epoch_reads: np.ndarray,
    epoch_writes: np.ndarray,
    touched: np.ndarray,
    pid: int,
    fast_frames: int,
    cut: int,
) -> tuple[int, int, int, int]:
    """(hot, hot∧fast, cold∧fast, fast) page counts for ``pid``.

    Every fast row ``[:fast_frames]`` counts toward ``fast``; above them
    only hot frames count, and with ``cut >= 1`` a hot frame has nonzero
    epoch counters, which the store keeps inside the touched set.  So
    the slow rows are filtered by the touched bitmap before any lifecycle
    or counter read (a contiguous mask: on a heap whose slow rows are
    mostly touched, gathering by a touched index list costs more than
    the full scan it replaces).
    """
    st = state[:fast_frames]
    live = (st == _STATE_MAPPED) | (st == _STATE_MIGRATING)
    fast_pfns = np.flatnonzero(live & (pid_col[:fast_frames] == pid))
    hot_fast = int(np.count_nonzero(
        (epoch_reads[fast_pfns] + epoch_writes[fast_pfns]) >= cut
    ))
    slow_pfns = np.flatnonzero(
        touched[fast_frames:] & (pid_col[fast_frames:] == pid)
    ) + fast_frames
    st = state[slow_pfns]
    hot_slow = int(np.count_nonzero(
        ((st == _STATE_MAPPED) | (st == _STATE_MIGRATING))
        & ((epoch_reads[slow_pfns] + epoch_writes[slow_pfns]) >= cut)
    ))
    fast = int(fast_pfns.size)
    return (hot_fast + hot_slow, hot_fast, fast - hot_fast, fast)


# -- HeatStore accumulate / decay / gather -------------------------------------


def heat_accumulate(
    heat: np.ndarray, live: np.ndarray, idx: np.ndarray, sums: np.ndarray
) -> tuple[np.ndarray, float]:
    """``heat[idx] += sums`` (unique slots); returns (new-slot mask,
    min written heat) for the caller's order-set / min-live bookkeeping."""
    heat[idx] += sums
    new = ~live[idx]
    live[idx] = True
    return new, float(heat[idx].min())


def heat_add_scaled(
    heat: np.ndarray, live: np.ndarray, idx: np.ndarray, heats: np.ndarray, scale: float
) -> tuple[np.ndarray, float]:
    """``heat[idx] += heats * scale`` (unique slots, any order)."""
    heat[idx] += heats * scale
    new = ~live[idx]
    live[idx] = True
    return new, float(heat[idx].min())


def heat_decay(heat: np.ndarray, decay: float) -> None:
    """One epoch of exponential decay (non-live entries are exactly 0.0)."""
    heat *= decay


def heat_compact(heat: np.ndarray, live: np.ndarray, floor: float) -> np.ndarray:
    """Drop live entries whose heat fell below ``floor``; returns their
    slot indices (ascending) so the caller can fix the order set."""
    dead_idx = np.flatnonzero(live & (heat < floor))
    if dead_idx.size:
        heat[dead_idx] = 0.0
        live[dead_idx] = False
    return dead_idx


def heat_min_live(heat: np.ndarray, live: np.ndarray) -> float:
    """Exact minimum live heat (inf when nothing is live)."""
    h = heat[live]
    if h.size == 0:
        return float(np.inf)
    return float(h.min())


def heat_gather(heat: np.ndarray, base: int, vpns: np.ndarray) -> np.ndarray:
    """``heat.get(vpn, 0.0)`` vectorized over ``vpns``."""
    out = np.zeros(vpns.size, dtype=np.float64)
    idx = vpns - base
    ok = (idx >= 0) & (idx < heat.size)
    out[ok] = heat[idx[ok]]
    return out


# -- profiler helpers ------------------------------------------------------------


def write_fractions(h: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``min(w/h, 1)`` where ``h > 0`` else 0, elementwise."""
    out = np.zeros(h.size, dtype=np.float64)
    pos = h > 0.0
    out[pos] = np.minimum(w[pos] / h[pos], 1.0)
    return out


# -- EpochPlan execution ---------------------------------------------------------


def plan_span_stats(
    key: np.ndarray,
    pfn_span: np.ndarray,
    fast_frames: int,
    offsets: np.ndarray,
    span: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-offset read and write counts, per-segment fast-tier counts.

    ``key`` holds one ``offset << 1 | is_write`` per access, so one
    bincount over ``2 * span`` bins counts reads in the even bins and
    writes in the odd bins.  ``pfn_span[o]`` is the frame at span
    offset ``o`` (-1 where unmapped); only the entries at accessed
    offsets reach the result, so the caller checks those for unmapped
    pages.  Each segment's fast-tier count gathers its keys from the
    fast-tier table doubled to the key's bins.
    """
    counts = np.bincount(key, minlength=2 * span)
    fast2 = np.repeat(pfn_span < fast_frames, 2)
    n_seg = offsets.size - 1
    fast_seg = np.empty(n_seg, dtype=np.int64)
    for k in range(n_seg):
        fast_seg[k] = np.count_nonzero(fast2[key[offsets[k]:offsets[k + 1]]])
    return counts, fast_seg


def plan_segment_unique(
    key: np.ndarray, offsets: np.ndarray, scratch: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted unique offsets of each segment, with an any-write flag.

    ``key`` holds ``offset << 1 | is_write`` per access.  Returns
    ``(ucat, written, bounds)``: segment ``k``'s unique offsets
    (ascending) are ``ucat[bounds[k]:bounds[k+1]]``, and ``written[i]``
    is true when segment ``k`` wrote ``ucat[i]`` at least once.  The
    outputs are sized to the unique count, not to ``key``.
    ``scratch`` is a caller-owned all-False bool array with one slot
    per key bin (``2 * span``); it is returned all-False.
    """
    n_seg = offsets.size - 1
    # both bins of an offset read as one uint16 (nonzero when either is
    # set); the odd bins are the write bins
    pair = scratch.view(np.uint16)
    write_bin = scratch[1::2]
    uparts: list[np.ndarray] = []
    wparts: list[np.ndarray] = []
    bounds = np.zeros(n_seg + 1, dtype=np.int64)
    pos = 0
    for k in range(n_seg):
        s, e = int(offsets[k]), int(offsets[k + 1])
        if s < e:
            scratch[key[s:e]] = True
            uoff = np.flatnonzero(pair != 0)
            wparts.append(write_bin[uoff])
            pair[uoff] = 0
            uparts.append(uoff)
            pos += uoff.size
        bounds[k + 1] = pos
    if not uparts:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=bool), bounds
    return np.concatenate(uparts), np.concatenate(wparts), bounds


# -- candidate gathering (bias / policies) ---------------------------------------


def hot_slow_candidates(
    vpns: np.ndarray,
    heats: np.ndarray,
    hot_threshold: float,
    pfn_tab: np.ndarray,
    owner_tab: np.ndarray,
    base: int,
    fast_frames: int,
    shared_tid: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hot slow-tier promotion candidates, in the given (heat-insertion)
    order: (vpns, heats, privately-owned mask)."""
    hot = heats >= hot_threshold
    vpns, heats = vpns[hot], heats[hot]
    if vpns.size == 0:
        return vpns, heats, np.zeros(0, dtype=bool)
    idx = vpns - base
    in_range = (idx >= 0) & (idx < pfn_tab.size)
    pfns = np.full(vpns.size, -1, dtype=np.int64)
    owners = np.full(vpns.size, -1, dtype=np.int16)
    pfns[in_range] = pfn_tab[idx[in_range]]
    owners[in_range] = owner_tab[idx[in_range]]
    slow = (pfns >= 0) & (pfns >= fast_frames)
    sel = np.flatnonzero(slow)
    return vpns[sel], heats[sel], owners[sel] != shared_tid
