"""Per-plan profiling against the per-segment loops it replaced.

Each profiler observes a whole epoch plan in one call.  The references
below are the per-thread loops the profilers ran before: one call per
segment, each with its own sort or ``np.unique`` and its own heat adds.
Both sides see the same plans over several epochs (rotation, decay and
re-registration included) and must agree bit for bit on heat and write
heat, the heat-insertion order, the ``min_live`` bounds, the profiler
RNG state and ``app_overhead_cycles``.

Plans come from two sources: random plans (empty segments, pages shared
across segments, several pids, vpns off both ends of the rotation) and
plans recorded from the colocation, churn and hugeheap mixes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.profiling.base import EpochPlan
from repro.profiling.hintfault import HINT_FAULT_COST_CYCLES, HintFaultProfiler
from repro.profiling.hybrid import HybridProfiler
from repro.profiling.pebs import PebsProfiler


def _segments(plan: EpochPlan):
    cuts = plan.offsets.tolist()
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        yield plan.vpns[lo:hi], plan.is_write[lo:hi]


def _accumulate(prof, pid, vpns, weights, write_weights):
    """The per-batch heat add: one add per unique page, ascending."""
    uniq, inverse = np.unique(vpns, return_inverse=True)
    sums = np.bincount(inverse, weights=weights)
    wsums = np.bincount(inverse, weights=write_weights)
    prof._heat.accumulate(pid, uniq, sums)
    written = wsums > 0.0
    if written.any():
        prof._write_heat.accumulate(pid, uniq[written], wsums[written])


class SegmentPebs(PebsProfiler):
    """PEBS sampling one segment at a time."""

    def observe_plan(self, plan):
        for vpns, is_write in _segments(plan):
            n = vpns.size
            if n == 0:
                continue
            start = int(self.rng.integers(self.period))
            idx = np.arange(start, n, self.period)
            if idx.size == 0:
                continue
            weights = np.full(idx.size, float(self.period))
            _accumulate(self, plan.pid, vpns[idx], weights, weights * is_write[idx])


class SegmentHintFault(HintFaultProfiler):
    """Hint faults one segment at a time, over every access."""

    def observe_plan(self, plan):
        win = self._window.get(plan.pid)
        for vpns, is_write in _segments(plan):
            if vpns.size == 0 or win is None:
                continue
            base, mask = win
            if not mask.any():
                continue
            hit = mask.take(vpns - base, mode="clip")
            hits = vpns[hit]
            if hits.size == 0:
                continue
            uniq = np.unique(hits)
            mask[uniq - base] = False
            self.stats.app_overhead_cycles += uniq.size * HINT_FAULT_COST_CYCLES
            writes_first = np.zeros(uniq.size, dtype=np.float64)
            w_hits = hits[is_write[hit]]
            if w_hits.size:
                writes_first[np.searchsorted(uniq, w_hits)] = 1.0
            _accumulate(self, plan.pid, uniq, np.ones(uniq.size), writes_first)


class SegmentHybrid(HybridProfiler):
    """The hybrid interleaving its mechanisms segment by segment."""

    def __init__(self, **kwargs) -> None:
        super().__init__(**kwargs)
        self.pebs = SegmentPebs(period=self.pebs.period, decay=self.decay, rng=self.pebs.rng)
        self.faults = SegmentHintFault(window_fraction=self.faults.window_fraction, decay=self.decay)

    def observe_plan(self, plan):
        cuts = plan.offsets.tolist()
        for k, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
            one = EpochPlan(
                pid=plan.pid,
                vpns=plan.vpns[lo:hi],
                is_write=plan.is_write[lo:hi],
                offsets=np.array([0, hi - lo], dtype=np.int64),
                tids=plan.tids[k : k + 1],
            )
            self.pebs.observe_plan(one)
            self.faults.observe_plan(one)


def _make(kind: str, reference: bool, seed: int, decay: float):
    rng = np.random.default_rng(seed)
    if kind == "pebs":
        return (SegmentPebs if reference else PebsProfiler)(period=7, decay=decay, rng=rng)
    if kind == "hintfault":
        return (SegmentHintFault if reference else HintFaultProfiler)(window_fraction=0.25, decay=decay)
    cls = SegmentHybrid if reference else HybridProfiler
    return cls(period=7, window_fraction=0.25, decay=decay, rng=rng)


def _books(prof):
    """Every heat book a profiler keeps (the hybrid's children's too)."""
    out = [prof._heat, prof._write_heat]
    for child in (getattr(prof, "pebs", None), getattr(prof, "faults", None)):
        if child is not None:
            out += _books(child)
    return out


def _rngs(prof):
    return [p.rng.bit_generator.state for p in (prof, getattr(prof, "pebs", None)) if hasattr(p, "rng")]


def assert_same(got, want) -> None:
    for g, w in zip(_books(got), _books(want)):
        assert sorted(g._pids) == sorted(w._pids)
        for pid in w._pids:
            gv, wv = g.ordered_vpns(pid), w.ordered_vpns(pid)
            np.testing.assert_array_equal(gv, wv)
            # bit for bit: compare the float64 bytes
            assert g.gather(pid, wv).tobytes() == w.gather(pid, wv).tobytes()
            assert g._pids[pid].min_live == w._pids[pid].min_live
    assert _rngs(got) == _rngs(want)
    assert got.stats.app_overhead_cycles == want.stats.app_overhead_cycles
    if hasattr(got, "faults") or isinstance(got, HintFaultProfiler):
        gf = got.faults if hasattr(got, "faults") else got
        wf = want.faults if hasattr(want, "faults") else want
        for pid in wf._window:
            np.testing.assert_array_equal(gf._window[pid][1], wf._window[pid][1])


def replay(kind: str, epochs: list[list[EpochPlan]], pages: dict[int, np.ndarray], seed: int = 0,
           decay: float = 0.5):
    """Feed the same plans to the per-plan profiler and its reference.

    Under ``decay=0.5`` every heat is a short dyadic sum, so any order of
    adds gives the same float; a decay of 0.7 makes the order show.
    """
    got, want = _make(kind, False, seed, decay), _make(kind, True, seed, decay)
    for prof in (got, want):
        if kind != "pebs":
            for pid, vpns in pages.items():
                prof.register_pages(pid, vpns)
    for plans in epochs:
        for plan in plans:
            got.observe_plan(dataclasses.replace(plan, pages=None))
            want.observe_plan(plan)
        assert_same(got, want)
        got.end_epoch()
        want.end_epoch()
        assert_same(got, want)
    return got


# -- random plans --------------------------------------------------------------


def _random_plan(rng, pid, lo, hi, n_threads):
    sizes = rng.integers(0, 90, n_threads)
    sizes[rng.integers(n_threads)] = 0
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    n = int(offsets[-1])
    # a small hot range every thread shares, so pages recur across segments
    hot = rng.random(n) < 0.5
    vpns = np.where(hot, rng.integers(lo, lo + 12, n), rng.integers(lo, hi, n))
    return EpochPlan(
        pid=pid,
        vpns=vpns.astype(np.int64),
        is_write=rng.random(n) < 0.3,
        offsets=offsets,
        tids=np.arange(n_threads, dtype=np.int64),
    )


@pytest.mark.parametrize("kind", ["pebs", "hintfault", "hybrid"])
@pytest.mark.parametrize("decay", [0.5, 0.7])
@pytest.mark.parametrize("seed", range(4))
def test_random_plans_match_per_segment_loops(kind, decay, seed):
    rng = np.random.default_rng(seed)
    pages = {1: np.arange(100, 260, dtype=np.int64), 2: np.arange(40, 52, dtype=np.int64)}
    epochs = [
        [
            _random_plan(rng, 1, 80, 300, n_threads=int(rng.integers(1, 9))),
            _random_plan(rng, 2, 30, 60, n_threads=3),
            _random_plan(rng, 3, 0, 40, n_threads=2),  # never registered
        ]
        for _ in range(8)
    ]
    replay(kind, epochs, pages, seed, decay)


@pytest.mark.parametrize("kind", ["pebs", "hintfault", "hybrid"])
def test_one_segment_and_empty_plans(kind):
    rng = np.random.default_rng(9)
    empty = EpochPlan(
        pid=1, vpns=np.empty(0, dtype=np.int64), is_write=np.empty(0, dtype=bool),
        offsets=np.zeros(4, dtype=np.int64), tids=np.arange(3, dtype=np.int64),
    )
    epochs = [[empty, _random_plan(rng, 1, 0, 50, n_threads=1)] for _ in range(3)]
    replay(kind, epochs, {1: np.arange(50, dtype=np.int64)})


# -- plans recorded from the bench mixes ---------------------------------------


def _record(build, epochs: int, keep: range):
    """Run an experiment, keeping copies of the plans of epochs ``keep``
    and the pages each pid touched in them."""
    exp = build()
    plans: list[list[EpochPlan]] = []
    epoch = [0]
    observe, end_epoch = exp.policy.observe_plan, exp.policy.end_epoch

    def spy(plan):
        observe(plan)
        if epoch[0] in keep:
            if len(plans) < epoch[0] - keep.start + 1:
                plans.append([])
            plans[-1].append(dataclasses.replace(
                plan, vpns=plan.vpns.copy(), is_write=plan.is_write.copy(),
                offsets=plan.offsets.copy(), tids=plan.tids.copy(), pages=None,
            ))

    def close():
        epoch[0] += 1
        return end_epoch()

    exp.policy.observe_plan = spy
    exp.policy.end_epoch = close
    exp.run(epochs)
    pages: dict[int, np.ndarray] = {}
    for epoch_plans in plans:
        for plan in epoch_plans:
            pages[plan.pid] = np.union1d(pages.get(plan.pid, np.empty(0, dtype=np.int64)), plan.vpns)
    return plans, pages


def _colocation():
    from repro.harness.experiment import ColocationExperiment
    from repro.sim.config import SimulationConfig
    from repro.workloads.mixes import paper_colocation_mix

    sim = SimulationConfig(epoch_seconds=2.0)
    mix = paper_colocation_mix(sim, seed=1, accesses_per_thread=1500)
    return ColocationExperiment("vulcan", mix, sim=sim, seed=1)


def _churn():
    from repro.scenario.engine import ScenarioExperiment
    from repro.scenario.library import churn

    return ScenarioExperiment(churn())


def _hugeheap():
    from repro.harness.experiment import ColocationExperiment
    from repro.sim.config import SimulationConfig
    from repro.workloads.mixes import hugeheap_mix

    sim = SimulationConfig(epoch_seconds=2.0, page_unit_bytes=2_000_000)
    mix = hugeheap_mix(sim, seed=1, accesses_per_thread=1500)
    return ColocationExperiment("vulcan", mix, sim=sim, seed=1)


RECORDINGS = {
    # PageRank joins at 25 and Liblinear at 55: keep epochs with all three
    "colocation": (_colocation, 58, range(55, 58)),
    # faults armed at 8; pr departs at 15, ll at 20, pr restarts at 24
    "churn": (_churn, 40, range(12, 26)),
    "hugeheap": (_hugeheap, 3, range(0, 3)),
}


@pytest.fixture(scope="module", params=sorted(RECORDINGS))
def recorded(request):
    build, epochs, keep = RECORDINGS[request.param]
    return _record(build, epochs, keep)


@pytest.mark.parametrize("kind", ["pebs", "hintfault", "hybrid"])
@pytest.mark.parametrize("decay", [0.5, 0.7])
def test_recorded_plans_match_per_segment_loops(recorded, kind, decay):
    plans, pages = recorded
    assert sum(plan.n for epoch in plans for plan in epoch) > 0
    prof = replay(kind, plans, pages, decay=decay)
    if kind != "pebs":
        assert prof.stats.app_overhead_cycles > 0
