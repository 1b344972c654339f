"""End-to-end determinism: the whole stack, not just the obs layer.

tests/obs/test_determinism.py proves tracing neither perturbs nor
varies; this extends the guarantee to the experiment itself: two
same-seed :class:`ColocationExperiment` runs — fresh machine, policy,
workloads each time — must produce identical per-workload metrics
(every recorded timeseries, exactly), identical experiment-level
series, identical obs event streams, and identical metrics-registry
contents.  This is the foundation the sweep cache and the serial ≡
parallel differential guarantee stand on.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.harness import ColocationExperiment
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.sim.config import SimulationConfig
from repro.workloads.mixes import dilemma_pair, paper_colocation_mix

#: every per-epoch series WorkloadTimeseries records
SERIES_FIELDS = (
    "epochs", "ops", "avg_access_cycles", "fast_pages", "rss_pages",
    "fthr_true", "hot_pages", "hot_in_fast", "cold_in_fast",
    "promotions", "demotions", "stall_cycles", "fthr_policy", "gpt", "quota",
)


def run_once(policy: str, mix_name: str, *, seed: int, epochs: int = 6):
    sim = SimulationConfig(epoch_seconds=0.5)
    if mix_name == "dilemma":
        mix = dilemma_pair(sim, seed=seed, accesses_per_thread=1200)
    else:
        mix = paper_colocation_mix(sim, seed=seed, accesses_per_thread=800)
    exp = ColocationExperiment(policy, mix, sim=sim, seed=seed)
    return exp.run(epochs)


def assert_results_identical(a, b) -> None:
    assert a.policy_name == b.policy_name
    assert a.n_epochs == b.n_epochs
    assert a.free_fast_pages == b.free_fast_pages
    assert a.migration_cycles == b.migration_cycles
    assert set(a.workloads) == set(b.workloads)
    for pid, ts_a in a.workloads.items():
        ts_b = b.workloads[pid]
        assert ts_a.name == ts_b.name
        for field in SERIES_FIELDS:
            assert getattr(ts_a, field) == getattr(ts_b, field), (
                f"{ts_a.name}.{field} diverged between same-seed runs"
            )


@pytest.mark.parametrize("policy", ["vulcan", "memtis", "tpp"])
def test_same_seed_runs_identical_metrics(policy):
    first = run_once(policy, "dilemma", seed=11)
    second = run_once(policy, "dilemma", seed=11)
    assert_results_identical(first, second)


def test_same_seed_identical_on_paper_mix():
    first = run_once("vulcan", "paper", seed=3, epochs=4)
    second = run_once("vulcan", "paper", seed=3, epochs=4)
    assert_results_identical(first, second)


def test_different_seeds_actually_differ():
    """Guards against the vacuous pass where seeds are ignored."""
    a = run_once("vulcan", "dilemma", seed=11)
    b = run_once("vulcan", "dilemma", seed=12)
    assert any(
        a.workloads[pid].ops != b.workloads[pid].ops for pid in a.workloads
    )


def test_same_seed_runs_emit_identical_obs_state():
    """Event streams *and* the metrics registry match event-for-event."""
    tracer = get_tracer()
    registry = get_registry()
    try:
        tracer.enable()
        registry.enabled = True
        registry.reset()
        first = run_once("vulcan", "dilemma", seed=5)
        events_first = tracer.events()
        metrics_first = registry.collect()

        tracer.enable()  # fresh buffer + clock
        registry.reset()
        second = run_once("vulcan", "dilemma", seed=5)
        events_second = tracer.events()
        metrics_second = registry.collect()
    finally:
        tracer.disable()
        tracer.reset()
        registry.enabled = False
        registry.reset()
    assert_results_identical(first, second)
    assert len(events_first) == len(events_second) > 0
    assert events_first == events_second
    assert metrics_first == metrics_second
    assert metrics_first["counters"]  # the run actually exercised instruments


# -- frozen goldens: cross-commit, not just cross-run ---------------------------
#
# The tests above prove two same-seed runs of *this* commit agree.  The
# goldens in tests/golden/ pin the metrics of the pre-refactor
# (object-per-page) implementation bit-for-bit: ExperimentResult.to_dict()
# round-trips floats losslessly through JSON, so equality here means the
# struct-of-arrays core changed *nothing* observable.  Regenerate (only
# when a behaviour change is intended) with
# ``PYTHONPATH=src python tests/golden/capture.py``.

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
GOLDEN_FILES = sorted(GOLDEN_DIR.glob("e2e_*.json"))


def test_golden_matrix_is_present():
    """The frozen matrix must not silently shrink."""
    assert len(GOLDEN_FILES) == 10


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=lambda p: p.stem)
def test_golden_metrics_bit_identical(path):
    from repro.harness.recipes import standard_run

    frozen = json.loads(path.read_text())
    cfg = frozen["config"]
    res = standard_run(
        cfg["policy"], cfg["mix"], cfg["epochs"], cfg["accesses_per_thread"], cfg["seed"]
    )
    # Compare through the same JSON round-trip capture.py used, so float
    # repr and key types are identical on both sides.
    got = json.loads(json.dumps(res.to_dict(), sort_keys=True))
    assert got == frozen["result"], (
        f"{path.name}: metrics diverged from the frozen pre-refactor run"
    )


# -- frozen traced streams: cross-commit observability ------------------------
#
# The same-commit test above proves two traced runs agree; these pin the
# traced event stream and metrics registry of a colocation run and of the
# churn scenario (departures, restarts, injected faults) to digests
# captured by tests/golden/capture.py, so a refactor of an instrumented
# path cannot silently reorder, drop, or re-time an event.

TRACE_GOLDENS = sorted(GOLDEN_DIR.glob("trace_*.json"))


def test_trace_goldens_are_present():
    assert [p.stem for p in TRACE_GOLDENS] == ["trace_churn", "trace_vulcan_paper"]


@pytest.mark.parametrize("path", TRACE_GOLDENS, ids=lambda p: p.stem)
def test_traced_stream_bit_identical(path):
    from tests.golden.capture import trace_digest

    frozen = json.loads(path.read_text())
    assert trace_digest(frozen["case"]) == frozen["trace"], (
        f"{path.name}: traced event stream or metrics diverged from the frozen run"
    )


# -- frozen fleets: cross-commit, every canned fleet ---------------------------
#
# Each canned fleet (and the drain fleet under the oracle placer) is
# pinned by the sha256 of its FleetResult.canonical_json(): every round
# record, oracle score and move, so a change to the fleet loop, a placer
# or the oracle's bookkeeping cannot move a fleet number unnoticed.

FLEET_GOLDENS = sorted(GOLDEN_DIR.glob("fleet_*.json"))


def test_fleet_goldens_are_present():
    assert [p.stem for p in FLEET_GOLDENS] == [
        "fleet_balanced_trio", "fleet_drain_rebalance",
        "fleet_drain_rebalance_oracle", "fleet_flash_crowd_fleet",
    ]


@pytest.mark.parametrize("path", FLEET_GOLDENS, ids=lambda p: p.stem)
def test_fleet_result_bit_identical(path):
    from tests.golden.capture import fleet_digest

    frozen = json.loads(path.read_text())
    assert fleet_digest(frozen["case"]) == frozen["fleet"], (
        f"{path.name}: fleet result diverged from the frozen run"
    )
