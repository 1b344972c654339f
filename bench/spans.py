"""Wall-clock spans around the public callables of each simulator layer.

The benchmark times layers from outside the program: :meth:`Tracer.install`
replaces every callable named in :data:`TARGETS` with a timing wrapper and
:meth:`Tracer.uninstall` puts the original objects back.  Spans nest, and a
span's self time is its duration minus the time of the spans it encloses.
A span that re-enters itself (a subclass ``end_epoch`` calling ``super()``)
is timed once, at the outermost call.

Every span and counter is charged to the window that is current when the
span ends: ``setup``, ``warmup``, ``measured`` or ``post``.  The workload
runner moves the window at epoch boundaries, where no span is open.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


def _migrate_counts(args, outcomes) -> dict[str, int]:
    from repro.mm.migration import MigrationOutcome

    counts = {"mm.migrate.requests": len(args[1])}
    for outcome in (MigrationOutcome.RETRIED, MigrationOutcome.FELL_BACK_SYNC, MigrationOutcome.FAILED):
        counts[f"mm.migrate.{outcome.value}"] = sum(o is outcome for o in outcomes)
    return counts


@dataclass(frozen=True)
class Target:
    """One callable to time, named ``"module:Class.attr"`` or ``"module:func"``.

    ``subclasses`` also patches every subclass that defines ``attr`` itself.
    ``count`` maps the call's positional arguments and result to counter
    increments.
    """

    span: str
    where: str
    subclasses: bool = False
    count: Callable[[tuple, object], dict[str, int]] | None = None


TARGETS: tuple[Target, ...] = (
    Target("workloads.plan", "repro.workloads.base:Workload.planned_epoch"),
    Target("mm.record", "repro.mm.address_space:AddressSpace.record_plan",
           count=lambda a, r: {"mm.record.accesses": int(a[1].vpns.size)}),
    Target("profiling.observe", "repro.profiling.base:Profiler.observe_plan", subclasses=True),
    Target("policies.tier_samples", "repro.policies.base:TieringPolicy.record_tier_samples"),
    Target("policies.end_epoch", "repro.policies.base:TieringPolicy.end_epoch", subclasses=True),
    Target("profiling.end_epoch", "repro.profiling.base:Profiler.end_epoch", subclasses=True),
    Target("core.daemon.tick", "repro.core.daemon:VulcanDaemon.tick"),
    Target("core.qos", "repro.core.qos:QosTracker.end_epoch"),
    Target("core.qos", "repro.core.qos:QosTracker.demands"),
    Target("core.cbfrp", "repro.core.daemon:run_cbfrp"),
    Target("core.bias.gather", "repro.core.bias:BiasedMigrationPolicy.refresh_candidates"),
    Target("core.bias.select", "repro.core.bias:BiasedMigrationPolicy.select_promotions",
           count=lambda a, r: {"core.bias.promotions": len(r)}),
    Target("core.bias.select", "repro.core.bias:BiasedMigrationPolicy.select_demotions",
           count=lambda a, r: {"core.bias.demotions": len(r)}),
    Target("mm.migrate", "repro.mm.migration:MigrationEngine.migrate_batch", count=_migrate_counts),
    Target("mm.accounting", "repro.mm.page_store:PageStatsStore.ground_truth_hotness"),
    Target("mm.counter_reset", "repro.mm.page_store:PageStatsStore.reset_epoch_counters"),
    Target("mm.fault", "repro.mm.address_space:AddressSpace.fault"),
    Target("mm.lru", "repro.mm.lru:LruSubsystem.add_page"),
    Target("mm.lru", "repro.mm.lru:LruSubsystem.drain"),
    Target("mm.lru", "repro.mm.lru:LruSubsystem.forget_pages"),
    Target("policies.register", "repro.policies.base:TieringPolicy.register_workload"),
    Target("policies.unregister", "repro.policies.base:TieringPolicy.unregister_workload"),
    Target("mm.free_pid", "repro.mm.frame_alloc:FrameAllocator.free_pid"),
    Target("mm.alloc_check", "repro.mm.frame_alloc:FrameAllocator.check_consistency"),
    Target("fuzz.oracle", "repro.fuzz.oracle:check_frame_conservation"),
    Target("fuzz.oracle", "repro.fuzz.oracle:check_store_rows"),
    Target("fleet.placer", "repro.fleet.placer:Placer.assign", subclasses=True),
    Target("fleet.oracle", "repro.fleet.experiment:oracle_assignment"),
    Target("fleet.oracle", "repro.fleet.placer:oracle_assignment"),
    Target("fleet.node_cell", "repro.fleet.experiment:build_node_cell"),
    Target("fleet.node_round", "repro.fleet.experiment:run_node_round"),
    Target("harness.construct", "repro.harness.experiment:ColocationExperiment.__init__"),
    # Private, but admission and teardown are loops whose own cost is a layer.
    Target("harness.admit", "repro.harness.experiment:ColocationExperiment._admit"),
    Target("harness.admit", "repro.scenario.engine:ScenarioExperiment._admit"),
    Target("harness.retire", "repro.harness.experiment:ColocationExperiment._retire"),
)

#: span names in table order, each once
SPANS: tuple[str, ...] = tuple(dict.fromkeys(t.span for t in TARGETS))
#: counters the ``count`` hooks feed, reported per measured epoch
COUNTERS = (
    "mm.record.accesses",
    "mm.migrate.requests",
    "mm.migrate.retried",
    "mm.migrate.fell_back_sync",
    "mm.migrate.failed",
    "core.bias.promotions",
    "core.bias.demotions",
)


def _owners(target: Target) -> list[tuple[object, str]]:
    """The (class or module, attribute) pairs a target patches."""
    module_name, _, path = target.where.partition(":")
    module = importlib.import_module(module_name)
    if "." not in path:
        return [(module, path)]
    cls_name, attr = path.split(".")
    base = getattr(module, cls_name)
    owners = [base]
    if target.subclasses:
        # Subclasses living in sibling modules must be imported to be seen.
        importlib.import_module(module_name.rpartition(".")[0])
        todo = list(base.__subclasses__())
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if attr in vars(cls):
                owners.append(cls)
    return [(cls, attr) for cls in owners]


class Tracer:
    """Times :data:`TARGETS` while installed; see the module docstring."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.targets = targets
        self.clock = clock
        self.window = "setup"
        #: (span, window) -> [self ns, calls]
        self.stats: dict[tuple[str, str], list[int]] = defaultdict(lambda: [0, 0])
        #: (counter, window) -> total
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        #: window -> ns spent inside spans that had no enclosing span
        self.top_ns: dict[str, int] = defaultdict(int)
        self._children: list[int] = []  # child ns of each open span
        self._depth: dict[str, int] = defaultdict(int)
        self._saved: list[tuple[object, str, object]] = []
        #: targets that no longer resolve; their spans read 0
        self.missing: list[str] = []

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        try:
            for target in self.targets:
                try:
                    owners = _owners(target)
                except (ImportError, AttributeError):
                    self.missing.append(target.where)
                    continue
                for owner, attr in owners:
                    original = vars(owner).get(attr)
                    if not inspect.isfunction(original):
                        self.missing.append(f"{target.where} on {owner.__name__}")
                        continue
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(target, original))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        span, count = target.span, target.count
        clock, children, depth = self.clock, self._children, self._depth

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if depth[span]:
                return fn(*args, **kwargs)
            depth[span] += 1
            children.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                depth[span] -= 1
                self._close(span, elapsed, children.pop())
            if count is not None:
                for name, n in count(args, result).items():
                    self.counts[(name, self.window)] += n
            return result

        return timed

    def _close(self, span: str, elapsed: int, child_ns: int) -> None:
        stat = self.stats[(span, self.window)]
        stat[0] += elapsed - child_ns
        stat[1] += 1
        if self._children:
            self._children[-1] += elapsed
        else:
            self.top_ns[self.window] += elapsed

    # -- report --------------------------------------------------------------

    def layer_metrics(self, *, epochs: int, measured_ns: int, setup_ns: int) -> dict[str, float]:
        """Per-layer metrics: per measured epoch, plus setup self time.

        A metric the run leaves undefined is absent.
        """
        out: dict[str, float] = {}
        for span in dict.fromkeys(t.span for t in self.targets):
            self_ns, calls = self.stats[(span, "measured")]
            out[f"{span}.self_ms"] = self_ns / 1e6 / epochs
            out[f"{span}.calls"] = calls / epochs
            out[f"{span}.setup_ms"] = self.stats[(span, "setup")][0] / 1e6
        out["harness.unattributed.self_ms"] = (measured_ns - self.top_ns["measured"]) / 1e6 / epochs
        out["harness.unattributed.setup_ms"] = (setup_ns - self.top_ns["setup"]) / 1e6
        out["harness.coverage"] = self.top_ns["measured"] / measured_ns
        for name in COUNTERS:
            out[name] = self.counts[(name, "measured")] / epochs
        requests = self.counts[("mm.migrate.requests", "measured")]
        failed = self.counts[("mm.migrate.failed", "measured")]
        if requests:  # undefined without requests
            out["mm.migrate.ok_ratio"] = (requests - failed) / requests
        out["mm.fault.pages"] = self.stats[("mm.fault", "setup")][1]
        return out
