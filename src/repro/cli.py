"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``run``
    Run a co-location experiment and print the steady-state summary::

        python -m repro run --policy vulcan --epochs 60
        python -m repro run --policy memtis --mix dilemma --epochs 25

``compare``
    Race several policies on the same mix and print the Fig. 10-style
    normalized-performance and fairness table::

        python -m repro compare --policies tpp memtis nomad vulcan

``costs``
    Print the calibrated migration cost model (Figures 2/3/7 data)::

        python -m repro costs --cpus 2 8 32

``trace``
    Summarize a trace captured with ``--trace`` (per-phase migration
    cycles, TLB shootdown-scope histogram, CBFRP credit timeline, and a
    scenario's departures, restarts, faults and capacity events)::

        python -m repro run --policy vulcan --epochs 20 --trace /tmp/t.json
        python -m repro trace /tmp/t.json

``sweep``
    Sensitivity sweep over fast-tier sizes × seeds, one cell after
    another in this process::

        python -m repro sweep --policy vulcan --fast-gb 8 16 32 --seeds 1 2 3

``fuzz``
    Property-based scenario fuzzing: generate arbitrary valid scenario
    timelines, run each under the invariant oracle, minimize and
    optionally promote anything that fails::

        python -m repro fuzz --runs 25 --seed 7 --json
        python -m repro fuzz --runs 100 --promote
        python -m repro fuzz --replay tests/golden/fuzz_regressions
        python -m repro fuzz --fleet --runs 25 --promote

``fleet``
    Simulated multi-node cluster: each node runs the single-box stack
    unchanged while a global placer assigns and live-migrates workloads
    using per-node CBFRP credit balances; node rounds run one after
    another in this process::

        python -m repro fleet list
        python -m repro fleet run balanced_trio --json
        python -m repro fleet run drain_rebalance --check

``run``/``compare``/``sweep`` also accept ``--json`` for
machine-readable output instead of rendered tables.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from pathlib import Path

import numpy as np

from repro.harness import Sweep, SweepCellError
from repro.harness.export import to_json
from repro.harness.recipes import (
    STEADY_WINDOW,
    run_summary_json,
    standard_run,
    steady_cfi,
    sweep_cell,
    sweep_mean_ops,
)
from repro.metrics.perf import normalize_to_min
from repro.metrics.reporting import render_table
from repro.mm.migration_costs import MigrationCostModel
from repro.obs.export import read_trace, summarize, write_chrome_trace
from repro.obs.trace import get_tracer
from repro.policies import POLICY_REGISTRY


def _check_trace_path(path: str) -> None:
    """Fail before the run, not after it, when the trace can't be written."""
    parent = Path(path).resolve().parent
    if not parent.is_dir():
        raise SystemExit(f"--trace: directory {parent} does not exist")


@contextlib.contextmanager
def _tracing(path: str | None):
    """Trace the body into ``path`` when one is given.

    The path is checked before the body runs, tracing starts from a
    fresh buffer and clock, and it is off again however the body ends.
    Yields ``save(res=None)``, which writes the captured stream as a
    Chrome trace_event file, naming each pid after its workload in
    ``res``; without a path, ``save`` does nothing.
    """
    if not path:
        yield lambda res=None: None
        return
    _check_trace_path(path)
    tracer = get_tracer()

    def save(res=None) -> None:
        names = {ts.pid: ts.name for ts in res.workloads.values()} if res is not None else None
        n = write_chrome_trace(tracer.events(), path, process_names=names)
        dropped = tracer.buffer.dropped
        note = f" ({dropped} oldest dropped by ring buffer)" if dropped else ""
        print(f"wrote {n} trace events to {path}{note}", file=sys.stderr)

    tracer.enable()
    try:
        yield save
    finally:
        tracer.disable()


def cmd_run(args: argparse.Namespace) -> int:
    with _tracing(args.trace) as save_trace:
        res = standard_run(args.policy, args.mix, args.epochs, args.accesses, args.seed)
        save_trace(res)
    if args.json:
        print(json.dumps(run_summary_json(res, mix=args.mix, seed=args.seed), indent=2))
        return 0
    fairness = steady_cfi(res)
    rows = []
    for ts in res.workloads.values():
        rows.append([
            ts.name,
            ts.rss_pages[-1],
            ts.fast_pages[-1],
            float(np.mean(ts.fthr_true[-STEADY_WINDOW:])),
            float(np.mean(ts.hot_ratio[-STEADY_WINDOW:])),
            float(np.mean(ts.ops[-STEADY_WINDOW:])),
        ])
    print(render_table(
        ["workload", "rss_pages", "fast_pages", "FTHR", "hot_ratio", "ops/epoch"],
        rows,
        title=f"policy={args.policy} mix={args.mix} epochs={args.epochs} (steady window {STEADY_WINDOW})",
        float_fmt="{:.3g}",
    ))
    print(f"\nCFI (Eq. 4, steady window): {fairness:.3f}")
    return 0


def _compare_trace_path(base: str, policy: str) -> str:
    """Per-policy trace file for ``compare``: t.json → t.vulcan.json."""
    p = Path(base)
    suffix = p.suffix or ".json"
    return str(p.with_name(f"{p.stem}.{policy}{suffix}"))


def cmd_compare(args: argparse.Namespace) -> int:
    perf: dict[str, dict[str, float]] = {}
    fairness: dict[str, float] = {}
    names: list[str] = []
    results: dict[str, dict] = {}
    for policy in args.policies:
        if policy not in POLICY_REGISTRY:
            raise SystemExit(f"unknown policy {policy!r}; available: {sorted(POLICY_REGISTRY)}")
        # One trace file, fresh buffer and clock per policy.
        path = _compare_trace_path(args.trace, policy) if args.trace else None
        with _tracing(path) as save_trace:
            res = standard_run(policy, args.mix, args.epochs, args.accesses, args.seed)
            save_trace(res)
        names = [ts.name for ts in res.workloads.values()]
        for ts in res.workloads.values():
            perf.setdefault(ts.name, {})[policy] = float(np.mean(ts.ops[-STEADY_WINDOW:]))
        fairness[policy] = steady_cfi(res)
        if args.json:
            results[policy] = to_json(res)
        print(f"  ran {policy}", file=sys.stderr)
    normalized = {name: normalize_to_min(perf[name]) for name in names}
    if args.json:
        print(json.dumps({
            "mix": args.mix,
            "epochs": args.epochs,
            "seed": args.seed,
            "fairness_cfi": fairness,
            "normalized_perf": normalized,
            "policies": results,
        }, indent=2))
        return 0
    rows = []
    for name in names:
        normed = normalized[name]
        for policy in args.policies:
            rows.append([name, policy, normed[policy], perf[name][policy]])
    print(render_table(
        ["workload", "policy", "normalized", "ops/epoch"],
        rows,
        title=f"performance, mix={args.mix} (normalized to the lowest system)",
        float_fmt="{:.3g}",
    ))
    print()
    print(render_table(
        ["policy", "CFI"],
        [[p, fairness[p]] for p in args.policies],
        title="fairness (FTHR-weighted CFI, higher is better)",
    ))
    return 0


# -- fleet -----------------------------------------------------------------------

def _load_fleet_spec(args: argparse.Namespace):
    from repro.fleet import FleetSpec, FleetSpecError, get_fleet_scenario

    if bool(args.name) == bool(args.spec):
        raise SystemExit("fleet run: give a canned NAME or --spec FILE (not both)")
    try:
        if args.spec:
            return FleetSpec.from_json(args.spec)
        return get_fleet_scenario(args.name)
    except OSError as exc:
        raise SystemExit(f"cannot read --spec file: {exc}")
    except (json.JSONDecodeError, FleetSpecError, KeyError, TypeError) as exc:
        raise SystemExit(f"invalid fleet spec: {exc}")


def cmd_fleet_run(args: argparse.Namespace) -> int:
    from repro.fleet import run_fleet
    from repro.fuzz.oracle import InvariantViolation

    spec = _load_fleet_spec(args)
    overrides = {
        k: v for k, v in (("policy", args.policy), ("placer", args.placer), ("seed", args.seed))
        if v is not None
    }
    if overrides:
        spec = spec.with_overrides(**overrides)
    with _tracing(args.trace) as save_trace:
        try:
            res = run_fleet(spec, check=args.check)
        except InvariantViolation as exc:
            print(f"CHECK FAIL: {exc}", file=sys.stderr)
            return 1
        save_trace()
    if args.json:
        print(json.dumps(res.to_dict(), indent=2))
        if args.check:
            print("all fleet checks passed", file=sys.stderr)
        return 0
    s = res.summary()
    rows = []
    for r in res.rounds:
        per_node = {n: 0 for n in r["active"]}
        for node in r["assignment"].values():
            per_node[node] += 1
        rows.append([
            r["round"],
            len(r["active"]),
            " ".join(f"{n}:{per_node[n]}" for n in sorted(per_node)),
            r["score"],
            "-" if r["vs_oracle"] is None else f"{r['vs_oracle']:.3f}",
        ])
    print(render_table(
        ["round", "nodes", "workloads per node", "score", "vs oracle"],
        rows,
        title=(
            f"fleet={s['fleet']} placer={s['placer']} policy={s['policy']} "
            f"seed={s['seed']}"
        ),
        float_fmt="{:.3g}",
    ))
    if res.moves:
        print()
        print(render_table(
            ["round", "workload", "from", "to", "pages", "cycles", "reason"],
            [[m.round, m.key, m.src or "-", m.dst, m.pages, m.cycles, m.reason]
             for m in res.moves],
            title="cross-node moves",
        ))
    print(
        f"\nfleet CFI {s['fleet_cfi']:.3f}, per-node CFI spread "
        f"{s['node_cfi_spread']:.3f}, placement score {s['placement_score']:.3f}"
        + ("" if s["vs_oracle"] is None else f" ({s['vs_oracle']:.1%} of oracle)")
    )
    print(
        f"{s['placements']} placements, {s['migrations']} migrations, "
        f"{s['evacuations']} evacuations, evacuation p99 "
        f"{s['evacuation_p99_cycles']:.3g} cycles"
    )
    if args.check:
        print("all fleet checks passed", file=sys.stderr)
    return 0


def cmd_fleet_list(args: argparse.Namespace) -> int:
    from repro.fleet import FLEET_SCENARIOS

    rows = []
    for name in sorted(FLEET_SCENARIOS):
        spec = FLEET_SCENARIOS[name]()
        rows.append([
            name,
            len(spec.nodes),
            len(spec.workloads),
            spec.n_rounds,
            spec.epochs_per_round,
            len(spec.events),
            spec.placer,
            spec.description,
        ])
    print(render_table(
        ["name", "nodes", "workloads", "rounds", "epochs/round", "events", "placer",
         "description"],
        rows,
        title="canned fleet scenarios (repro fleet run NAME)",
    ))
    return 0


# -- scenario --------------------------------------------------------------------

def _load_scenario_spec(args: argparse.Namespace):
    from repro.scenario import ScenarioSpecError, get_scenario
    from repro.scenario.spec import ScenarioSpec

    if bool(args.name) == bool(args.spec):
        raise SystemExit("scenario run: give a canned NAME or --spec FILE (not both)")
    try:
        if args.spec:
            return ScenarioSpec.from_json(args.spec)
        return get_scenario(args.name)
    except OSError as exc:
        raise SystemExit(f"cannot read --spec file: {exc}")
    except (json.JSONDecodeError, ScenarioSpecError, KeyError, TypeError) as exc:
        raise SystemExit(f"invalid scenario: {exc}")


def _scenario_check(sres, spec) -> list[str]:
    """Acceptance assertions for ``scenario run --check``."""
    errors: list[str] = []
    want_departs = sum(1 for e in spec.events if e.action == "depart")
    want_restarts = sum(1 for e in spec.events if e.action == "restart")
    if len(sres.departures) != want_departs:
        errors.append(f"departures: scripted {want_departs}, observed {len(sres.departures)}")
    if len(sres.restarts) != want_restarts:
        errors.append(f"restarts: scripted {want_restarts}, observed {len(sres.restarts)}")
    bad_leaks = [c for c in sres.leak_checks if not c.get("consistent")]
    if len(sres.leak_checks) != want_departs or bad_leaks:
        errors.append(
            f"leak checks: {len(sres.leak_checks)}/{want_departs} ran, {len(bad_leaks)} failed"
        )
    faults_armed = any(
        e.action == "faults_set" and any(float(p) > 0 for p in e.params.values())
        for e in spec.events
    )
    if faults_armed and not sres.faults:
        errors.append("faults armed but none fired")
    n = sres.result.n_epochs
    for pid, ts in sres.result.workloads.items():
        if ts.epochs and (ts.epochs[0] < 0 or ts.epochs[-1] >= n):
            errors.append(f"pid {pid}: epochs outside [0, {n})")
    for dep in sres.departures:
        ts = sres.result.workloads.get(dep["pid"])
        if ts is not None and ts.last_epoch >= dep["epoch"]:
            errors.append(
                f"pid {dep['pid']} departed @{dep['epoch']} but recorded epoch {ts.last_epoch}"
            )
    return errors


def cmd_scenario_run(args: argparse.Namespace) -> int:
    from repro.fuzz.oracle import InvariantOracle
    from repro.harness.recipes import scenario_summary_json
    from repro.scenario import run_scenario

    spec = _load_scenario_spec(args)
    with _tracing(args.trace) as save_trace:
        # --check attaches the full per-epoch invariant battery; an
        # InvariantViolation propagates as a loud failure.
        oracle = InvariantOracle() if args.check else None
        sres = run_scenario(
            spec, seed=args.seed, policy=args.policy, epochs=args.epochs, oracle=oracle,
        )
        save_trace(sres.result)
    payload = scenario_summary_json(sres, window=args.window)
    fairness = payload["fairness_under_churn"]
    check_errors = _scenario_check(sres, spec) if args.check else []
    if args.json:
        if args.check:
            payload["check"] = {
                "passed": not check_errors,
                "errors": check_errors,
                "epochs_checked": oracle.epochs_checked,
            }
        print(json.dumps(payload, indent=2))
    else:
        s = sres.summary()
        rows = [
            [pid, w["name"], w["first_epoch"], w["last_epoch"], w["epochs"], w["mean_ops"]]
            for pid, w in s["workloads"].items()
        ]
        print(render_table(
            ["pid", "workload", "first", "last", "epochs", "mean ops/epoch"],
            rows,
            title=(
                f"scenario={s['scenario']} policy={s['policy']} seed={s['seed']} "
                f"epochs={s['n_epochs']}"
            ),
            float_fmt="{:.3g}",
        ))
        print(
            f"\nevents: {s['departures']} departures, {s['restarts']} restarts, "
            f"{s['phase_shifts']} phase shifts, {s['qos_changes']} QoS changes, "
            f"{s['capacity_events']} capacity events, {s['faults_fired']} faults fired"
        )
        print(
            f"fairness under churn (window {args.window}): "
            f"mean CFI {fairness['mean_cfi']:.3f}, min CFI {fairness['min_cfi']:.3f}"
        )
    if args.check:
        for err in check_errors:
            print(f"CHECK FAIL: {err}", file=sys.stderr)
        if not check_errors:
            print("all scenario checks passed", file=sys.stderr)
        return 1 if check_errors else 0
    return 0


def cmd_scenario_list(args: argparse.Namespace) -> int:
    from repro.scenario import SCENARIOS

    rows = []
    for name, builder in SCENARIOS.items():
        spec = builder()
        rows.append([
            name,
            spec.n_epochs,
            len(spec.workloads),
            len(spec.events),
            spec.description,
        ])
    print(render_table(
        ["name", "epochs", "workloads", "events", "description"],
        rows,
        title="canned scenarios (repro scenario run NAME)",
    ))
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    import time

    from repro.fuzz.promote import iter_crashers
    from repro.fuzz.runner import FLEET, SCENARIO, campaign, replay_crasher

    kind = FLEET if args.fleet else SCENARIO
    if args.replay is not None:
        results = [replay_crasher(kind, p) for p in iter_crashers(kind, args.replay)]
        green = all(r["status"] == "fixed" for r in results)
        if args.json:
            print(json.dumps({"replayed": len(results), "green": green,
                              "results": results}, indent=2))
        elif results:
            print(render_table(
                ["file", "originally caught", "now"],
                [[r["file"], r["original_check"], r["status"]] for r in results],
                title=f"promoted crashers in {args.replay}",
            ))
        else:
            print(f"no promoted crashers in {args.replay}")
        for r in results:
            if r["status"] == "failing":
                print(f"REGRESSION: {r['file']} still fails "
                      f"[{r['finding']['check']}] {r['finding']['message']}", file=sys.stderr)
        return 0 if green else 1

    t0 = time.monotonic()
    report = campaign(
        kind=kind,
        seed=args.seed,
        runs=args.runs,
        max_epochs=args.max_epochs,
        shrink=not args.no_shrink,
        promote_dir=args.promote,
        log=lambda msg: print(msg, file=sys.stderr),
    )
    elapsed = time.monotonic() - t0
    if args.json:
        # the report itself carries no wall-clock, so it is bit-identical
        # across replays of the same seed; timing goes to stderr below
        print(json.dumps(report, indent=2))
    else:
        c = report["counts"]
        print(render_table(
            ["runs", "ok", "violations", "replayed", "mismatches"],
            [[report["runs"], c["ok"], c["violations"], c["replay_checked"],
              c["replay_mismatches"]]],
            title=f"fuzz campaign seed={report['seed']}",
        ))
        for f in report["failures"]:
            line = f"case {f['index']}: [{f['finding']['check']}] {f['finding']['message']}"
            if "shrink" in f:
                line += (f"  (shrunk {f['original']['n_events']}ev/"
                         f"{f['original']['n_epochs']}ep -> "
                         f"{f['shrink']['n_events']}ev/{f['shrink']['n_epochs']}ep "
                         f"in {f['shrink']['steps']} steps)")
            print(line)
            if "promoted" in f:
                print(f"  promoted -> {f['promoted']}")
    print(f"fuzz: {report['runs']} runs in {elapsed:.1f}s, "
          f"{'clean' if report['clean'] else 'FAILURES FOUND'}", file=sys.stderr)
    return 0 if report["clean"] else 1


def cmd_costs(args: argparse.Namespace) -> int:
    model = MigrationCostModel()
    rows = []
    for c in args.cpus:
        b = model.single_page_breakdown(c)
        rows.append([c, b.prep, b.shootdown, b.copy, b.total, f"{b.prep_share:.1%}"])
    print(render_table(
        ["cpus", "prep", "shootdown", "copy", "total", "prep%"],
        rows,
        title="single-page migration cost (cycles) — Fig 2 calibration",
        float_fmt="{:.0f}",
    ))
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    try:
        events = read_trace(args.path)
    except OSError as exc:
        raise SystemExit(f"cannot read trace file: {exc}")
    except ValueError as exc:
        raise SystemExit(f"{args.path} is not a trace written by --trace: {exc}")
    if not events:
        print(f"no trace events in {args.path}", file=sys.stderr)
        return 1
    print(summarize(events))
    return 0


# -- sweep -----------------------------------------------------------------------

def cmd_sweep(args: argparse.Namespace) -> int:
    factory = functools.partial(
        sweep_cell, policy=args.policy, mix=args.mix, epochs=args.epochs, accesses=args.accesses,
    )
    sweep = Sweep(
        metrics={"mean_ops": sweep_mean_ops, "cfi": steady_cfi},
        progress=lambda msg: print(f"  {msg}", file=sys.stderr),
    )
    try:
        cells = sweep.run(factory, grid={"fast_gb": args.fast_gb}, seeds=args.seeds)
    except SweepCellError as exc:
        print(exc, file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({
            "policy": args.policy,
            "mix": args.mix,
            "epochs": args.epochs,
            "seeds": args.seeds,
            "cells": [
                {
                    "params": dict(c.params),
                    "metrics": {m: {"mean": v[0], "ci95": v[1]} for m, v in c.metrics.items()},
                }
                for c in cells
            ],
        }, indent=2))
        return 0
    rows = []
    for cell in cells:
        mo, mo_ci = cell.metrics["mean_ops"]
        fa, fa_ci = cell.metrics["cfi"]
        rows.append([cell.param("fast_gb"), mo, mo_ci, fa, fa_ci])
    print(render_table(
        ["fast_gb", "ops/epoch", "±ci95", "CFI", "±ci95"],
        rows,
        title=(
            f"fast-tier sweep, policy={args.policy} mix={args.mix} "
            f"epochs={args.epochs} seeds={args.seeds}"
        ),
        float_fmt="{:.3g}",
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one policy on a co-location mix")
    run.add_argument("--policy", default="vulcan", choices=sorted(POLICY_REGISTRY))
    run.add_argument("--mix", default="paper", choices=["paper", "dilemma"])
    run.add_argument("--epochs", type=int, default=60)
    run.add_argument("--accesses", type=int, default=5000, help="accesses per thread per epoch")
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--json", action="store_true", help="emit machine-readable JSON instead of tables")
    run.add_argument("--trace", metavar="PATH", default=None,
                     help="capture a Chrome trace_event file (summarize with `repro trace PATH`)")
    run.set_defaults(func=cmd_run)

    comp = sub.add_parser("compare", help="race several policies")
    comp.add_argument("--policies", nargs="+", default=["tpp", "memtis", "nomad", "vulcan"])
    comp.add_argument("--mix", default="paper", choices=["paper", "dilemma"])
    comp.add_argument("--epochs", type=int, default=60)
    comp.add_argument("--accesses", type=int, default=5000)
    comp.add_argument("--seed", type=int, default=1)
    comp.add_argument("--json", action="store_true", help="emit machine-readable JSON instead of tables")
    comp.add_argument("--trace", metavar="PATH", default=None,
                      help="capture one Chrome trace per policy (PATH gets a .<policy> infix)")
    comp.set_defaults(func=cmd_compare)

    sweep = sub.add_parser("sweep", help="fast-tier-size sensitivity sweep")
    sweep.add_argument("--policy", default="vulcan", choices=sorted(POLICY_REGISTRY))
    sweep.add_argument("--mix", default="dilemma", choices=["paper", "dilemma"])
    sweep.add_argument("--epochs", type=int, default=20)
    sweep.add_argument("--accesses", type=int, default=5000, help="accesses per thread per epoch")
    sweep.add_argument("--fast-gb", type=float, nargs="+", default=[8.0, 16.0, 32.0],
                       help="fast-tier capacities (GiB) forming the grid")
    sweep.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    sweep.add_argument("--json", action="store_true", help="emit machine-readable JSON instead of tables")
    sweep.set_defaults(func=cmd_sweep)

    scenario = sub.add_parser("scenario", help="scripted dynamic scenarios (churn, faults, capacity)")
    scsub = scenario.add_subparsers(dest="scenario_command", required=True)
    sc_run = scsub.add_parser("run", help="run a scenario and report fairness under churn")
    sc_run.add_argument("name", nargs="?", default=None,
                        help="canned scenario name (see `repro scenario list`)")
    sc_run.add_argument("--spec", metavar="FILE", default=None,
                        help="JSON ScenarioSpec file instead of a canned name")
    sc_run.add_argument("--policy", default=None, choices=sorted(POLICY_REGISTRY),
                        help="override the spec's policy")
    sc_run.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    sc_run.add_argument("--epochs", type=int, default=None,
                        help="override the spec's epoch count (must not cut off events)")
    sc_run.add_argument("--window", type=int, default=STEADY_WINDOW,
                        help="windowed-CFI window in epochs (default 10)")
    sc_run.add_argument("--json", action="store_true",
                        help="emit the full ScenarioResult as JSON")
    sc_run.add_argument("--trace", metavar="PATH", default=None,
                        help="capture a Chrome trace (departures, faults, capacity events)")
    sc_run.add_argument("--check", action="store_true",
                        help="assert scenario invariants (leak checks, event counts); exit 1 on failure")
    sc_run.set_defaults(func=cmd_scenario_run)
    sc_list = scsub.add_parser("list", help="list canned scenarios")
    sc_list.set_defaults(func=cmd_scenario_list)

    fleet = sub.add_parser(
        "fleet", help="multi-node fair tiering under a global CBFRP-aware placer")
    flsub = fleet.add_subparsers(dest="fleet_command", required=True)
    fl_run = flsub.add_parser("run", help="run a fleet scenario and report fleet-wide fairness")
    fl_run.add_argument("name", nargs="?", default=None,
                        help="canned fleet scenario name (see `repro fleet list`)")
    fl_run.add_argument("--spec", metavar="FILE", default=None,
                        help="JSON FleetSpec file instead of a canned name")
    fl_run.add_argument("--placer", default=None,
                        choices=["greedy-free-dram", "credit-balance", "oracle"],
                        help="override the spec's placement policy")
    fl_run.add_argument("--policy", default=None, choices=sorted(POLICY_REGISTRY),
                        help="override the per-node tiering policy")
    fl_run.add_argument("--seed", type=int, default=None, help="override the spec's seed")
    fl_run.add_argument("--json", action="store_true",
                        help="emit the full FleetResult as JSON")
    fl_run.add_argument("--trace", metavar="PATH", default=None,
                        help="capture fleet events (placements, migrations, evacuations) "
                             "as a Chrome trace")
    fl_run.add_argument("--check", action="store_true",
                        help="run per-node invariant oracles plus the cross-node "
                             "frame-conservation check; exit 1 on violation")
    fl_run.set_defaults(func=cmd_fleet_run)
    fl_list = flsub.add_parser("list", help="list canned fleet scenarios")
    fl_list.set_defaults(func=cmd_fleet_list)

    fuzz = sub.add_parser(
        "fuzz", help="property-based scenario fuzzing with an invariant oracle")
    fuzz.add_argument("--seed", type=int, default=7,
                      help="campaign master seed (same seed => identical run list and report)")
    fuzz.add_argument("--runs", type=int, default=25, help="number of generated cases")
    fuzz.add_argument("--fleet", action="store_true",
                      help="fuzz multi-node fleets (drain/join/flash-crowd "
                           "timelines) instead of single-node scenarios; with "
                           "--replay, replays fleet_crasher_*.json files")
    fuzz.add_argument("--max-epochs", type=int, default=24,
                      help="upper bound on generated timeline length")
    fuzz.add_argument("--promote", metavar="DIR", nargs="?",
                      const="tests/golden/fuzz_regressions", default=None,
                      help="write minimized crashers as regression files "
                           "(default dir: tests/golden/fuzz_regressions)")
    fuzz.add_argument("--no-shrink", action="store_true",
                      help="skip timeline minimization of failing cases")
    fuzz.add_argument("--replay", metavar="DIR", default=None,
                      help="replay promoted crashers from DIR instead of fuzzing; "
                           "exit 1 if any still fails")
    fuzz.add_argument("--json", action="store_true",
                      help="emit the full campaign report as JSON (deterministic)")
    fuzz.set_defaults(func=cmd_fuzz)

    costs = sub.add_parser("costs", help="print the calibrated cost model")
    costs.add_argument("--cpus", type=int, nargs="+", default=[2, 4, 8, 16, 32])
    costs.set_defaults(func=cmd_costs)

    trace = sub.add_parser("trace", help="summarize a captured trace file")
    trace.add_argument("path", help="Chrome trace_event file written by --trace")
    trace.set_defaults(func=cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
