"""The repository's benchmark of record.  See bench/README.md.

    python3 bench/run.py --workload colocation --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --seed 1 --out result.json     # every workload, both passes

Each repetition runs in a fresh subprocess (``rep.py``), one at a time.
``--trace 0`` repeats the untraced workload for ``--seconds`` seconds, at
least three times, each time followed by setup-only repetitions, and
reports the end-to-end metrics as medians.  ``--trace 1`` alternates
untraced and traced repetitions, at least one of each, and reports the
per-layer metrics.  With several workloads, repetitions go round-robin:
round k of every workload before round k+1 of any.  Every repetition's
simulated result must pass the invariant checks and hash to the same
digest, and on a seed pinned in ``baseline/digests.json`` to the pinned
one; a repetition that does not counts as failed.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every repetition succeeded.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from spans import COUNTERS, SPANS
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

DEFAULT_SECONDS = 20
#: rounds a pass makes at least: three untraced, or one untraced and one traced
MIN_ROUNDS = {0: 3, 1: 2}
#: setup-only repetitions after each untraced one in the end-to-end pass;
#: a short setup window is noisy, so setup_s is the median of many
SETUP_REPS = 2
#: a run starts no repetition after this many seconds per workload; a
#: one-workload run ends in 180
DEADLINE_S = 150.0
#: workload -> seed -> sha256 of the simulated result; see pin.py
PINS: dict[str, dict[str, str]] = json.loads((BENCH / "baseline" / "digests.json").read_text())

END_TO_END = {
    "epochs_per_sec": "epochs/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cfi": "index",
}

PER_LAYER: dict[str, str] = {}
for _span in SPANS:
    PER_LAYER[f"{_span}.self_ms"] = "ms"
    PER_LAYER[f"{_span}.calls"] = "calls/epoch"
    PER_LAYER[f"{_span}.setup_ms"] = "ms"
PER_LAYER.update({
    "harness.unattributed.self_ms": "ms",
    "harness.unattributed.setup_ms": "ms",
    "harness.coverage": "ratio",
    **{name: "pages/epoch" for name in COUNTERS},
    "mm.record.accesses": "accesses/epoch",
    "mm.migrate.ok_ratio": "ratio",
    "mm.fault.pages": "pages",
    "sim.min_fthr": "ratio",
    "sim.migration_cycles": "cycles/epoch",
    "sim.stall_cycles": "cycles/epoch",
    "fleet.vs_oracle": "ratio",
    "fleet.moves": "moves",
    "fleet.cross_node_pages": "pages",
    "harness.epoch_ms.p50": "ms",
    "harness.epoch_ms.tail": "ms",
    "harness.epoch_ms.tail_pct": "percentile",
    "harness.epoch_ms.samples": "count",
    "trace_overhead": "ratio",
})

#: percentiles the tail is chosen from, highest first
TAIL_PCTS = (99.9, 99.0, 95.0, 90.0, 75.0)


def _rep(workload: str, seed: int, mode: str, timeout: float) -> dict | None:
    """One repetition in a fresh subprocess; None if it failed."""
    cmd = [sys.executable, str(BENCH / "rep.py"), workload, str(seed), "--mode", mode]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env, cwd=ROOT)
    except subprocess.TimeoutExpired:
        print(f"{workload}: repetition timed out after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{workload}: repetition failed:\n{proc.stderr[-4000:]}", file=sys.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its value.

    With fewer than twenty samples no percentile qualifies; the median stands in.
    """
    pct = next((p for p in TAIL_PCTS if len(samples) * (100.0 - p) / 100.0 >= 10), 50.0)
    return pct, float(np.percentile(samples, pct))


def steady_seconds(reps: list[dict]) -> float:
    """Measured host time with each epoch's time the median over ``reps``.

    Every repetition runs the same epochs, so a burst of host noise that
    slows one repetition's epoch is outvoted by the others.
    """
    return sum(statistics.median(ms) for ms in zip(*(r["epoch_ms"] for r in reps))) / 1e3


def collect(workloads: list[str], seed: int, seconds: float, trace: int) -> dict[str, list[dict | None]]:
    """Every repetition of one pass, per workload, in the order they ran.

    Rounds go round-robin over ``workloads`` so that host drift lands on
    each alike, and repeat for ``seconds`` per workload.
    """
    start = time.monotonic()
    budget, deadline = seconds * len(workloads), DEADLINE_S * len(workloads)
    runs: dict[str, list[dict | None]] = {w: [] for w in workloads}
    for rounds in itertools.count():
        elapsed = time.monotonic() - start
        # Stop when another round of average length would overrun.
        if rounds >= MIN_ROUNDS[trace] and elapsed * (rounds + 1) / rounds > budget:
            break
        if trace == 1:
            modes = ("traced" if rounds % 2 else "plain",)
        else:
            modes = ("plain",) + ("setup",) * SETUP_REPS
        for workload in workloads:
            for mode in modes:
                left = deadline - (time.monotonic() - start)
                if left <= 0:
                    return runs
                runs[workload].append(_rep(workload, seed, mode, timeout=left + 20))
    return runs


def aggregate(workload: str, seed: int, trace: int, runs: list[dict | None]) -> dict:
    """One pass's result for one workload from its repetitions."""
    done = [r for r in runs if r is not None]
    full = [r for r in done if r["mode"] != "setup"]
    failed = len(runs) - len(done)
    # A repetition whose simulated result differs from the others', or
    # from the pinned one, is wrong.
    digest = Counter(r["digest"] for r in full).most_common(1)[0][0] if full else None
    pinned = PINS.get(workload, {}).get(str(seed))
    if pinned is not None and digest is not None and digest != pinned:
        print(f"{workload}: seed {seed} gives simulated digest {digest[:12]}, but baseline/digests.json "
              f"pins {pinned[:12]}. A performance or simplicity change must leave the simulated result "
              "as it is; a deliberate change to the model re-pins with pin.py.", file=sys.stderr)
        digest = pinned
    failed += sum(r["digest"] != digest for r in full)
    full = [r for r in full if r["digest"] == digest]
    result = {"correct": failed == 0 and bool(full), "attempted": len(runs), "failed": failed,
              "metrics": {}, "undefined": []}
    plain = [r for r in full if r["mode"] == "plain"]
    traced = [r for r in full if r["mode"] == "traced"]
    if trace == 0 and plain:
        setups = [r["setup_s"] for r in plain] + [r["setup_s"] for r in done if r["mode"] == "setup"]
        values = {
            "epochs_per_sec": plain[0]["epochs"] / steady_seconds(plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "cfi": plain[0]["sim"]["cfi"],
        }
        units = END_TO_END
    elif trace == 1 and plain and traced:
        values = {
            name: statistics.median(r["layers"][name] for r in traced)
            for name in traced[0]["layers"]
        }
        values.update({k: v for k, v in full[0]["sim"].items() if k in PER_LAYER})
        samples = [ms / n for r in plain for ms, n in zip(r["epoch_ms"], r["epoch_units"])]
        pct, value = tail(samples)
        values["harness.epoch_ms.p50"] = statistics.median(samples)
        values["harness.epoch_ms.tail"] = value
        values["harness.epoch_ms.tail_pct"] = pct
        values["harness.epoch_ms.samples"] = len(samples)
        values["trace_overhead"] = steady_seconds(traced) / steady_seconds(plain) - 1.0
        units = PER_LAYER
    else:
        result["correct"] = False
        return result
    # The result line must carry every declared metric, so a metric the
    # workload leaves undefined (fleet.* off the fleet, say) reads 0 there
    # and is listed under "undefined".
    result["metrics"] = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in units.items()}
    result["undefined"] = [name for name in units if name not in values]
    result["reps"] = [r and {k: v for k, v in r.items() if k not in ("epoch_ms", "epoch_units")} for r in runs]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1, help="workload seed; 2 is the held-out seed")
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS, help="measuring time per pass")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="one pass only: 0 end-to-end, 1 per-layer")
    parser.add_argument("--out", type=Path, help="also write every result, with its repetitions, here")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: no simulator sources under {SRC}", file=sys.stderr)
        return 2

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    traces = (0, 1) if args.trace is None else (args.trace,)
    results = {}
    for trace in traces:
        runs = collect(workloads, args.seed, args.seconds, trace)
        for workload in workloads:
            result = aggregate(workload, args.seed, trace, runs[workload])
            results[f"{workload}/trace{trace}"] = result
            for name, m in result["metrics"].items():
                note = "  (undefined here)" if name in result["undefined"] else ""
                print(f"{workload:<11} {name:<36} {m['value']:>16.6g} {m['unit']}{note}")
            print(f"{workload:<11} trace {trace} attempted {result['attempted']} failed {result['failed']}")

    if args.out is not None:
        args.out.write_text(json.dumps({
            "seed": args.seed,
            "seconds": args.seconds,
            "host": {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()},
            "results": results,
        }, indent=1) + "\n")
    if len(results) == 1:
        (summary,) = results.values()
        metrics = summary["metrics"]
    else:
        metrics = {f"{key}/{name}": m for key, r in results.items() for name, m in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
