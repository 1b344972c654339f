"""One repetition of one workload, in a process of its own.

``run.py`` starts this script once per repetition, one at a time, with
``src`` on ``PYTHONPATH``.  It prints one JSON object on stdout and exits
non-zero if the run raises or fails a correctness check.

    python bench/rep.py <workload> <seed> [--mode plain|traced|setup]

``plain`` runs the workload untraced, ``traced`` with the layer spans of
``spans.py``, and ``setup`` only up to the end of its setup window.
"""

from __future__ import annotations

import argparse
import json
import sys

from spans import Tracer
from workloads import WORKLOADS, SetupDone

MODES = ("plain", "traced", "setup")


def measure(workload: str, seed: int, mode: str = "plain", **sizes) -> dict:
    """Run one repetition and return what ``run.py`` aggregates."""
    if mode == "setup":
        try:
            WORKLOADS[workload](seed, setup_only=True, **sizes)
        except SetupDone as done:
            return {"mode": mode, "setup_s": done.setup_ns / 1e9}
        raise RuntimeError(f"{workload}: the setup window never closed")

    tracer = Tracer() if mode == "traced" else None
    rep = WORKLOADS[workload](seed, tracer, **sizes)
    for where in tracer.missing if tracer is not None else ():
        print(f"rep: span target {where} not found; its span reads 0", file=sys.stderr)

    from repro import kernels
    from repro.harness.bench import peak_rss_kb

    steady_s = rep.steady_ns / 1e9
    out = {
        "mode": mode,
        "kernels": kernels.BACKEND,
        "setup_s": rep.setup_ns / 1e9,
        "steady_s": steady_s,
        "epochs": rep.epochs,
        "epochs_per_sec": rep.epochs / steady_s,
        "peak_rss_mb": peak_rss_kb() / 1024,
        "epoch_ms": rep.epoch_ms,
        "epoch_units": rep.epoch_units,
        "digest": rep.digest,
        "sim": rep.sim,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(epochs=rep.epochs, measured_ns=rep.steady_ns, setup_ns=rep.setup_ns)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--mode", choices=MODES, default="plain")
    args = parser.parse_args()
    print(json.dumps(measure(args.workload, args.seed, args.mode)))


if __name__ == "__main__":
    main()
