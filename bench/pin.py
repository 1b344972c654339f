"""Pin each workload's simulated result on a set of seeds.

    python3 bench/pin.py             # re-pin the seeds pinned now
    python3 bench/pin.py 0 1 2 3     # pin exactly these seeds

Runs one untraced repetition per workload and seed, one at a time, and
writes the digests to ``baseline/digests.json``.  ``run.py`` counts a
repetition on a pinned seed whose digest differs as failed, so a
performance or simplicity change cannot move a simulated value.  Re-pin
only for a deliberate change to the simulated model, and say so in it.
"""

from __future__ import annotations

import json
import sys

from run import BENCH, PINS, _rep
from workloads import WORKLOADS


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or sorted({int(s) for pins in PINS.values() for s in pins})
    pins: dict[str, dict[str, str]] = {}
    for workload in WORKLOADS:
        for seed in seeds:
            rep = _rep(workload, seed, "plain", timeout=600)
            if rep is None:
                return 1
            pins.setdefault(workload, {})[str(seed)] = rep["digest"]
            print(f"{workload:<11} seed {seed:<3} {rep['digest']}", flush=True)
    (BENCH / "baseline" / "digests.json").write_text(json.dumps(pins, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
