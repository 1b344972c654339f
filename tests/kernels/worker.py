"""Subprocess worker for the backend differential tests.

Runs under whatever backend ``REPRO_KERNELS`` selects and prints one
JSON line: a sha256 digest over the metrics of the frozen golden
configs plus (optionally) a fuzz-campaign report.  Two backends are
bit-identical iff their digests match — the parent test process never
has to ship arrays across the pipe.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pathlib


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--goldens", type=int, default=-1, help="-1 = all golden configs")
    ap.add_argument("--fuzz-runs", type=int, default=0)
    args = ap.parse_args()

    from repro import kernels
    from repro.harness.recipes import standard_run

    h = hashlib.sha256()
    golden_dir = pathlib.Path(__file__).resolve().parents[1] / "golden"
    files = sorted(golden_dir.glob("e2e_*.json"))
    if args.goldens >= 0:
        files = files[: args.goldens]
    for path in files:
        cfg = json.loads(path.read_text())["config"]
        res = standard_run(
            cfg["policy"], cfg["mix"], cfg["epochs"], cfg["accesses_per_thread"], cfg["seed"]
        )
        h.update(json.dumps(res.to_dict(), sort_keys=True).encode())

    if args.fuzz_runs > 0:
        from repro.fuzz.runner import campaign

        report = campaign(seed=1234, runs=args.fuzz_runs, shrink=False, parity_check=False)
        h.update(json.dumps(report, sort_keys=True).encode())

    print(
        json.dumps(
            {
                "backend": kernels.BACKEND,
                "n_goldens": len(files),
                "fuzz_runs": args.fuzz_runs,
                "digest": h.hexdigest(),
            }
        )
    )


if __name__ == "__main__":
    main()
