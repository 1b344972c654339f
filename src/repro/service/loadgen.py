"""Synthetic load generator + ``repro bench``.

Hammers a live service with a mixed run/sweep/scenario workload from
many concurrent clients, each an open-loop submit→poll→result cycle,
and reports the honest numbers: jobs/sec end to end, p50/p99
submit→result latency, and how much of the fleet's work was absorbed
by dedup and the result cache.

A deliberate fraction of submissions are *duplicates* of specs other
clients already posted — the realistic multi-tenant case (everyone
sweeps the default grid) and the path that exercises the dedup
contract under concurrency.

``run_service_bench`` boots a private service on an ephemeral port,
runs the generator, and returns the ``BENCH_service.json`` payload: a
pinned ``service`` block saying what ran plus a ``timing`` block saying
how fast.  ``check_regression`` compares such a payload against a
committed baseline (``BENCH_service_baseline.json``).  The simulator
itself is timed by ``bench/run.py``, not here.
"""

from __future__ import annotations

import json
import platform
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.service.client import ServiceClient, ServiceError

#: pinned load scenario: full variant sustains >= 50 concurrent clients
CLIENTS = 50
JOBS_PER_CLIENT = 2
QUICK_CLIENTS = 8
QUICK_JOBS_PER_CLIENT = 2
#: fraction of submissions that duplicate an earlier spec
DUPLICATE_FRACTION = 0.5
#: kind weights for the mixed workload (run-heavy, like a real fleet)
KIND_WEIGHTS = (("run", 0.6), ("sweep", 0.2), ("scenario", 0.2))

#: deliberately tiny payloads — the bench measures the control plane,
#: not the simulator (bench/run.py times the simulator)
RUN_PAYLOAD = {"epochs": 3, "accesses": 300}
SWEEP_PAYLOAD = {"epochs": 2, "accesses": 200, "fast_gb": [8.0], "seeds": [1]}
SCENARIO_PAYLOAD = {"name": "churn"}


def _payload_for(kind: str, variant: int) -> dict:
    """A unique spec of the given kind (seed-varied), JSON-plain."""
    if kind == "run":
        return {**RUN_PAYLOAD, "seed": variant}
    if kind == "sweep":
        return {**SWEEP_PAYLOAD, "seeds": [variant]}
    return {**SCENARIO_PAYLOAD, "seed": variant}


@dataclass
class LoadResult:
    """Everything one load run measured."""

    clients: int
    jobs_per_client: int
    wall_seconds: float = 0.0
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    deduped: int = 0
    cache_hits: int = 0
    latencies_ms: list[float] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    by_kind: dict = field(default_factory=dict)

    @property
    def jobs_per_sec(self) -> float:
        return self.completed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def latency_ms(self, pct: float) -> float:
        if not self.latencies_ms:
            return 0.0
        return float(np.percentile(np.asarray(self.latencies_ms), pct))

    def to_dict(self) -> dict:
        return {
            "clients": self.clients,
            "jobs_per_client": self.jobs_per_client,
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "deduped": self.deduped,
            "cache_hits": self.cache_hits,
            "by_kind": dict(self.by_kind),
            "errors": self.errors[:10],
        }


def run_load(
    base_url: str,
    *,
    clients: int = CLIENTS,
    jobs_per_client: int = JOBS_PER_CLIENT,
    duplicate_fraction: float = DUPLICATE_FRACTION,
    seed: int = 1,
    timeout: float = 600.0,
) -> LoadResult:
    """Drive the mixed workload against a live service."""
    result = LoadResult(clients=clients, jobs_per_client=jobs_per_client)
    lock = threading.Lock()
    #: specs already submitted by anyone, for duplicate draws
    submitted_pool: list[tuple[str, dict]] = []

    def client_body(cid: int) -> None:
        rng = np.random.default_rng(seed * 10_000 + cid)
        client = ServiceClient(base_url)
        kinds, weights = zip(*KIND_WEIGHTS)
        for j in range(jobs_per_client):
            dup = None
            with lock:
                if submitted_pool and rng.random() < duplicate_fraction:
                    dup = submitted_pool[int(rng.integers(len(submitted_pool)))]
            if dup is not None:
                kind, payload = dup
            else:
                kind = str(rng.choice(kinds, p=np.asarray(weights) / sum(weights)))
                payload = _payload_for(kind, int(rng.integers(1, 1_000_000)))
                with lock:
                    submitted_pool.append((kind, payload))
            t0 = time.perf_counter()
            try:
                sub = client.submit(kind, payload)
                final = client.wait(sub["job"]["job_id"], timeout=timeout)
                latency_ms = (time.perf_counter() - t0) * 1e3
            except ServiceError as exc:
                with lock:
                    result.submitted += 1
                    result.failed += 1
                    result.errors.append(str(exc))
                continue
            with lock:
                result.submitted += 1
                result.by_kind[kind] = result.by_kind.get(kind, 0) + 1
                if sub["deduped"]:
                    result.deduped += 1
                if final["state"] == "done":
                    result.completed += 1
                    result.latencies_ms.append(latency_ms)
                    if final.get("cached"):
                        result.cache_hits += 1
                else:
                    result.failed += 1
                    result.errors.append(f"job {final['job_id']}: {final['state']}")

    threads = [
        threading.Thread(target=client_body, args=(cid,), name=f"loadgen-{cid}")
        for cid in range(clients)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    result.wall_seconds = time.perf_counter() - t0
    return result


def run_service_bench(
    *,
    quick: bool = False,
    clients: int | None = None,
    jobs_per_client: int | None = None,
    workers: int = 4,
    data_dir: str | None = None,
) -> dict:
    """Boot a private service, run the pinned load, emit the bench payload."""
    from repro.service.server import TieringService

    n_clients = clients if clients is not None else (QUICK_CLIENTS if quick else CLIENTS)
    n_jobs = jobs_per_client if jobs_per_client is not None else (
        QUICK_JOBS_PER_CLIENT if quick else JOBS_PER_CLIENT)
    tmp = None
    if data_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-service-bench-")
        data_dir = tmp.name
    try:
        with TieringService(data_dir, workers=workers) as service:
            load = run_load(
                service.url, clients=n_clients, jobs_per_client=n_jobs,
            )
    finally:
        if tmp is not None:
            tmp.cleanup()
    return {
        # the pinned block check_regression matches on: it must describe
        # *what* ran, never how fast
        "service": {
            "clients": n_clients,
            "jobs_per_client": n_jobs,
            "workers": workers,
            "duplicate_fraction": DUPLICATE_FRACTION,
            "mix": dict(KIND_WEIGHTS),
            "quick": quick,
        },
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "timing": {
            "wall_seconds": round(load.wall_seconds, 3),
            "jobs_per_sec": round(load.jobs_per_sec, 3),
            "submit_to_result_p50_ms": round(load.latency_ms(50), 1),
            "submit_to_result_p99_ms": round(load.latency_ms(99), 1),
        },
        "jobs": load.to_dict(),
    }


def check_regression(payload: dict, baseline_path: str, *, tolerance: float = 0.30) -> str | None:
    """Compare a service bench payload against a committed baseline file.

    The pinned ``service`` block must match exactly (a quick baseline
    only compares against a quick run, a 50-client baseline against a
    50-client run), and ``jobs_per_sec`` may not drop more than
    ``tolerance`` below the baseline.

    Returns an error message on regression or mismatch, ``None`` when
    within bounds.  A missing or malformed baseline is reported as an
    error too — a CI job silently skipping its own check is worse than
    a red run.
    """
    try:
        with open(baseline_path) as f:
            baseline = json.load(f)
        ref = float(baseline["timing"]["jobs_per_sec"])
        ref_service = baseline["service"]
    except (OSError, KeyError, TypeError, ValueError) as exc:
        return f"cannot read baseline {baseline_path}: {exc}"
    if ref_service != payload["service"]:
        return (
            f"baseline service mismatch: {ref_service} vs {payload['service']} "
            "(quick baselines only compare against --quick runs)"
        )
    got = float(payload["timing"]["jobs_per_sec"])
    floor = ref * (1.0 - tolerance)
    if got < floor:
        return (
            f"jobs_per_sec regressed: {got:.3f} < {floor:.3f} "
            f"(baseline {ref:.3f} - {tolerance:.0%})"
        )
    print(
        f"jobs_per_sec {got:.3f} vs baseline {ref:.3f} (floor {floor:.3f}): ok",
        file=sys.stderr,
    )
    return None
