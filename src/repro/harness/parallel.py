"""Multiprocessing execution: fan sweep cells × seeds, or fuzz cases,
out to workers.

Design constraints (see DESIGN.md §"Parallel sweeps"):

* **Determinism** — the full task list (cell params × seed, plus the
  derived per-cell seed when enabled) is built up front, before any
  worker starts, so what each factory invocation computes can never
  depend on worker count or completion order.  Results are keyed by
  task index and re-assembled in task order, making serial and parallel
  sweeps aggregate bit-identical numbers.
* **Isolation** — one forked process per cell.  A cell that raises,
  exceeds its timeout, or kills its interpreter outright records a
  structured :class:`CellFailure` instead of taking down the sweep.
* **Cheap transport** — children ship the :meth:`ExperimentResult.to_dict`
  plain-data form (or a fuzz case's plain-dict record) over a pipe;
  metric extraction stays in the parent so metric callables never need
  to survive a process boundary.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import multiprocessing.connection
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable

from repro.harness.experiment import ExperimentResult

#: Seconds between scheduler polls while workers are busy.
_POLL_SECONDS = 0.02


class SweepCellError(RuntimeError):
    """A sweep cell failed; carries the cell's params and seed.

    Raised from serial (``workers=1``) sweeps; parallel sweeps record
    the equivalent :class:`CellFailure` structurally instead.
    """

    def __init__(self, message: str, *, params: tuple[tuple[str, Any], ...], seed: int) -> None:
        super().__init__(f"sweep cell {dict(params)} seed={seed}: {message}")
        self.params = params
        self.seed = seed


@dataclass(frozen=True)
class CellFailure:
    """Structured record of one failed (cell, seed) evaluation."""

    params: tuple[tuple[str, Any], ...]
    seed: int
    kind: str  # "exception" | "timeout" | "crash"
    error: str  # exception type name, or the kind for non-exceptions
    message: str
    traceback: str = ""


@dataclass(frozen=True)
class CellTask:
    """One factory invocation: a grid cell at one seed."""

    index: int  # position in the deterministic task list
    cell_index: int  # which grid cell this seed belongs to
    params: tuple[tuple[str, Any], ...]
    seed: int  # the user-visible seed
    cell_seed: int  # what the factory actually receives


@dataclass
class CellOutcome:
    """What one task produced: a result payload or a failure."""

    task: CellTask
    result: dict | None = None  # ExperimentResult.to_dict() form
    failure: CellFailure | None = None
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.failure is None


def derive_cell_seed(params: dict[str, Any] | tuple[tuple[str, Any], ...], seed: int) -> int:
    """Stable per-cell seed: a hash of (params, seed), worker-order free.

    Decorrelates the RNG streams of neighbouring grid cells that would
    otherwise all run the same handful of raw seeds.  Both the serial
    and the parallel path call this same function (when enabled), so
    derived-seed sweeps stay differentially identical too.
    """
    items = sorted(params.items()) if isinstance(params, dict) else sorted(params)
    blob = repr((items, int(seed))).encode()
    digest = hashlib.sha256(blob).digest()
    return int.from_bytes(digest[:8], "big") % (2**63)


def build_tasks(
    grid_names: list[str],
    combos: list[tuple[Any, ...]],
    seeds: list[int],
    *,
    derived_seeds: bool = False,
) -> list[CellTask]:
    """The deterministic task list: cells in grid order × seeds in order."""
    tasks: list[CellTask] = []
    for cell_index, combo in enumerate(combos):
        params = dict(zip(grid_names, combo))
        key = tuple(sorted(params.items()))
        for seed in seeds:
            cell_seed = derive_cell_seed(params, seed) if derived_seeds else seed
            tasks.append(CellTask(len(tasks), cell_index, key, seed, cell_seed))
    return tasks


def _serialize(result: Any) -> dict:
    if isinstance(result, ExperimentResult):
        return {"type": "experiment_result", "data": result.to_dict()}
    if isinstance(result, dict):
        # Plain-data payloads (fuzz case records) ride the same pipe;
        # sweeps still require experiment results at deserialize.
        return {"type": "json", "data": result}
    raise TypeError(
        f"parallel sweeps need factories returning ExperimentResult or a "
        f"plain dict (got {type(result).__name__}); run with workers=1 or "
        f"add to_dict support"
    )


def deserialize_result(payload: dict) -> ExperimentResult:
    if payload.get("type") != "experiment_result":
        raise ValueError(f"unknown result payload type {payload.get('type')!r}")
    return ExperimentResult.from_dict(payload["data"])


def _child_main(conn, factory: Callable[..., Any], task: CellTask) -> None:
    """Worker body: run the factory, ship the serialized result back."""
    try:
        result = factory(**dict(task.params), seed=task.cell_seed)
        conn.send({"ok": True, "result": _serialize(result)})
    except BaseException as exc:  # noqa: BLE001 — everything becomes a record
        conn.send({
            "ok": False,
            "error": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
        })
    finally:
        conn.close()


@dataclass
class _Running:
    task: CellTask
    process: multiprocessing.Process
    conn: multiprocessing.connection.Connection
    started: float


def _context() -> multiprocessing.context.BaseContext:
    """Prefer fork (closures and lambdas work); fall back to default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def execute_tasks(
    tasks: list[CellTask],
    factory: Callable[..., Any],
    *,
    workers: int,
    timeout: float | None = None,
    on_done: Callable[[CellOutcome], None] | None = None,
) -> dict[int, CellOutcome]:
    """Run ``tasks`` on a bounded pool of single-shot worker processes.

    Returns outcomes keyed by task index.  Worker completion order never
    leaks into the outcome contents: each child's result depends only on
    its task, and the caller re-assembles by index.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    ctx = _context()
    outcomes: dict[int, CellOutcome] = {}
    pending = list(tasks)
    pending.reverse()  # pop() from the front of the original order
    running: dict[int, _Running] = {}

    def finish(outcome: CellOutcome) -> None:
        outcomes[outcome.task.index] = outcome
        if on_done is not None:
            on_done(outcome)

    while pending or running:
        while pending and len(running) < workers:
            task = pending.pop()
            parent_conn, child_conn = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_child_main, args=(child_conn, factory, task), daemon=True)
            proc.start()
            child_conn.close()
            running[task.index] = _Running(task, proc, parent_conn, time.monotonic())

        conn_to_index = {r.conn: idx for idx, r in running.items()}
        ready = multiprocessing.connection.wait(list(conn_to_index), timeout=_POLL_SECONDS)
        for conn in ready:
            idx = conn_to_index[conn]
            run = running.pop(idx)
            try:
                message = conn.recv()
            except (EOFError, OSError):
                # The child died before sending anything (segfault,
                # os._exit, OOM kill): record a crash, keep sweeping.
                run.process.join()
                finish(CellOutcome(
                    task=run.task,
                    failure=CellFailure(
                        params=run.task.params,
                        seed=run.task.seed,
                        kind="crash",
                        error="WorkerCrash",
                        message=f"worker exited with code {run.process.exitcode} before reporting a result",
                    ),
                ))
                continue
            finally:
                conn.close()
            run.process.join()
            if message["ok"]:
                finish(CellOutcome(task=run.task, result=message["result"]))
            else:
                finish(CellOutcome(
                    task=run.task,
                    failure=CellFailure(
                        params=run.task.params,
                        seed=run.task.seed,
                        kind="exception",
                        error=message["error"],
                        message=message["message"],
                        traceback=message["traceback"],
                    ),
                ))

        if timeout is not None:
            now = time.monotonic()
            for idx, run in list(running.items()):
                if now - run.started <= timeout:
                    continue
                running.pop(idx)
                run.process.terminate()
                run.process.join()
                run.conn.close()
                finish(CellOutcome(
                    task=run.task,
                    failure=CellFailure(
                        params=run.task.params,
                        seed=run.task.seed,
                        kind="timeout",
                        error="CellTimeout",
                        message=f"cell exceeded {timeout:g}s timeout and was terminated",
                    ),
                ))
    return outcomes
