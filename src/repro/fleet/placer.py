"""Pluggable global placement policies (DESIGN.md §7).

A placer sees the fleet the way a real cluster scheduler would: static
demand (each workload's RSS in pages), static supply (each active
node's fast-tier capacity), the current assignment, and the previous
round's telemetry (per-node CBFRP credit balances, FTHR, free DRAM
exported by the node cells).  It returns a *complete* assignment for
the next round; the fleet loop diffs it against the current one to
derive live migrations and charge their modeled cross-node cost.

The contract every placer must honour:

* **total** — every key in ``demands`` is assigned to a node in
  ``capacities`` (active nodes only; a drained node never appears);
* **deterministic** — identical inputs produce the identical dict, so
  all internal ordering is by explicit sort keys, never dict order;
* **read-only** — placers never mutate their inputs and draw no RNG.
"""

from __future__ import annotations

from repro.fleet.metrics import oracle_assignment, placement_score
from repro.fleet.node import NodeTelemetry, node_workload_slots


class Placer:
    """Base interface; subclasses implement :meth:`assign`."""

    name = "base"

    def assign(
        self,
        *,
        demands: dict[str, int],
        capacities: dict[str, int],
        current: dict[str, str | None],
        telemetry: dict[str, NodeTelemetry],
    ) -> dict[str, str]:
        raise NotImplementedError

    # -- shared helpers ---------------------------------------------------

    @staticmethod
    def _loads(assignment: dict[str, str], demands: dict[str, int]) -> dict[str, int]:
        load: dict[str, int] = {}
        for key, node in assignment.items():
            load[node] = load.get(node, 0) + demands[key]
        return load

    @staticmethod
    def _counts(assignment: dict[str, str]) -> dict[str, int]:
        counts: dict[str, int] = {}
        for node in assignment.values():
            counts[node] = counts.get(node, 0) + 1
        return counts

    @staticmethod
    def _fill(
        assignment: dict[str, str],
        pending: list[str],
        demands: dict[str, int],
        capacities: dict[str, int],
        preference,
    ) -> dict[str, str]:
        """Place ``pending`` one by one, largest demand first, onto the
        node ``preference`` ranks highest given the running loads.

        Nodes already hosting ``node_workload_slots()`` workloads are
        out of the running regardless of preference: the core-block cap
        is a hard bin constraint, unlike fast-tier load which merely
        degrades.  A valid spec guarantees total slots ≥ total
        workloads at every placement point, so greedy filling can never
        strand a workload.
        """
        out = dict(assignment)
        load = Placer._loads(out, demands)
        counts = Placer._counts(out)
        slots = node_workload_slots()
        for key in sorted(pending, key=lambda k: (-demands[k], k)):
            open_nodes = [n for n in sorted(capacities) if counts.get(n, 0) < slots]
            if not open_nodes:
                raise RuntimeError(
                    f"no node has a free workload slot ({slots}/node) for {key!r}"
                )
            node = min(
                open_nodes,
                key=lambda n: (-preference(n, load.get(n, 0)), n),
            )
            out[key] = node
            load[node] = load.get(node, 0) + demands[key]
            counts[node] = counts.get(node, 0) + 1
        return out


class GreedyFreeDram(Placer):
    """Most-free-DRAM-first bin filling; never migrates proactively.

    The baseline a real cluster starts from: place each new (or
    evacuated) workload on the node with the most free fast memory.
    Already-placed workloads stay put — only drains move them.
    """

    name = "greedy-free-dram"

    def assign(self, *, demands, capacities, current, telemetry):
        placed = {k: n for k, n in current.items() if n is not None}
        pending = [k for k in demands if current.get(k) is None]
        return self._fill(
            placed, pending, demands, capacities,
            preference=lambda n, load: capacities[n] - load,
        )


class CreditBalance(Placer):
    """CBFRP-aware placement: free DRAM discounted by credit pressure.

    The CBFRP ledger is zero-sum inside a node, so a node's *aggregate*
    balance carries no signal — what does is ``credit_pressure``, the
    units its tenants are borrowing: heavy borrowing means the node's
    fast tier is oversubscribed relative to per-tenant demand.
    Placement prefers nodes with free DRAM and low pressure; after
    filling, up to ``max_moves`` rebalance migrations per round are
    considered, each moving a workload off the most-pressured
    overloaded node — and only accepted if it strictly improves the
    analytic placement score, the hysteresis that keeps the modeled
    cross-node migration cost from being paid for nothing.
    """

    name = "credit-balance"

    #: weight of a node's borrowed credit units vs its free pages
    credit_weight = 0.5
    #: rebalance migrations allowed per sync round
    max_moves = 1

    def assign(self, *, demands, capacities, current, telemetry):
        def pressure(node: str) -> float:
            t = telemetry.get(node)
            return float(t.credit_pressure) if t is not None else 0.0

        placed = {k: n for k, n in current.items() if n is not None}
        pending = [k for k in demands if current.get(k) is None]
        out = self._fill(
            placed, pending, demands, capacities,
            preference=lambda n, load: (capacities[n] - load) - self.credit_weight * pressure(n),
        )

        moves = 0
        while moves < self.max_moves:
            move = self._best_rebalance(out, demands, capacities, pressure)
            if move is None:
                break
            key, dest = move
            out[key] = dest
            moves += 1
        return out

    def _best_rebalance(self, assignment, demands, capacities, pressure):
        """The single (workload, dest) move that most improves the
        placement score, taken from the most-pressured overloaded node
        — or None when nothing qualifies."""
        load = self._loads(assignment, demands)
        overloaded = [n for n in sorted(capacities) if load.get(n, 0) > capacities[n]]
        if not overloaded:
            return None
        source = min(overloaded, key=lambda n: (-pressure(n), -load.get(n, 0), n))
        residents = [k for k, n in assignment.items() if n == source]
        if len(residents) <= 1:
            return None  # moving the only tenant just relocates the pressure
        before = placement_score(assignment, demands, capacities)
        counts = self._counts(assignment)
        slots = node_workload_slots()
        best = None
        best_score = before + 1e-9
        for key in sorted(residents, key=lambda k: (demands[k], k)):
            for dest in sorted(capacities):
                if dest == source or counts.get(dest, 0) >= slots:
                    continue
                candidate = {**assignment, key: dest}
                score = placement_score(candidate, demands, capacities)
                if score > best_score:
                    best, best_score = (key, dest), score
        return best


class OraclePlacer(Placer):
    """Brute-force best placement each round (small fleets only).

    Exhaustively maximizes the analytic placement score; raises
    ``ValueError`` past ``ORACLE_MAX_ASSIGNMENTS`` candidates.  Used to
    score the heuristics, and runnable as a placer for tiny fleets.
    The search is a pure function of demands and capacities, so each
    distinct input is searched once per placer and served as a copy.
    """

    name = "oracle"

    def __init__(self) -> None:
        #: sorted (demands, capacities) items → best assignment
        self._best: dict[tuple, dict[str, str]] = {}

    def assign(self, *, demands, capacities, current, telemetry):
        key = (tuple(sorted(demands.items())), tuple(sorted(capacities.items())))
        if key not in self._best:
            self._best[key], _score = oracle_assignment(
                demands, capacities, max_per_node=node_workload_slots(),
            )
        return dict(self._best[key])


PLACER_REGISTRY: dict[str, type[Placer]] = {
    cls.name: cls for cls in (GreedyFreeDram, CreditBalance, OraclePlacer)
}


def make_placer(name: str) -> Placer:
    try:
        return PLACER_REGISTRY[name]()
    except KeyError:
        raise KeyError(
            f"unknown placer {name!r} (have: {', '.join(sorted(PLACER_REGISTRY))})"
        ) from None
