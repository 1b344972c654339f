"""Fleet-wide metrics: CFI, placement quality vs. oracle, evacuation cost.

The placement-quality score is deliberately *analytic* — a pure
function of (assignment, per-workload fast-page demand, per-node fast
capacity), not of a simulation run:

    e_w   = min(1, capacity(node(w)) / Σ demand on node(w))   expected
            fast share each co-tenant of the node can get under a
            proportional split,
    score = Jain(e_w over workloads) × (Σ_n min(cap_n, demand_n)
            / Σ_n demand_n)

i.e. fairness of expected fast shares, discounted by how much total
demand the placement actually lands in fast memory.  Because the same
function scores every placer *and* defines the brute-force oracle's
objective, "oracle ≥ every heuristic" holds by construction — which is
what makes placement-quality-vs-oracle a meaningful [0, 1] ratio rather
than a race between two different notions of good.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from repro.metrics.fairness import jain_index

#: refuse brute-force searches above this many candidate assignments
ORACLE_MAX_ASSIGNMENTS = 250_000


def placement_score(
    assignment: dict[str, str],
    demands: dict[str, int],
    capacities: dict[str, int],
) -> float:
    """Score one full assignment (workload key → node id) in [0, 1]."""
    if not assignment:
        return 1.0
    load: dict[str, int] = {}
    for key, node in assignment.items():
        if node not in capacities:
            raise ValueError(f"workload {key!r} assigned to unknown node {node!r}")
        load[node] = load.get(node, 0) + demands[key]
    shares = [
        min(1.0, capacities[assignment[key]] / load[assignment[key]])
        for key in sorted(assignment)
    ]
    total_demand = sum(demands[k] for k in assignment)
    served = sum(min(capacities[n], d) for n, d in load.items())
    if total_demand == 0:
        return 1.0
    return jain_index(shares) * (served / total_demand)


def oracle_assignment(
    demands: dict[str, int],
    capacities: dict[str, int],
    *,
    max_per_node: int | None = None,
) -> tuple[dict[str, str], float]:
    """Exhaustive best placement under :func:`placement_score`.

    Deterministic tie-break: candidates are enumerated in (sorted
    workload keys) × (sorted node ids) lexicographic order and the
    first maximum wins, so the oracle never depends on dict order.
    ``max_per_node`` restricts the search to assignments hosting at
    most that many workloads on any node (the core-block constraint
    real placers face) so the oracle ratio compares feasible against
    feasible.  Raises ``ValueError`` when the search space exceeds
    ``ORACLE_MAX_ASSIGNMENTS`` — the oracle is a small-N scoring tool,
    not a production placer — or when no assignment fits under
    ``max_per_node``.
    """
    keys = sorted(demands)
    nodes = sorted(capacities)
    if not keys:
        return {}, 1.0
    n_candidates = len(nodes) ** len(keys)
    if n_candidates > ORACLE_MAX_ASSIGNMENTS:
        raise ValueError(
            f"oracle search space {len(nodes)}^{len(keys)} = {n_candidates} exceeds "
            f"{ORACLE_MAX_ASSIGNMENTS}; use a heuristic placer at this scale"
        )
    best: dict[str, str] | None = None
    best_score = -1.0
    for combo in product(nodes, repeat=len(keys)):
        if max_per_node is not None:
            if max(combo.count(n) for n in set(combo)) > max_per_node:
                continue
        candidate = dict(zip(keys, combo))
        score = placement_score(candidate, demands, capacities)
        if score > best_score:
            best, best_score = candidate, score
    if best is None:
        raise ValueError(
            f"no assignment of {len(keys)} workloads onto {len(nodes)} node(s) "
            f"satisfies max {max_per_node} per node"
        )
    return best, best_score


def fleet_cfi(weighted_alloc: dict[str, float]) -> float:
    """Eq. 4 lifted to the fleet: Jain over per-*workload* cumulative
    FTHR-weighted fast allocations, summed across every node and round
    the workload ran on.  Fairness follows the tenant when it migrates."""
    return jain_index([weighted_alloc[k] for k in sorted(weighted_alloc)])


def node_cfi_spread(node_cfis: dict[str, list[float]]) -> dict:
    """Per-node CFI dispersion: is one box systematically less fair?

    ``node_cfis`` maps node id → its per-round node-local CFI values
    (rounds where the node hosted ≥ 2 workloads; single-tenant rounds
    are vacuously fair and excluded from the spread).
    """
    means = {
        node: float(np.mean(vals)) for node, vals in sorted(node_cfis.items()) if vals
    }
    if not means:
        return {"per_node": {}, "spread": 0.0, "min": 1.0, "max": 1.0}
    values = list(means.values())
    return {
        "per_node": means,
        "spread": float(max(values) - min(values)),
        "min": float(min(values)),
        "max": float(max(values)),
    }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation surprises)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(np.ceil(q / 100.0 * len(ordered))) - 1))
    return float(ordered[rank])
