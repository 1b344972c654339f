"""Analytic fleet metrics: placement score, oracle, CFI rollups."""

from __future__ import annotations

import random
from itertools import product

import pytest

from repro.fleet.metrics import (
    fleet_cfi,
    node_cfi_spread,
    oracle_assignment,
    percentile,
    placement_score,
)

CAPS = {"n0": 400, "n1": 400}


class TestPlacementScore:
    def test_empty_assignment_is_perfect(self):
        assert placement_score({}, {}, CAPS) == 1.0

    def test_bounded_in_unit_interval(self):
        demands = {"a": 300, "b": 300, "c": 500}
        for assignment in (
            {"a": "n0", "b": "n0", "c": "n0"},
            {"a": "n0", "b": "n1", "c": "n1"},
            {"a": "n0", "b": "n1", "c": "n0"},
        ):
            s = placement_score(assignment, demands, CAPS)
            assert 0.0 <= s <= 1.0

    def test_balanced_beats_piled_up(self):
        demands = {"a": 300, "b": 300}
        split = placement_score({"a": "n0", "b": "n1"}, demands, CAPS)
        piled = placement_score({"a": "n0", "b": "n0"}, demands, CAPS)
        assert split > piled

    def test_unknown_node_raises(self):
        with pytest.raises(ValueError, match="unknown node"):
            placement_score({"a": "nope"}, {"a": 10}, CAPS)

    def test_underloaded_fleet_scores_one(self):
        demands = {"a": 100, "b": 100}
        assert placement_score({"a": "n0", "b": "n1"}, demands, CAPS) == 1.0


class TestOracle:
    def test_oracle_at_least_any_assignment(self):
        demands = {"a": 350, "b": 200, "c": 150, "d": 90}
        _, best = oracle_assignment(demands, CAPS)
        for combo in (
            {"a": "n0", "b": "n0", "c": "n1", "d": "n1"},
            {"a": "n1", "b": "n0", "c": "n0", "d": "n0"},
        ):
            assert placement_score(combo, demands, CAPS) <= best + 1e-12

    def test_search_space_cap(self):
        demands = {f"w{i}": 10 for i in range(20)}
        caps = {f"n{i}": 100 for i in range(4)}
        with pytest.raises(ValueError, match="exceeds"):
            oracle_assignment(demands, caps)

    def test_max_per_node_respected(self):
        demands = {"a": 10, "b": 10, "c": 10}
        assignment, _ = oracle_assignment(demands, CAPS, max_per_node=2)
        per_node: dict[str, int] = {}
        for n in assignment.values():
            per_node[n] = per_node.get(n, 0) + 1
        assert max(per_node.values()) <= 2

    def test_max_per_node_infeasible_raises(self):
        demands = {"a": 10, "b": 10, "c": 10}
        with pytest.raises(ValueError, match="satisfies max"):
            oracle_assignment(demands, {"n0": 100}, max_per_node=2)


def brute_force_oracle(demands, capacities, *, max_per_node=None):
    """Every ``nodes ** workloads`` candidate in lexicographic order,
    first maximum wins: the search the canonical enumeration replaced."""
    keys = sorted(demands)
    nodes = sorted(capacities)
    if not keys:
        return {}, 1.0
    best, best_score = None, -1.0
    for combo in product(nodes, repeat=len(keys)):
        if max_per_node is not None and max(combo.count(n) for n in set(combo)) > max_per_node:
            continue
        candidate = dict(zip(keys, combo))
        score = placement_score(candidate, demands, capacities)
        if score > best_score:
            best, best_score = candidate, score
    if best is None:
        raise ValueError("no assignment satisfies max per node")
    return best, best_score


class TestCanonicalOracle:
    """The canonical search against brute force: mixed capacities,
    repeated demands (ties), no cap or caps 1-4, infeasible inputs."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            n_nodes = rng.randint(1, 4)
            n_work = rng.randint(0, 6 if n_nodes < 4 else 5)
            caps = {f"n{i}": rng.choice([100, 100, 200, 400]) for i in range(n_nodes)}
            demands = {f"w{i}": rng.choice([10, 50, 50, 120, 300]) for i in range(n_work)}
            cap = rng.choice([None, 1, 2, 3, 4])
            try:
                want = brute_force_oracle(demands, caps, max_per_node=cap)
            except ValueError:
                with pytest.raises(ValueError, match="satisfies max"):
                    oracle_assignment(demands, caps, max_per_node=cap)
                continue
            assert oracle_assignment(demands, caps, max_per_node=cap) == want

    def test_equal_nodes_tie_break_keeps_first_maximum(self):
        caps = {"a": 100, "b": 100, "c": 100}
        demands = {"x": 60, "y": 60, "z": 60}
        assert oracle_assignment(demands, caps) == brute_force_oracle(demands, caps)
        assert oracle_assignment(demands, caps)[0] == {"x": "a", "y": "b", "z": "c"}

    def test_refusal_counts_the_raw_search_space(self):
        # 2 equal nodes x 18 workloads: few canonical candidates, but
        # 2**18 raw ones, above the cap
        with pytest.raises(ValueError, match="exceeds"):
            oracle_assignment({f"w{i}": 1 for i in range(18)}, {"a": 10, "b": 10})


class TestRollups:
    def test_fleet_cfi_equal_alloc_is_fair(self):
        assert fleet_cfi({"a": 5.0, "b": 5.0, "c": 5.0}) == pytest.approx(1.0)

    def test_fleet_cfi_skew_drops(self):
        assert fleet_cfi({"a": 10.0, "b": 1.0}) < 1.0

    def test_node_cfi_spread_empty(self):
        out = node_cfi_spread({})
        assert out == {"per_node": {}, "spread": 0.0, "min": 1.0, "max": 1.0}

    def test_node_cfi_spread_reports_extremes(self):
        out = node_cfi_spread({"n0": [0.9, 0.7], "n1": [0.4], "n2": []})
        assert out["per_node"] == {"n0": pytest.approx(0.8), "n1": pytest.approx(0.4)}
        assert out["spread"] == pytest.approx(0.4)
        assert out["min"] == pytest.approx(0.4)
        assert out["max"] == pytest.approx(0.8)

    def test_percentile_nearest_rank(self):
        vals = [10.0, 20.0, 30.0, 40.0]
        assert percentile(vals, 50) == 20.0
        assert percentile(vals, 99) == 40.0
        assert percentile([], 99) == 0.0
        assert percentile([7.0], 1) == 7.0
