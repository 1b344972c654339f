"""Credit-Based Fair Resource Partitioning — Algorithm 1 (paper §3.3).

Karma-inspired long-term fairness: workloads that donate unused fast
memory earn credits; workloads that borrow beyond their guaranteed share
spend them.  Reallocation runs every epoch on the Eq. (3) demands.

Algorithm 1, as printed, initializes ``alloc_i ← min(demand_i, GFMC)``
and then defines donors as ``{i | alloc_i > demand_i}`` — a set that is
empty under that initialization.  We read the intent (consistent with
Karma and with the text "workloads are further categorized as borrowers
(demand > alloc) … or donors (demand < alloc)" where *alloc* is the
guaranteed share): a **donor** is a workload whose demand leaves part of
its GFMC share unused, and its donatable surplus is ``GFMC − alloc_i``.
This makes the total conserved: Σ alloc never exceeds capacity.

Selection rules:

* borrowers: LC before BE (line 7); within a class, highest credits
  first (Karma's rich-get-served-first), ties by pid for determinism;
* donors: minimum credits first (line 9) — poor donors earn first;
* when no donor surplus remains and an LC borrower is still short, a
  random BE task holding more than GFMC is expropriated one unit
  (lines 11-13) — the paper's LC-priority escape hatch.

Transfers are per-``unit`` (a block of pages) rather than per-page so an
epoch's rebalance is a few hundred iterations, not millions; credit
accounting is per unit transferred.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.classify import ServiceClass
from repro.obs.events import EventKind
from repro.obs.trace import get_tracer

#: Credits each workload starts with (Karma-style initial endowment).
INITIAL_CREDITS = 64


@dataclass
class CreditLedger:
    """Per-workload credit balances.

    ``endowed`` tracks the net credit mass that should be outstanding:
    each ``ensure`` banks the initial endowment, each ``drop`` retires
    the departing balance (positive or negative).  Since transfers are
    zero-sum, ``sum(credits.values()) == endowed`` must hold at every
    instant — the conservation invariant the fuzz oracle checks.
    """

    credits: dict[int, int] = field(default_factory=dict)
    endowed: int = 0

    def ensure(self, pid: int, initial: int = INITIAL_CREDITS) -> None:
        if pid not in self.credits:
            self.credits[pid] = initial
            self.endowed += initial

    def get(self, pid: int) -> int:
        return self.credits.get(pid, 0)

    def transfer(self, donor: int, borrower: int, units: int = 1) -> None:
        """Donor earns, borrower pays, per unit moved."""
        if units <= 0:
            raise ValueError("units must be positive")
        self.credits[donor] = self.credits.get(donor, 0) + units
        self.credits[borrower] = self.credits.get(borrower, 0) - units

    def drop(self, pid: int) -> None:
        balance = self.credits.pop(pid, None)
        if balance is not None:
            self.endowed -= balance

    def check_conservation(self) -> None:
        """Raise ``RuntimeError`` if credits were minted or destroyed."""
        total = sum(self.credits.values())
        if total != self.endowed:
            raise RuntimeError(
                f"credit conservation broken: Σ balances = {total} but "
                f"endowment says {self.endowed} (drift {total - self.endowed:+d})"
            )


@dataclass
class CbfrpState:
    """Inputs/outputs of one reallocation round."""

    capacity_units: int
    demands: dict[int, int]  # pid -> demanded units
    service: dict[int, ServiceClass]
    allocations: dict[int, int] = field(default_factory=dict)  # output
    expropriated: int = 0  # units taken from BE for LC (lines 11-13)
    transfers: int = 0

    @property
    def gfmc_units(self) -> int:
        n = len(self.demands)
        return self.capacity_units // n if n else 0


def run_cbfrp(
    capacity_units: int,
    demands: dict[int, int],
    service: dict[int, ServiceClass],
    ledger: CreditLedger,
    rng: np.random.Generator | None = None,
) -> CbfrpState:
    """One round of Algorithm 1.

    Parameters
    ----------
    capacity_units:
        Total fast-tier capacity in allocation units.
    demands:
        Eq. (3) demand per pid, in units.
    service:
        LC/BE class per pid.
    ledger:
        Credit balances, updated in place.
    rng:
        For the random BE expropriation choice (line 12); deterministic
        default.

    Returns
    -------
    CbfrpState with ``allocations`` summing to ≤ ``capacity_units``.
    """
    if set(demands) != set(service):
        raise ValueError("demands and service must cover the same pids")
    rng = rng if rng is not None else np.random.default_rng(0)
    tracer = get_tracer()
    state = CbfrpState(capacity_units=capacity_units, demands=dict(demands), service=dict(service))
    n = len(demands)
    if n == 0:
        return state
    gfmc = state.gfmc_units
    for pid in demands:
        ledger.ensure(pid)

    # Lines 1-2: start from the demand capped at the guaranteed share.
    alloc = {pid: min(d, gfmc) for pid, d in demands.items()}

    # Donatable surplus of each workload's guaranteed share.
    surplus = {pid: gfmc - alloc[pid] for pid in demands}

    lc_borrowers = {pid for pid, svc in service.items() if svc is ServiceClass.LC and alloc[pid] < demands[pid]}
    be_borrowers = {pid for pid, svc in service.items() if svc is ServiceClass.BE and alloc[pid] < demands[pid]}
    donors = {pid for pid in demands if surplus[pid] > 0}

    def pick_borrower() -> int:
        pool = lc_borrowers if lc_borrowers else be_borrowers
        # Highest credits first; pid tiebreak keeps runs deterministic.
        return max(pool, key=lambda p: (ledger.get(p), -p))

    def pick_donor() -> int:
        return min(donors, key=lambda p: (ledger.get(p), p))

    # Line 6: iterate until demands met or nothing left to move.
    while lc_borrowers or be_borrowers:
        b = pick_borrower()
        if donors:
            d = pick_donor()
            moved = min(surplus[d], demands[b] - alloc[b])
            alloc[b] += moved
            surplus[d] -= moved
            ledger.transfer(d, b, moved)
            state.transfers += moved
            if tracer.enabled:
                tracer.emit(
                    EventKind.CREDIT_GRANT,
                    "credit_grant",
                    pid=b,
                    args={
                        "donor": d,
                        "borrower": b,
                        "units": moved,
                        "donor_credits": ledger.get(d),
                        "borrower_credits": ledger.get(b),
                    },
                )
            if surplus[d] == 0:
                donors.discard(d)
        elif b in lc_borrowers:
            # Lines 11-13: reclaim from a BE task holding above GFMC.
            candidates = [
                p for p, svc in service.items()
                if svc is ServiceClass.BE and alloc[p] > gfmc
            ]
            if not candidates:
                break
            d = candidates[int(rng.integers(len(candidates)))]
            alloc[d] -= 1
            alloc[b] += 1
            ledger.transfer(d, b, 1)
            state.transfers += 1
            state.expropriated += 1
            if tracer.enabled:
                tracer.emit(
                    EventKind.CREDIT_RECLAIM,
                    "credit_reclaim",
                    pid=b,
                    args={
                        "donor": d,
                        "borrower": b,
                        "units": 1,
                        "donor_credits": ledger.get(d),
                        "borrower_credits": ledger.get(b),
                    },
                )
        else:
            break
        # Lines 16-17: drop satisfied borrowers.
        if alloc[b] >= demands[b]:
            lc_borrowers.discard(b)
            be_borrowers.discard(b)

    state.allocations = alloc
    return state
