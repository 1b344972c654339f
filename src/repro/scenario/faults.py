"""Probabilistic migration-fault injection (DESIGN.md §scenario).

One :class:`FaultInjector` is shared by every workload's migration
engine in a scenario run.  The engine asks ``roll(kind, pid=, vpn=)``
at each fault point; the injector draws from its *own* RNG stream (so
arming faults never perturbs workload or policy randomness) and only
draws at all when the probability for that kind is nonzero — an
injector with all probabilities at zero is bit-identical to no
injector, which is what the determinism tests pin.
"""

from __future__ import annotations

import numpy as np

from repro.mm.migration import FaultKind


class FaultInjector:
    """Shared, scriptable source of typed migration faults."""

    def __init__(self, seed: int = 0) -> None:
        self.rng = np.random.default_rng(seed)
        self.probs: dict[FaultKind, float] = {}
        #: typed record of every fault that actually fired
        self.records: list[dict] = []
        #: current epoch, stamped by the scenario engine each epoch
        self.epoch: int = -1

    def configure(self, params: dict) -> None:
        """Arm fault kinds from a string-keyed probability map."""
        for key, prob in params.items():
            kind = FaultKind(key)
            p = float(prob)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability of {key} must lie in [0, 1], got {p}")
            if p > 0.0:
                self.probs[kind] = p
            else:
                self.probs.pop(kind, None)

    def clear(self) -> None:
        """Disarm everything (no further RNG draws)."""
        self.probs.clear()

    def roll(self, kind: FaultKind, *, pid: int, vpn: int) -> bool:
        """Should this migration step fail?  Draws only when armed."""
        p = self.probs.get(kind, 0.0)
        if p <= 0.0:
            return False
        if self.rng.random() >= p:
            return False
        self.records.append({"epoch": self.epoch, "kind": kind.value, "pid": pid, "vpn": vpn})
        return True
