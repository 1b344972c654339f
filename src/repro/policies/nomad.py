"""Nomad (Xiang et al., OSDI'24) — transactional tiering with shadowing.

Re-implemented from the paper's description:

* **Placement logic**: TPP's hint-fault promotion criteria and
  watermark demotion, inherited unchanged — Nomad's contribution is the
  *mechanism*, not the policy ("it fails to adapt policies based on page
  access characteristics", paper §2.1).
* **Transactional migration**: pages stay mapped during the copy; a
  concurrent write aborts the transaction (our engine's transactional
  discipline).  Migration is thus fully asynchronous — but
  write-intensive pages thrash with repeated aborts, the weakness
  Vulcan's Table 1 bias addresses.
* **Page shadowing**: a promoted page's slow-tier copy is retained;
  clean pages demote by remap.  Non-exclusive tiering means shadows
  consume slow-tier capacity.
"""

from __future__ import annotations

from repro.mm.migration import MigrationRequest, OptimizationFlags
from repro.policies.tpp import TppPolicy


class NomadPolicy(TppPolicy):
    """TPP's placement over a transactional, shadowed mechanism."""

    name = "nomad"
    engine_flags = OptimizationFlags(opt_prep=False, opt_tlb=False, async_retry_limit=3)

    def _uses_shadowing(self) -> bool:
        return True

    def _promotion_request(self, pid: int, vpn: int) -> MigrationRequest:
        """One promotion, copied transactionally off the critical path."""
        rt = self.workloads[pid]
        return MigrationRequest(
            pid=pid,
            vpn=vpn,
            dest_tier=0,
            sync=False,
            write_fraction=rt.profiler.write_fraction(pid, vpn),
            access_rate_per_kcycle=rt.access_rate_per_kcycle,
        )
