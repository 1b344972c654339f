"""Transparent huge pages with split-on-promotion.

Vulcan (following Memtis) keeps THP enabled for TLB coverage in the slow
tier, but *splits* a 2 MiB huge page into 512 base pages before
promoting, so only the genuinely hot 4 KiB subpages consume fast-tier
capacity (§3.4/§3.5: "manages huge-page promotions by splitting them
into base pages to prevent memory wastage").

The manager tracks which VPN ranges are currently backed by a huge
mapping, estimates subpage heat skew from the access stream, and
performs the split: one huge mapping becomes 512 base PTEs (all pointing
into the same physically-contiguous frame block), after which the
ordinary migration engine promotes individual base pages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sim.units import BASE_PAGES_PER_HUGE_PAGE


@dataclass
class HugeRegion:
    """One 2 MiB-aligned region currently mapped huge."""

    start_vpn: int  # aligned to BASE_PAGES_PER_HUGE_PAGE
    accesses: int = 0
    #: per-subpage access histogram, filled lazily on first profile
    subpage_hist: np.ndarray | None = None

    @property
    def end_vpn(self) -> int:
        return self.start_vpn + BASE_PAGES_PER_HUGE_PAGE


@dataclass
class HugePageManager:
    """Tracks huge mappings and decides/performs splits.

    The simulator's page tables always operate at base-page granularity
    (a huge mapping is 512 base PTEs sharing hotness state); what this
    manager adds is the *policy* state: which regions count as huge for
    TLB-reach purposes, and the split bookkeeping that gates promotion.
    """

    enabled: bool = True
    #: huge-region base vpn -> region record
    regions: dict[int, HugeRegion] = field(default_factory=dict)
    splits: int = 0

    @staticmethod
    def huge_base(vpn: int) -> int:
        return vpn - (vpn % BASE_PAGES_PER_HUGE_PAGE)

    def register_region(self, start_vpn: int, n_pages: int) -> int:
        """Mark every fully-covered 2 MiB block of a VMA as huge-mapped.

        Returns the number of huge regions created.
        """
        if not self.enabled:
            return 0
        created = 0
        first = self.huge_base(start_vpn + BASE_PAGES_PER_HUGE_PAGE - 1)
        last_excl = self.huge_base(start_vpn + n_pages)
        for base in range(first, last_excl, BASE_PAGES_PER_HUGE_PAGE):
            if base not in self.regions:
                self.regions[base] = HugeRegion(start_vpn=base)
                created += 1
        return created

    def record_accesses(self, vpns: np.ndarray) -> None:
        """Account a batch of accesses to the covering regions."""
        if not self.enabled or not self.regions:
            return
        bases = vpns - (vpns % BASE_PAGES_PER_HUGE_PAGE)
        uniq, counts = np.unique(bases, return_counts=True)
        for base, count in zip(uniq.tolist(), counts.tolist()):
            region = self.regions.get(base)
            if region is None:
                continue
            region.accesses += count
            if region.subpage_hist is None:
                region.subpage_hist = np.zeros(BASE_PAGES_PER_HUGE_PAGE, dtype=np.int64)
            mask = bases == base
            offsets = (vpns[mask] - base).astype(np.int64)
            region.subpage_hist += np.bincount(offsets, minlength=BASE_PAGES_PER_HUGE_PAGE)

    def split_candidates(self, min_accesses: int = 64, skew_threshold: float = 2.0) -> list[int]:
        """Regions hot enough to be promotion candidates, hence splittable.

        A region qualifies when it has traffic and its subpage accesses
        are skewed (top-decile mean > ``skew_threshold`` × overall mean),
        i.e. promoting the whole 2 MiB would waste fast memory.
        A perfectly uniform hot region is better promoted whole, so it is
        *not* returned here.
        """
        out: list[int] = []
        for base, region in self.regions.items():
            if region.accesses < min_accesses or region.subpage_hist is None:
                continue
            hist = region.subpage_hist
            mean = hist.mean()
            if mean <= 0:
                continue
            k = max(BASE_PAGES_PER_HUGE_PAGE // 10, 1)
            top = np.sort(hist)[-k:].mean()
            if top > skew_threshold * mean:
                out.append(base)
        return out

    def split(self, base_vpn: int) -> list[int]:
        """Split a huge region into its base VPNs (returned hot-first
        when a histogram exists)."""
        region = self.regions.pop(base_vpn, None)
        if region is None:
            raise KeyError(f"vpn {base_vpn} is not a huge-region base")
        self.splits += 1
        vpns = np.arange(region.start_vpn, region.end_vpn, dtype=np.int64)
        if region.subpage_hist is not None:
            order = np.argsort(region.subpage_hist)[::-1]
            vpns = vpns[order]
        return vpns.tolist()

    def tlb_reach_pages(self, tlb_entries: int) -> int:
        """Effective TLB reach in base pages given huge coverage.

        Each huge-mapped entry covers 512 base pages; this is the Memtis
        rationale for keeping THP on despite split-on-promotion.
        """
        huge_entries = min(len(self.regions), tlb_entries)
        base_entries = tlb_entries - huge_entries
        return huge_entries * BASE_PAGES_PER_HUGE_PAGE + base_entries
