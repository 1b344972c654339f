"""Four-level radix page table (x86-64 style).

48-bit virtual addresses decompose into four 9-bit indices (PGD → PUD →
PMD → PT) plus the 12-bit page offset; the simulator works directly in
virtual page numbers (VPN = VA >> 12), i.e. 36 bits of index split
9/9/9/9.

Nodes are small dicts rather than 512-ary arrays — sparse and cheap for
simulated address spaces — but the *structure* is faithful: leaf (PT)
nodes are first-class objects that per-thread replicated tables can
share by reference, which is precisely the mechanism Vulcan's §3.4
relies on (replicate upper levels, share last level).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from repro.mm import pte as pte_mod

#: Radix bits per level and derived masks.
LEVEL_BITS = 9
LEVEL_FANOUT = 1 << LEVEL_BITS  # 512
N_LEVELS = 4  # PGD, PUD, PMD, PT
_LEVEL_MASK = LEVEL_FANOUT - 1


def vpn_indices(vpn: int) -> tuple[int, int, int, int]:
    """Split a VPN into (pgd, pud, pmd, pt) indices."""
    if vpn < 0 or vpn >= 1 << (LEVEL_BITS * N_LEVELS):
        raise ValueError(f"vpn {vpn} outside the 36-bit index space")
    return (
        (vpn >> (3 * LEVEL_BITS)) & _LEVEL_MASK,
        (vpn >> (2 * LEVEL_BITS)) & _LEVEL_MASK,
        (vpn >> LEVEL_BITS) & _LEVEL_MASK,
        vpn & _LEVEL_MASK,
    )


def _leaf_runs(vpns: np.ndarray) -> Iterator[tuple[int, int, int]]:
    """``(leaf base, start, stop)`` of each run of consecutive ``vpns``
    covered by one leaf (for ascending input, one run per leaf)."""
    bases = vpns >> LEVEL_BITS
    cuts = (np.flatnonzero(bases[1:] != bases[:-1]) + 1).tolist()
    starts = [0, *cuts]
    return zip(bases[starts].tolist(), starts, [*cuts, int(vpns.size)])


@dataclass
class PageTableNode:
    """One table page at any level.

    ``level`` 3..1 hold child :class:`PageTableNode` references; level 0
    (the PT leaf) holds integer PTEs.
    """

    level: int
    entries: dict[int, "PageTableNode | int"] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def is_leaf(self) -> bool:
        return self.level == 0


class PageTable:
    """A single (per-process or per-thread) page-table tree."""

    def __init__(self) -> None:
        self.root = PageTableNode(level=N_LEVELS - 1)
        self.mapped_count = 0
        #: Table pages allocated for this tree, by level (leaf counted
        #: only when owned — replication shares leaves).
        self.node_count_by_level = [0, 0, 0, 1]  # root exists
        #: leaf-base (vpn >> 9) -> PT node. Leaf nodes are never removed
        #: or replaced once linked (unmap only clears entries inside
        #: them), so the cache needs no invalidation; it turns the hot
        #: 3-level descent into one dict probe.
        self._leaf_cache: dict[int, PageTableNode] = {}

    # -- internal walks ---------------------------------------------------

    def _walk_to_leaf(self, vpn: int, create: bool, leaf_factory: Callable[[], PageTableNode] | None = None) -> PageTableNode | None:
        """Descend to the PT node covering ``vpn``.

        ``leaf_factory`` lets the replication layer supply a *shared*
        leaf node instead of a fresh one when creating.
        """
        leaf = self._leaf_cache.get(vpn >> LEVEL_BITS)
        if leaf is not None:
            return leaf
        i3, i2, i1, _ = vpn_indices(vpn)
        node = self.root
        for level, idx in ((2, i3), (1, i2), (0, i1)):
            child = node.entries.get(idx)
            if child is None:
                if not create:
                    return None
                if level == 0 and leaf_factory is not None:
                    child = leaf_factory()
                else:
                    child = PageTableNode(level=level)
                    self.node_count_by_level[level] += 1
                node.entries[idx] = child
            node = child  # type: ignore[assignment]
        self._leaf_cache[vpn >> LEVEL_BITS] = node
        return node  # the PT leaf node

    def leaf_for(self, vpn: int) -> PageTableNode | None:
        """The PT node covering ``vpn`` if it exists."""
        return self._walk_to_leaf(vpn, create=False)

    def install_leaf(self, vpn: int, leaf: PageTableNode) -> None:
        """Link an existing (shared) leaf node under this tree's upper
        levels at the slot covering ``vpn`` — the replication primitive."""
        if not leaf.is_leaf:
            raise ValueError("install_leaf requires a level-0 node")
        i3, i2, i1, _ = vpn_indices(vpn)
        node = self.root
        for level, idx in ((2, i3), (1, i2)):
            child = node.entries.get(idx)
            if child is None:
                child = PageTableNode(level=level)
                self.node_count_by_level[level] += 1
                node.entries[idx] = child
            node = child  # type: ignore[assignment]
        existing = node.entries.get(i1)
        if existing is not None and existing is not leaf:
            raise ValueError(f"slot for vpn {vpn} already holds a different leaf")
        node.entries[i1] = leaf
        self._leaf_cache[vpn >> LEVEL_BITS] = leaf

    # -- public mapping API ------------------------------------------------

    def map(self, vpn: int, pte_value: int) -> None:
        """Install a PTE for ``vpn`` (must not already be present)."""
        leaf = self._walk_to_leaf(vpn, create=True)
        assert leaf is not None
        idx = vpn & _LEVEL_MASK
        existing = leaf.entries.get(idx)
        if isinstance(existing, int) and pte_mod.pte_is_present(existing):
            raise ValueError(f"vpn {vpn} already mapped")
        leaf.entries[idx] = pte_value
        self.mapped_count += 1

    def map_many(self, vpns: np.ndarray, values: np.ndarray) -> None:
        """:meth:`map` each ``vpns[i]`` to ``values[i]``, in order.

        One leaf-dict update per leaf run, so leaves and their entries
        are created in the order the scalar calls would create them.
        """
        slots = (vpns & _LEVEL_MASK).tolist()
        vals = values.tolist()
        for base, s, e in _leaf_runs(vpns):
            entries = self._walk_to_leaf(base << LEVEL_BITS, create=True).entries
            if not entries.keys().isdisjoint(slots[s:e]):
                raise ValueError(f"a vpn of leaf {base:#x} is already mapped")
            entries.update(zip(slots[s:e], vals[s:e]))
        self.mapped_count += len(vals)

    def update_many(self, vpns: np.ndarray, values: np.ndarray) -> None:
        """:meth:`update` each mapped ``vpns[i]`` to ``values[i]``."""
        slots = (vpns & _LEVEL_MASK).tolist()
        vals = values.tolist()
        for base, s, e in _leaf_runs(vpns):
            leaf = self._walk_to_leaf(base << LEVEL_BITS, create=False)
            if leaf is None or not leaf.entries.keys() >= set(slots[s:e]):
                raise KeyError(f"a vpn of leaf {base:#x} is not mapped")
            leaf.entries.update(zip(slots[s:e], vals[s:e]))

    def unmap(self, vpn: int) -> int:
        """Remove the PTE for ``vpn`` and return its last value."""
        leaf = self.leaf_for(vpn)
        idx = vpn & _LEVEL_MASK
        if leaf is None or not isinstance(leaf.entries.get(idx), int):
            raise KeyError(f"vpn {vpn} not mapped")
        value = leaf.entries.pop(idx)
        self.mapped_count -= 1
        return value  # type: ignore[return-value]

    def lookup(self, vpn: int) -> int | None:
        """Return the PTE integer for ``vpn`` or ``None``."""
        leaf = self._leaf_cache.get(vpn >> LEVEL_BITS)
        if leaf is None:
            leaf = self._walk_to_leaf(vpn, create=False)
            if leaf is None:
                return None
        value = leaf.entries.get(vpn & _LEVEL_MASK)
        return value if isinstance(value, int) else None

    def update(self, vpn: int, new_value: int) -> None:
        """Overwrite an existing PTE (remap / flag changes)."""
        leaf = self._leaf_cache.get(vpn >> LEVEL_BITS)
        if leaf is None:
            leaf = self._walk_to_leaf(vpn, create=False)
        idx = vpn & _LEVEL_MASK
        if leaf is None or not isinstance(leaf.entries.get(idx), int):
            raise KeyError(f"vpn {vpn} not mapped")
        leaf.entries[idx] = new_value

    def modify(self, vpn: int, fn: Callable[[int], int]) -> int:
        """Apply ``fn`` to the current PTE and store the result."""
        leaf = self._leaf_cache.get(vpn >> LEVEL_BITS)
        if leaf is None:
            leaf = self._walk_to_leaf(vpn, create=False)
        idx = vpn & _LEVEL_MASK
        if leaf is None or not isinstance(leaf.entries.get(idx), int):
            raise KeyError(f"vpn {vpn} not mapped")
        new_value = fn(leaf.entries[idx])  # type: ignore[arg-type]
        leaf.entries[idx] = new_value
        return new_value

    def iter_ptes(self) -> Iterator[tuple[int, int]]:
        """Yield ``(vpn, pte)`` for every mapped page (scanning order)."""

        def rec(node: PageTableNode, prefix: int):
            for idx in sorted(node.entries):
                child = node.entries[idx]
                if node.is_leaf:
                    if isinstance(child, int):
                        yield (prefix << LEVEL_BITS) | idx, child
                else:
                    yield from rec(child, (prefix << LEVEL_BITS) | idx)  # type: ignore[arg-type]

        yield from rec(self.root, 0)

    def table_pages(self, include_leaves: bool = True) -> int:
        """Number of table pages in this tree (memory-overhead metric).

        With ``include_leaves=False`` only upper-level pages are counted,
        which is the marginal cost of one per-thread replica in Vulcan.
        """
        upper = sum(self.node_count_by_level[1:])
        if not include_leaves:
            return upper
        # Leaves may be shared; count distinct leaf objects reachable.
        leaves: set[int] = set()

        def rec(node: PageTableNode):
            for child in node.entries.values():
                if isinstance(child, PageTableNode):
                    if child.is_leaf:
                        leaves.add(id(child))
                    else:
                        rec(child)

        rec(self.root)
        return upper + len(leaves)
