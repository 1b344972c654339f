"""64-bit page-table-entry bitfield codec.

Layout follows x86-64 with the paper's extension (§4): previously-ignored
bits 52-58 carry a 7-bit thread id.  ``0x7F`` (all ones) marks a page
shared by more than one thread; any other value is the owning thread's
id, so a migration can scope its TLB shootdown to exactly the cores that
may cache the translation.

Bit layout::

    bit  0      P    present
    bit  1      RW   writable
    bit  5      A    accessed (hardware-set on access)
    bit  6      D    dirty    (hardware-set on write)
    bits 12-51  PFN  physical frame number (40 bits)
    bits 52-58  TID  thread ownership (paper's addition; 0x7F = shared)
    bit  61     HINT software: NUMA-hinting poisoned (prot_none style)
    bit  62     SHDW software: shadow copy retained on slow tier (Nomad)
    bit  63     NX   no-execute (unused by the simulator)

Everything here is pure integer arithmetic on Python ints so PTEs can be
stored compactly and compared for exact equality across replicated
tables.  For bulk paths, :func:`pte_make_many` builds an int64 array of
entries, and :func:`pte_with_pfn` and :func:`pte_with_tid` also take
them.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

PTE_PRESENT = 1 << 0
PTE_WRITE = 1 << 1
PTE_ACCESSED = 1 << 5
PTE_DIRTY = 1 << 6
PTE_HINT = 1 << 61
PTE_SHADOW = 1 << 62
PTE_NX = 1 << 63

_PFN_SHIFT = 12
_PFN_BITS = 40
_PFN_MASK = ((1 << _PFN_BITS) - 1) << _PFN_SHIFT

_TID_SHIFT = 52
_TID_BITS = 7
_TID_MASK = ((1 << _TID_BITS) - 1) << _TID_SHIFT

#: Sentinel thread id: page-table entry shared by multiple threads.
PTE_SHARED_TID = (1 << _TID_BITS) - 1  # 0x7F

#: Maximum encodable *owning* thread id (0x7F is reserved for "shared").
PTE_MAX_TID = PTE_SHARED_TID - 1


class Pte(NamedTuple):
    """Decoded view of a PTE (see :func:`pte_decode`)."""

    present: bool
    writable: bool
    accessed: bool
    dirty: bool
    hint_poisoned: bool
    shadowed: bool
    pfn: int
    tid: int

    @property
    def shared(self) -> bool:
        return self.tid == PTE_SHARED_TID


def pte_make(
    pfn: int,
    tid: int,
    *,
    present: bool = True,
    writable: bool = True,
    accessed: bool = False,
    dirty: bool = False,
    hint_poisoned: bool = False,
    shadowed: bool = False,
) -> int:
    """Encode a PTE integer.

    Raises
    ------
    ValueError
        If ``pfn`` or ``tid`` does not fit its field.
    """
    if not 0 <= pfn < (1 << _PFN_BITS):
        raise ValueError(f"pfn {pfn} out of range for {_PFN_BITS}-bit field")
    if not 0 <= tid <= PTE_SHARED_TID:
        raise ValueError(f"tid {tid} out of range for {_TID_BITS}-bit field")
    value = (pfn << _PFN_SHIFT) | (tid << _TID_SHIFT)
    if present:
        value |= PTE_PRESENT
    if writable:
        value |= PTE_WRITE
    if accessed:
        value |= PTE_ACCESSED
    if dirty:
        value |= PTE_DIRTY
    if hint_poisoned:
        value |= PTE_HINT
    if shadowed:
        value |= PTE_SHADOW
    return value


def pte_make_many(
    pfns: np.ndarray, tids: np.ndarray, *, writable: bool = True, accessed: bool = False
) -> np.ndarray:
    """:func:`pte_make` elementwise over int64 arrays (present entries,
    no other flags)."""
    if pfns.size and not (0 <= int(pfns.min()) and int(pfns.max()) < 1 << _PFN_BITS):
        raise ValueError(f"pfns out of range for {_PFN_BITS}-bit field")
    if tids.size and not (0 <= int(tids.min()) and int(tids.max()) <= PTE_SHARED_TID):
        raise ValueError(f"tids out of range for {_TID_BITS}-bit field")
    flags = pte_make(0, 0, writable=writable, accessed=accessed)
    pfns, tids = np.asarray(pfns, dtype=np.int64), np.asarray(tids, dtype=np.int64)
    return (pfns << _PFN_SHIFT) | (tids << _TID_SHIFT) | flags


def pte_decode(value: int) -> Pte:
    """Decode an integer PTE into a :class:`Pte` view."""
    return Pte(
        present=bool(value & PTE_PRESENT),
        writable=bool(value & PTE_WRITE),
        accessed=bool(value & PTE_ACCESSED),
        dirty=bool(value & PTE_DIRTY),
        hint_poisoned=bool(value & PTE_HINT),
        shadowed=bool(value & PTE_SHADOW),
        pfn=(value & _PFN_MASK) >> _PFN_SHIFT,
        tid=(value & _TID_MASK) >> _TID_SHIFT,
    )


def pte_pfn(value: int) -> int:
    """Extract the PFN field."""
    return (value & _PFN_MASK) >> _PFN_SHIFT


def pte_tid(value: int) -> int:
    """Extract the thread-ownership field."""
    return (value & _TID_MASK) >> _TID_SHIFT


def pte_with_pfn(value: int, pfn: int) -> int:
    """Return ``value`` re-pointed at ``pfn`` (remap step of migration).

    Also elementwise over int64 arrays of entries and frames.
    """
    if isinstance(pfn, np.ndarray):
        if pfn.size and not (0 <= int(pfn.min()) and int(pfn.max()) < 1 << _PFN_BITS):
            raise ValueError(f"pfns out of range for {_PFN_BITS}-bit field")
    elif not 0 <= pfn < (1 << _PFN_BITS):
        raise ValueError(f"pfn {pfn} out of range")
    return (value & ~_PFN_MASK) | (pfn << _PFN_SHIFT)


def pte_with_tid(value: int, tid: int) -> int:
    """Return ``value`` with the ownership field set to ``tid``."""
    if not 0 <= tid <= PTE_SHARED_TID:
        raise ValueError(f"tid {tid} out of range")
    return (value & ~_TID_MASK) | (tid << _TID_SHIFT)


def pte_set_flag(value: int, flag: int) -> int:
    """Set a flag bit (one of the ``PTE_*`` constants)."""
    return value | flag


def pte_clear_flag(value: int, flag: int) -> int:
    """Clear a flag bit (one of the ``PTE_*`` constants)."""
    return value & ~flag


def pte_is_present(value: int) -> bool:
    return bool(value & PTE_PRESENT)


def pte_is_dirty(value: int) -> bool:
    return bool(value & PTE_DIRTY)


def pte_is_shared(value: int) -> bool:
    return pte_tid(value) == PTE_SHARED_TID
