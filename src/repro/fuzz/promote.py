"""Crasher-to-regression promotion (DESIGN.md §fuzz).

A failing case is written as one content-hashed JSON file —
``<prefix><spec-hash-12>.json`` — carrying the spec, the rest of the
case (a scenario case's machine sizing), the finding it reproduced,
and the seed pair that found it.  Each case kind
(:class:`repro.fuzz.runner.CaseKind`) names its own format tag and file
prefix — ``crasher_`` for scenarios, ``fleet_crasher_`` for fleets —
and neither prefix's glob matches the other's files, so both kinds
share ``tests/golden/fuzz_regressions/`` without ever feeding a replay
the wrong spec type.  Files promoted there are replayed by the tier-1
suite forever: once the underlying bug is fixed, the replay must stay
green, so the regression can never return silently.

Content-hash naming makes promotion idempotent (re-promoting the same
minimized spec overwrites the identical file) and collision-free
(different specs get different names).
"""

from __future__ import annotations

import json
from pathlib import Path

#: the crasher file's own fields; everything else is the case's
_ENVELOPE = ("format", "found_by", "violation")


def promote_crasher(kind, case, finding: dict, dest_dir) -> Path:
    """Write ``case`` of ``kind`` as a regression file; returns the path."""
    dest = Path(dest_dir)
    dest.mkdir(parents=True, exist_ok=True)
    fields = case.to_dict()
    found_by = {"master_seed": fields.pop("master_seed"), "index": fields.pop("index")}
    payload = {
        "format": kind.crasher_format,
        "found_by": found_by,
        "violation": dict(finding),
        **fields,
    }
    path = dest / f"{kind.crasher_prefix}{case.spec.content_hash()[:12]}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_crasher(kind, path) -> tuple:
    """Read one regression file of ``kind`` back as a runnable (case, violation)."""
    data = json.loads(Path(path).read_text())
    if data.get("format") != kind.crasher_format:
        raise ValueError(f"{path}: not a {kind.crasher_format} file")
    fields = {k: v for k, v in data.items() if k not in _ENVELOPE}
    case = kind.case_type.from_dict({**data["found_by"], **fields})
    return case, data["violation"]


def iter_crashers(kind, directory) -> list[Path]:
    """All regression files of ``kind`` in ``directory``, name-sorted (stable)."""
    d = Path(directory)
    if not d.is_dir():
        return []
    return sorted(d.glob(f"{kind.crasher_prefix}*.json"))
