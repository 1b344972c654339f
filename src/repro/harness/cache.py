"""On-disk result cache for parameter sweeps.

One sweep cell × seed = one JSON file under ``cache_dir``, named by a
**content hash** of everything that determines the cell's result:

* the cell parameters and the seed actually passed to the factory;
* a fingerprint of the factory callable (module-qualified name plus a
  hash of its source text, so editing the factory invalidates entries);
* any caller-supplied ``extra`` material — the CLI passes the policy,
  mix, epoch count and machine knobs here so two sweeps over different
  configurations never share entries.

The payload is the :meth:`ExperimentResult.to_dict` form, which
round-trips exactly through JSON (shortest-round-trip float encoding),
so a cache hit reproduces the cold-run metrics bit for bit.

Corrupt or truncated entries are treated as misses — a poisoned cache
recomputes the cell instead of crashing the sweep — and writes are
atomic (tmp file + ``os.replace``) so a killed sweep never leaves a
half-written entry behind for ``--resume`` to trip over.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import re
from pathlib import Path
from typing import Any

#: Bumped whenever the payload layout changes; part of every key.
CACHE_FORMAT_VERSION = 1

#: CPython's default ``object.__repr__`` embeds the instance address —
#: a per-process value that would silently break cache dedup.
_ADDR_REPR = re.compile(r" at 0x[0-9a-fA-F]+>")


def canonicalize(obj: Any) -> Any:
    """Reduce ``obj`` to plain JSON types with a process-independent form.

    Sets are sorted by their canonical JSON encoding (plain ``sorted``
    would depend on ``PYTHONHASHSEED``-driven iteration order for
    unorderable element types), tuples become lists, bytes become hex,
    and dict keys are stringified.  Anything else falls back to
    ``repr`` — but a repr that embeds a memory address is rejected
    outright, because hashing it would produce a different key in every
    process, so a rerun of the same sweep would never hit its cache.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj
    if isinstance(obj, dict):
        return {str(k): canonicalize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonicalize(v) for v in obj]
    if isinstance(obj, (set, frozenset)):
        items = [canonicalize(v) for v in obj]
        return sorted(items, key=lambda x: json.dumps(x, sort_keys=True))
    if isinstance(obj, (bytes, bytearray)):
        return bytes(obj).hex()
    r = repr(obj)
    if _ADDR_REPR.search(r):
        raise TypeError(
            f"cannot build a stable content hash from {type(obj).__name__}: "
            f"its repr embeds a memory address ({r}); pass plain data instead"
        )
    return r


def content_hash(obj: Any) -> str:
    """Stable sha256 of (nearly) any plain-data object.

    Stable across processes and ``PYTHONHASHSEED`` values: the object
    is canonicalized first (set ordering, tuple/list unification, repr
    address rejection — see :func:`canonicalize`), then serialized with
    sorted keys.
    """
    blob = json.dumps(canonicalize(obj), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def factory_fingerprint(fn: Any) -> dict[str, str]:
    """Identify a factory callable for cache-key purposes.

    ``functools.partial`` is unwrapped so the bound arguments join the
    key material alongside the underlying function's identity.
    """
    if isinstance(fn, functools.partial):
        inner = factory_fingerprint(fn.func)
        inner["partial_args"] = repr(fn.args)
        inner["partial_kwargs"] = repr(sorted(fn.keywords.items()) if fn.keywords else [])
        return inner
    qualname = f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', repr(fn))}"
    try:
        source = inspect.getsource(fn)
    except (OSError, TypeError):
        source = ""
    return {
        "callable": qualname,
        "source_sha": hashlib.sha256(source.encode()).hexdigest(),
    }


class ResultCache:
    """Content-addressed store of serialized per-(cell, seed) results."""

    def __init__(self, cache_dir: str | Path) -> None:
        self.dir = Path(cache_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    # -- keys ----------------------------------------------------------------

    @staticmethod
    def key_for(
        factory: Any,
        params: dict[str, Any],
        seed: int,
        extra: dict[str, Any] | None = None,
    ) -> str:
        material = {
            "v": CACHE_FORMAT_VERSION,
            "factory": factory_fingerprint(factory),
            "params": sorted(params.items()),
            "seed": seed,
            "extra": sorted((extra or {}).items()),
        }
        return content_hash(material)

    def path_for(self, key: str) -> Path:
        return self.dir / f"{key}.json"

    # -- read/write ----------------------------------------------------------

    def get(self, key: str) -> dict | None:
        """The stored result payload, or None on miss/corruption."""
        path = self.path_for(key)
        try:
            payload = json.loads(path.read_text())
            if payload.get("v") != CACHE_FORMAT_VERSION or "result" not in payload:
                raise ValueError("unrecognized cache entry layout")
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, AttributeError, json.JSONDecodeError):
            # Poisoned entry: recompute rather than crash; the rewrite
            # after recomputation heals the cache.
            self.corrupt += 1
            self.misses += 1
            return None
        self.hits += 1
        return payload["result"]

    def put(self, key: str, result: dict) -> None:
        """Atomically persist one result payload."""
        path = self.path_for(key)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"v": CACHE_FORMAT_VERSION, "result": result}))
        os.replace(tmp, path)

    def __len__(self) -> int:
        return sum(1 for _ in self.dir.glob("*.json"))
