"""Strict-JSON-safe transport of float payloads.

Python's ``json`` module happily *emits* ``NaN``/``Infinity`` literals,
but they are not JSON: a strict parser (``json.loads`` is lenient, most
HTTP clients are not) rejects them, and ``json.dumps(allow_nan=False)``
raises.  Any payload that lands in the on-disk result cache, which
non-Python consumers may read, must therefore carry non-finite floats
in an encoded form.

The encoding is a single-key marker object, ``{"__float__": "NaN"}``
(likewise ``"Infinity"`` / ``"-Infinity"``), chosen over bare sentinel
strings so a legitimate string value ``"NaN"`` can never be corrupted
by the decode pass.  Finite floats, ints, strings and containers pass
through untouched, so payloads with no non-finite values are
byte-identical before and after — the golden suites that pin
serialized results bit-for-bit are unaffected.
"""

from __future__ import annotations

import math
from typing import Any

#: marker key for encoded non-finite floats
FLOAT_KEY = "__float__"

_ENCODE = {math.inf: "Infinity", -math.inf: "-Infinity"}
_DECODE = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}


def encode_nonfinite(obj: Any) -> Any:
    """Recursively replace non-finite floats with marker objects.

    The result round-trips through ``json.dumps(..., allow_nan=False)``.
    Containers are rebuilt only on the path to a non-finite value in
    the dict/tuple case; lists are always rebuilt (cheap, and the
    common case for timeseries payloads).
    """
    if isinstance(obj, float):
        if math.isnan(obj):
            return {FLOAT_KEY: "NaN"}
        if math.isinf(obj):
            return {FLOAT_KEY: _ENCODE[obj]}
        return obj
    if isinstance(obj, dict):
        return {k: encode_nonfinite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [encode_nonfinite(v) for v in obj]
    return obj


def decode_nonfinite(obj: Any) -> Any:
    """Inverse of :func:`encode_nonfinite`."""
    if isinstance(obj, dict):
        if len(obj) == 1 and FLOAT_KEY in obj:
            try:
                return _DECODE[obj[FLOAT_KEY]]
            except (KeyError, TypeError):
                raise ValueError(f"unknown {FLOAT_KEY} marker: {obj[FLOAT_KEY]!r}") from None
        return {k: decode_nonfinite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [decode_nonfinite(v) for v in obj]
    return obj
