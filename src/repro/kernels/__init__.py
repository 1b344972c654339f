"""Compiled kernel tier: import-time backend dispatch (DESIGN.md §6).

The measured hot loops of the epoch pipeline — Zipf LUT inversion,
``PageStatsStore`` row updates and touched-set resets, ``HeatStore``
accumulate/decay/gather, ``EpochPlan`` execution, and the
promotion-candidate gather — are routed through this module.  Two
backends implement the same function set:

* :mod:`repro.kernels.np_backend` — pure numpy, always available, and
  the *reference*: its bodies compute exactly what the goldens pinned
  before the kernel tier existed.
* :mod:`repro.kernels.nb_backend` — ``@njit(cache=True)`` mirrors,
  used when numba is importable (the optional ``repro[fast]`` extra;
  never a hard dependency).

Selection happens once, at import, from ``REPRO_KERNELS``:

* ``auto`` (default) — numba if importable, else numpy;
* ``python`` — force the numpy reference backend;
* ``numba`` — require the numba backend; raise if it cannot load.

``BACKEND`` names the backend in effect ("python" or "numba");
``NUMBA_ERROR`` holds the import failure when numba was tried and
unavailable.  Both backends are differentially pinned bit-identical by
tests/kernels/; see DESIGN.md §6 for the contract a new kernel pair
must satisfy.
"""

from __future__ import annotations

import os

VALID_MODES = ("auto", "python", "numba")

REQUESTED = os.environ.get("REPRO_KERNELS", "auto").strip().lower() or "auto"
if REQUESTED not in VALID_MODES:
    raise RuntimeError(
        f"REPRO_KERNELS={REQUESTED!r} is not one of {'/'.join(VALID_MODES)}"
    )

from repro.kernels import np_backend as _np_backend  # noqa: E402

_impl = _np_backend
BACKEND = "python"
#: why the numba backend is not active (None when it is, or never tried)
NUMBA_ERROR: str | None = None

if REQUESTED in ("auto", "numba"):
    try:
        from repro.kernels import nb_backend as _nb_backend
    except Exception as exc:  # numba absent or broken — never a hard dep
        NUMBA_ERROR = f"{type(exc).__name__}: {exc}"
        if REQUESTED == "numba":
            raise RuntimeError(
                "REPRO_KERNELS=numba but the numba backend failed to load "
                f"({NUMBA_ERROR}); install the repro[fast] extra or use "
                "REPRO_KERNELS=auto|python"
            ) from exc
    else:
        _impl = _nb_backend
        BACKEND = "numba"

#: the dispatched kernel set — one name per differentially-pinned pair
KERNEL_NAMES = (
    "zipf_invert",
    "page_record_rows",
    "page_reset_epoch",
    "pid_fast_usage",
    "pid_ground_truth",
    "heat_accumulate",
    "heat_add_scaled",
    "heat_decay",
    "heat_compact",
    "heat_min_live",
    "heat_gather",
    "accumulate_unique",
    "write_fractions",
    "plan_span_stats",
    "plan_segment_unique",
    "hot_slow_candidates",
)

zipf_invert = _impl.zipf_invert
page_record_rows = _impl.page_record_rows
page_reset_epoch = _impl.page_reset_epoch
pid_fast_usage = _impl.pid_fast_usage
pid_ground_truth = _impl.pid_ground_truth
heat_accumulate = _impl.heat_accumulate
heat_add_scaled = _impl.heat_add_scaled
heat_decay = _impl.heat_decay
heat_compact = _impl.heat_compact
heat_min_live = _impl.heat_min_live
heat_gather = _impl.heat_gather
accumulate_unique = _impl.accumulate_unique
write_fractions = _impl.write_fractions
plan_span_stats = _impl.plan_span_stats
plan_segment_unique = _impl.plan_segment_unique
hot_slow_candidates = _impl.hot_slow_candidates

# Compile (or load the on-disk cache of) every numba kernel now, outside
# any timed region; a no-op on the numpy backend.
_impl.warmup()

__all__ = ["BACKEND", "REQUESTED", "NUMBA_ERROR", "VALID_MODES", "KERNEL_NAMES", *KERNEL_NAMES]

