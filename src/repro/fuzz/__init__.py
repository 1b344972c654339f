"""Property-based scenario fuzzing (DESIGN.md §fuzz).

Submodules:

* :mod:`~repro.fuzz.oracle` — the shared invariant battery (also used
  by the scenario engine's teardown and ``--check`` paths);
* :mod:`~repro.fuzz.strategies` — seeded generation of arbitrary
  *valid* :class:`~repro.scenario.spec.ScenarioSpec` timelines plus
  machine/policy configs (hypothesis wrapper when available);
* :mod:`~repro.fuzz.runner` — the one campaign driver behind
  ``repro fuzz`` and ``repro fuzz --fleet`` (determinism replay,
  crasher replay), with one :class:`~repro.fuzz.runner.CaseKind` per
  kind of case;
* :mod:`~repro.fuzz.shrink` — greedy timeline minimization holding the
  failing check fixed;
* :mod:`~repro.fuzz.promote` — content-hashed crasher files under
  ``tests/golden/fuzz_regressions/`` the tier-1 suite replays.

Only the oracle is re-exported here: the scenario engine imports it at
module level, so pulling the runner (which imports the engine) into
package init would create a cycle.
"""

from repro.fuzz.oracle import InvariantOracle, InvariantViolation

__all__ = ["InvariantOracle", "InvariantViolation"]
