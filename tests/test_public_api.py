"""The package's public API surface stays importable and coherent."""

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_top_level_exports():
    for name in repro.__all__:
        assert hasattr(repro, name), f"missing export {name}"


def test_policy_registry_exposed():
    assert "vulcan" in repro.POLICY_REGISTRY
    assert "memtis" in repro.POLICY_REGISTRY


def test_docstring_quickstart_runs():
    """The README/docstring snippet must actually work (short run)."""
    from repro.harness import ColocationExperiment
    from repro.sim.config import SimulationConfig
    from repro.workloads.mixes import paper_colocation_mix

    sim = SimulationConfig(epoch_seconds=2.0)
    exp = ColocationExperiment(
        "vulcan", paper_colocation_mix(sim, accesses_per_thread=500), sim=sim
    )
    result = exp.run(n_epochs=2)
    assert result.by_name("memcached").mean_ops() > 0


def test_subpackages_import_cleanly():
    import importlib

    for sub in ("core", "harness", "machine", "metrics", "mm", "policies", "profiling", "sim", "workloads"):
        pkg = importlib.import_module(f"repro.{sub}")
        # A name left in __all__ after its definition is gone breaks only
        # ``from repro.<sub> import *``; catch it here.
        for name in pkg.__all__:
            assert hasattr(pkg, name), f"repro.{sub}.__all__ names missing {name}"
