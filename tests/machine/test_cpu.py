"""Core complex and IPI delivery."""

import numpy as np
import pytest

from repro.machine.cpu import CpuComplex


def make_cpu(n: int = 8) -> CpuComplex:
    return CpuComplex(n_cores=n)


def test_cores_created():
    cpu = make_cpu(4)
    assert cpu.n_cores == 4


def test_ipi_cost_grows_with_targets():
    cpu = make_cpu()
    c1, c4 = cpu.ipi_round_cycles(np.array([1, 4])).tolist()
    assert c4 > c1 == cpu.ipi_deliver_cycles
    cpu.deliver_ipi_rounds(np.array([1, 4]))
    assert cpu.ipi_stats.broadcasts == 2
    assert cpu.ipi_stats.unicast_targets == 5
    assert cpu.ipi_stats.cycles_spent == c1 + c4


def test_empty_ipi_free():
    cpu = make_cpu()
    assert cpu.ipi_round_cycles(np.array([0, 0])).tolist() == [0, 0]
    cpu.deliver_ipi_rounds(np.array([0, 0]))
    cpu.deliver_ipi_rounds(np.array([], dtype=np.int64))
    assert cpu.ipi_stats.broadcasts == 0
    assert cpu.ipi_stats.cycles_spent == 0


def test_zero_cores_rejected():
    with pytest.raises(ValueError):
        CpuComplex(n_cores=0)
