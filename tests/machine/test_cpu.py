"""Core complex and IPI delivery."""

import pytest

from repro.machine.cpu import CpuComplex


def make_cpu(n: int = 8) -> CpuComplex:
    return CpuComplex(n_cores=n)


def test_cores_created():
    cpu = make_cpu(4)
    assert cpu.n_cores == 4
    assert [c.core_id for c in cpu.cores] == [0, 1, 2, 3]
    assert all(c.thread_id is None for c in cpu.cores)


def test_schedule_and_find_threads():
    cpu = make_cpu()
    cpu.schedule_thread(thread_id=7, core_id=2)
    cpu.schedule_thread(thread_id=8, core_id=5)
    running = cpu.cores_running({7, 8, 99})
    assert sorted(c.core_id for c in running) == [2, 5]


def test_park_core():
    cpu = make_cpu()
    cpu.schedule_thread(3, 1)
    cpu.core(1).schedule(None)
    assert cpu.cores_running({3}) == []


def test_ipi_cost_grows_with_targets():
    cpu = make_cpu()
    c1 = cpu.deliver_ipis([0])
    c4 = cpu.deliver_ipis([0, 1, 2, 3])
    assert c4 > c1
    assert cpu.ipi_stats.broadcasts == 2
    assert cpu.ipi_stats.unicast_targets == 5
    assert cpu.ipi_stats.cycles_spent == c1 + c4


def test_empty_ipi_free():
    cpu = make_cpu()
    assert cpu.deliver_ipis([]) == 0
    assert cpu.ipi_stats.broadcasts == 0


def test_zero_cores_rejected():
    with pytest.raises(ValueError):
        CpuComplex(n_cores=0)
