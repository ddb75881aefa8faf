"""Unit tests for the host memory model."""

import pytest

from repro.host import HostMemory
from repro.sim.units import MEBIBYTE


def test_alloc_returns_increasing_addresses():
    mem = HostMemory()
    a = mem.alloc(64)
    b = mem.alloc(64)
    assert b >= a + 64


def test_alloc_alignment():
    mem = HostMemory()
    mem.alloc(3)
    addr = mem.alloc(16, align=256)
    assert addr % 256 == 0


def test_alloc_huge_is_2mb_aligned():
    mem = HostMemory(size=16 * MEBIBYTE)
    addr = mem.alloc_huge(4096)
    assert addr % (2 * MEBIBYTE) == 0


def test_read_write_roundtrip():
    mem = HostMemory()
    addr = mem.alloc(16)
    mem.write(addr, b"ragnar-lodbrok!!")
    assert mem.read(addr, 16) == b"ragnar-lodbrok!!"


def test_u64_roundtrip():
    mem = HostMemory()
    addr = mem.alloc(8)
    mem.write_u64(addr, 0xDEADBEEFCAFEBABE)
    assert mem.read_u64(addr) == 0xDEADBEEFCAFEBABE


def test_u64_wraps_modulo_2_64():
    mem = HostMemory()
    addr = mem.alloc(8)
    mem.write_u64(addr, 2**64 + 5)
    assert mem.read_u64(addr) == 5


def test_fill():
    mem = HostMemory()
    addr = mem.alloc(32)
    mem.fill(addr, 32, 0xAB)
    assert mem.read(addr, 32) == bytes([0xAB]) * 32


def test_out_of_bounds_read_raises():
    mem = HostMemory(size=1024)
    with pytest.raises(IndexError):
        mem.read(mem.end - 4, 8)


def test_below_base_raises():
    mem = HostMemory()
    with pytest.raises(IndexError):
        mem.read(0, 1)


def test_exhaustion_raises():
    mem = HostMemory(size=1024)
    with pytest.raises(MemoryError):
        mem.alloc(2048)


def test_bad_alignment_rejected():
    mem = HostMemory()
    with pytest.raises(ValueError):
        mem.alloc(8, align=3)


def test_zero_length_alloc_rejected():
    mem = HostMemory()
    with pytest.raises(ValueError):
        mem.alloc(0)


def test_cluster_exit_releases_host_memory():
    """A discarded cluster is a reference cycle; leaving its ``with``
    block unmaps every host's pages instead of waiting for the GC."""
    from repro.host import Cluster

    with Cluster(seed=0) as cluster:
        host = cluster.add_host("h")
        addr = host.memory.alloc(8)
        host.memory.write(addr, b"resident")
        assert host.memory.read(addr, 8) == b"resident"
    with pytest.raises(ValueError):
        host.memory.read(addr, 8)
