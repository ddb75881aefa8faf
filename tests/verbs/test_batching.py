"""Tests for doorbell batching (ibv_post_send's list form)."""

import numpy as np
import pytest

from repro.faults.plan import get_scenario
from repro.host import Cluster
from repro.rnic import cx5
from repro.verbs import (
    Opcode,
    QPState,
    QPStateError,
    QueueFullError,
    ResourceError,
    SendWR,
    WCStatus,
)


def make_conn(max_send_wr=16):
    cluster = Cluster(seed=0)
    server = cluster.add_host("server", spec=cx5())
    client = cluster.add_host("client", spec=cx5())
    conn = cluster.connect(client, server, max_send_wr=max_send_wr)
    mr = server.reg_mr(2 * 1024 * 1024)
    return cluster, conn, mr


def make_reads(conn, mr, count):
    return [
        SendWR(opcode=Opcode.RDMA_READ, local_addr=conn.local_mr.addr,
               length=64, remote_addr=mr.addr + 64 * i, rkey=mr.rkey)
        for i in range(count)
    ]


def test_batch_completes_all():
    cluster, conn, mr = make_conn()
    conn.qp.post_send_batch(make_reads(conn, mr, 8))
    wcs = conn.await_completions(8)
    assert all(wc.ok for wc in wcs)


def test_batch_atomic_rejection_posts_nothing():
    cluster, conn, mr = make_conn()
    wrs = make_reads(conn, mr, 3)
    wrs[1] = SendWR(opcode=Opcode.RDMA_READ, local_addr=conn.local_mr.addr,
                    length=64)  # missing remote_addr: invalid
    from repro.verbs import QPStateError

    with pytest.raises(QPStateError):
        conn.qp.post_send_batch(wrs)
    assert conn.qp.outstanding_send == 0


def test_batch_capacity_checked_up_front():
    cluster, conn, mr = make_conn(max_send_wr=4)
    with pytest.raises(QueueFullError):
        conn.qp.post_send_batch(make_reads(conn, mr, 5))
    assert conn.qp.outstanding_send == 0


def test_empty_batch_rejected():
    cluster, conn, mr = make_conn()
    with pytest.raises(ValueError):
        conn.qp.post_send_batch([])


def test_batching_amortizes_the_doorbell():
    """Posting N WQEs as a batch costs one doorbell; the last
    completion lands earlier than with N separate posts."""

    def total_time(batched):
        cluster, conn, mr = make_conn()
        wrs = make_reads(conn, mr, 8)
        if batched:
            conn.qp.post_send_batch(wrs)
        else:
            for wr in wrs:
                conn.qp.post_send(wr)
        conn.await_completions(8)
        return cluster.sim.now

    assert total_time(batched=True) < total_time(batched=False)


def test_queue_ahead_sequence_in_batch():
    cluster, conn, mr = make_conn()
    wrs = make_reads(conn, mr, 4)
    conn.qp.post_send_batch(wrs)
    assert [wr.queue_ahead for wr in wrs] == [0, 1, 2, 3]
    conn.await_completions(4)


# ----------------------------------------------------------------------
# Cohort behaviour on the per-WQE RNIC pipeline
# ----------------------------------------------------------------------
def make_pair(max_send_wr=64):
    cluster = Cluster(seed=0)
    server = cluster.add_host("server", spec=cx5())
    client = cluster.add_host("client", spec=cx5())
    conn = cluster.connect(client, server, max_send_wr=max_send_wr)
    mr = server.reg_mr(1 << 20)
    return cluster, server, client, conn, mr


def mixed_cohort(conn, mr, count=24):
    """READs, WRITEs and fetch-adds interleaved, each at its own remote
    address and with its own local buffer."""
    wrs = []
    for i in range(count):
        kind = i % 3
        if kind == 0:
            wrs.append(SendWR(
                opcode=Opcode.RDMA_READ, local_addr=conn.local_mr.addr,
                length=256, remote_addr=mr.addr + i * 64, rkey=mr.rkey,
                wr_id=100 + i))
        elif kind == 1:
            wrs.append(SendWR(
                opcode=Opcode.RDMA_WRITE,
                local_addr=conn.local_mr.addr + 1024, length=96, remote_addr=mr.addr + 4096 + i * 128,
                rkey=mr.rkey, wr_id=100 + i))
        else:
            wrs.append(SendWR(
                opcode=Opcode.ATOMIC_FETCH_ADD,
                local_addr=conn.local_mr.addr + 512,
                remote_addr=mr.addr + 8192 + i * 8, rkey=mr.rkey,
                compare_add=3, wr_id=100 + i))
    return wrs


def test_faulted_wqe_mid_batch_completes_with_access_error():
    """An out-of-bounds READ in the middle of a cohort is not a post-time
    error: it completes with ``REM_ACCESS_ERR``.  The WQEs that retire
    before it succeed; the error moves the QP to ERR, so everything
    still in flight is flushed.  Every WQE completes exactly once."""
    cluster, server, client, conn, mr = make_pair()
    wrs = [
        SendWR(opcode=Opcode.RDMA_READ, local_addr=conn.local_mr.addr,
               length=64, remote_addr=mr.addr + 64 * i, rkey=mr.rkey,
               wr_id=i)
        for i in range(12)
    ]
    wrs[5] = SendWR(opcode=Opcode.RDMA_READ, local_addr=conn.local_mr.addr,
                    length=64, remote_addr=mr.end - 8, rkey=mr.rkey,
                    wr_id=5)
    conn.qp.post_send_batch(wrs)
    cqes = conn.await_completions(12)
    assert sorted(c.wr_id for c in cqes) == list(range(12))
    statuses = [c.status for c in cqes]
    fault = statuses.index(WCStatus.REM_ACCESS_ERR)
    assert cqes[fault].wr_id == 5
    assert statuses.count(WCStatus.REM_ACCESS_ERR) == 1
    assert fault > 0
    assert all(s is WCStatus.SUCCESS for s in statuses[:fault])
    assert all(s is WCStatus.WR_FLUSH_ERR for s in statuses[fault + 1:])
    assert conn.qp.state is QPState.ERR
    assert conn.qp.outstanding_send == 0


@pytest.mark.parametrize("scenario",
                         ["bursty-loss", "pause-storm", "rnr-pressure"])
def test_cohorts_complete_under_fault_plans(scenario):
    """Loss (RC retransmission), PFC pause storms and RNR pressure on a
    neighbour slow cohorts down but never lose or fail a WQE."""
    cluster, server, client, conn, mr = make_pair()
    armed = get_scenario(scenario).install(cluster, server=server,
                                           endpoints=[client])
    cqes = []
    for _ in range(8):
        conn.post_read_batch(mr, [64 * i for i in range(32)])
        cqes.extend(conn.await_completions(32))
    armed.stop()
    assert len(cqes) == 256
    assert all(c.ok for c in cqes)
    # the plan really fired: some host saw a retransmission, an RNR NAK
    # or a pause window
    fired = sum(
        host.rnic.counters.retransmits + host.rnic.counters.rnr_naks
        + host.rnic.counters.pause_events
        for host in cluster.hosts.values())
    assert fired > 0


def test_mixed_opcode_cohort():
    """READ, WRITE and fetch-add in one cohort: every WQE completes and
    moves its bytes, and the per-QP accounting matches per-WQE posts."""
    cluster, server, client, conn, mr = make_pair()
    payload = bytes(range(96))
    client.memory.write(conn.local_mr.addr + 1024, payload)
    wrs = mixed_cohort(conn, mr)
    conn.qp.post_send_batch(wrs)
    cqes = conn.await_completions(24)
    assert sorted(c.wr_id for c in cqes) == [100 + i for i in range(24)]
    assert all(c.ok for c in cqes)
    for wr in wrs:
        if wr.opcode is Opcode.RDMA_WRITE:
            assert server.memory.read(wr.remote_addr, 96) == payload
        elif wr.opcode is Opcode.ATOMIC_FETCH_ADD:
            assert server.memory.read_u64(wr.remote_addr) == 3

    _, _, _, single, single_mr = make_pair()
    for wr in mixed_cohort(single, single_mr):
        single.qp.post_send(wr)
    single.await_completions(24)
    for field in ("total_posted", "bytes_posted", "opcode_counts",
                  "size_counts"):
        assert getattr(conn.qp, field) == getattr(single.qp, field)
    assert list(conn.qp.opcode_counts) == list(single.qp.opcode_counts)


def test_back_to_back_cohorts():
    """Cohorts posted one after another each retire fully; queue depth
    restarts per drained cohort while the station and translation
    history carries across them.  Two identical runs replay the same
    event stream."""

    def run():
        cluster, server, client, conn, mr = make_pair()
        cluster.sim.enable_tracing()
        done = []
        for r in range(6):
            offsets = [((r * 37 + i * 97) % 4096) * 8 for i in range(32)]
            wrs = conn.post_read_batch(mr, offsets)
            assert [wr.queue_ahead for wr in wrs] == list(range(32))
            cqes = conn.await_completions(32)
            assert all(c.ok for c in cqes)
            if done:
                assert min(c.post_time for c in cqes) >= max(
                    c.complete_time for c in done[-1])
            done.append(cqes)
        assert conn.qp.total_posted == 192
        assert server.rnic.translation.stats.requests == 192
        timings = [(c.wr_id, c.post_time, c.complete_time)
                   for cqes in done for c in cqes]
        return timings, cluster.sim.trace_digest

    assert run() == run()


def test_batch_behind_inflight_post():
    """A cohort posted while an earlier single WQE is still in flight
    queues behind it and completes normally."""
    cluster, server, client, conn, mr = make_pair()
    conn.post_read(mr, 0, 64)
    wrs = conn.post_read_batch(mr, [64 * i for i in range(16)])
    assert [wr.queue_ahead for wr in wrs] == list(range(1, 17))
    cqes = conn.await_completions(17)
    assert all(c.ok for c in cqes)
    assert conn.qp.outstanding_send == 0


def test_batch_validation_raises_at_the_first_bad_wqe():
    """Whole-list validation raises the exception the first bad WQE
    would raise on its own, and posts nothing."""
    cluster, conn, mr = make_conn()
    wrs = make_reads(conn, mr, 4)
    wrs[1] = SendWR(opcode=Opcode.RDMA_READ, local_addr=conn.local_mr.addr,
                    length=64, remote_addr=mr.addr, rkey=mr.rkey,
                    lkey=10_000)  # unknown lkey: ResourceError
    wrs[2] = SendWR(opcode=Opcode.RDMA_READ, local_addr=conn.local_mr.addr,
                    length=64)  # missing remote_addr: QPStateError
    with pytest.raises(ResourceError, match="lkey"):
        conn.qp.post_send_batch(wrs)
    with pytest.raises(QPStateError):
        conn.qp.post_send_batch(wrs[2:])
    assert conn.qp.outstanding_send == 0
    assert conn.qp.total_posted == 0
