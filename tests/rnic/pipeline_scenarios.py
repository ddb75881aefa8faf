"""Fixed RNIC message-pipeline workloads, one per transport shape.

Each shape drives ``n`` WQEs through the per-message pipeline and runs
the simulator until every one of them has completed.  Together they
reach every pipeline stage: RC READ, WRITE, SEND and atomics, UC and
UD sends, a lossy link (``stage_retry``) and an empty receive queue
(``stage_rnr_nak``).  Shared by the GC guard and the dispatch-label
golden.
"""

import dataclasses

from repro.fabric import Link
from repro.host import Cluster
from repro.rnic import cx5
from repro.verbs import AddressHandle, Opcode, QPType, RecvWR, SendWR
from repro.verbs.qp import QPCapabilities

#: WQEs posted per doorbell burst before the burst is run to completion.
BURST = 8


def _run_until(cluster, cq, count):
    """Step the simulator until ``cq`` holds ``count`` CQEs."""
    sim = cluster.sim
    while len(cq) < count:
        if not sim.step():
            raise AssertionError(f"ran dry with {len(cq)}/{count} CQEs")
    return cq.poll(count)


def _rc_one_sided(opcode, loss=0.0):
    def drive(cluster, tag, n):
        spec = dataclasses.replace(cx5(), retry_count=20)
        server = cluster.add_host(f"{tag}.server", spec=spec)
        client = cluster.add_host(f"{tag}.client", spec=spec,
                                  link=Link(loss_probability=loss))
        conn = cluster.connect(client, server, max_send_wr=BURST)
        mr = server.reg_mr(64 * 1024)
        posted = 0
        while posted < n:
            burst = min(BURST, n - posted)
            for i in range(burst):
                offset = 64 * ((posted + i) % 512)
                if opcode is Opcode.RDMA_READ:
                    conn.post_read(mr, offset, 64)
                elif opcode is Opcode.RDMA_WRITE:
                    conn.post_write(mr, offset, 64)
                else:
                    conn.post_atomic(mr, offset, fetch_add=1)
            wcs = _run_until(cluster, conn.cq, burst)
            assert all(wc.ok for wc in wcs)
            posted += burst
    return drive


def _connected_send(qp_type, late_recv=False):
    def drive(cluster, tag, n):
        server = cluster.add_host(f"{tag}.server", spec=cx5())
        client = cluster.add_host(f"{tag}.client", spec=cx5())
        cap = QPCapabilities(max_send_wr=BURST, max_recv_wr=BURST)
        client_cq = client.context.create_cq()
        server_cq = server.context.create_cq()
        qp_c = client.context.create_qp(client.pd, client_cq,
                                        qp_type=qp_type, cap=cap)
        qp_s = server.context.create_qp(server.pd, server_cq,
                                        qp_type=qp_type, cap=cap)
        qp_c.connect(qp_s)
        send_mr = client.reg_mr(4096)
        recv_mr = server.reg_mr(4096)
        sim = cluster.sim
        backoff = 1.5 * cx5().min_rnr_timer_ns
        burst_size = 1 if late_recv else BURST
        posted = 0
        while posted < n:
            burst = min(burst_size, n - posted)
            for _ in range(burst):
                recv = RecvWR(local_addr=recv_mr.addr, length=64)
                if late_recv:
                    # the SEND meets an empty RQ and rides the RNR NAK
                    # backoff until this buffer arrives
                    sim.schedule(backoff, qp_s.post_recv, recv)
                else:
                    qp_s.post_recv(recv)
                qp_c.post_send(SendWR(opcode=Opcode.SEND,
                                      local_addr=send_mr.addr, length=64))
            wcs = _run_until(cluster, client_cq, burst)
            assert all(wc.ok for wc in wcs)
            # a UC SEND completes locally at send time: let its remote
            # half land before the next burst reposts receive buffers
            cluster.run_for(50_000)
            posted += burst
        server_cq.poll(2 * n)
    return drive


def _ud_send(cluster, tag, n):
    endpoints = []
    for side in ("tx", "rx"):
        host = cluster.add_host(f"{tag}.{side}", spec=cx5())
        cq = host.context.create_cq()
        qp = host.context.create_qp(
            host.pd, cq, qp_type=QPType.UD,
            cap=QPCapabilities(max_send_wr=BURST, max_recv_wr=BURST))
        qp.ready()
        endpoints.append((qp, cq, host.reg_mr(4096)))
    (tx_qp, tx_cq, tx_mr), (rx_qp, rx_cq, rx_mr) = endpoints
    ah = AddressHandle(remote_qp=rx_qp)
    posted = 0
    while posted < n:
        burst = min(BURST, n - posted)
        for _ in range(burst):
            rx_qp.post_recv(RecvWR(local_addr=rx_mr.addr, length=256))
            tx_qp.post_send(SendWR(opcode=Opcode.SEND,
                                   local_addr=tx_mr.addr, length=64, ah=ah))
        wcs = _run_until(cluster, tx_cq, burst)
        assert all(wc.ok for wc in wcs)
        cluster.run_for(50_000)
        posted += burst
    rx_cq.poll(2 * n)


#: Shape name -> ``drive(cluster, tag, n)``.
SHAPES = {
    "rc_read": _rc_one_sided(Opcode.RDMA_READ),
    "rc_write": _rc_one_sided(Opcode.RDMA_WRITE),
    "rc_atomic": _rc_one_sided(Opcode.ATOMIC_FETCH_ADD),
    "rc_send": _connected_send(QPType.RC),
    "rc_send_rnr": _connected_send(QPType.RC, late_recv=True),
    "uc_send": _connected_send(QPType.UC),
    "ud_send": _ud_send,
    "rc_read_lossy": _rc_one_sided(Opcode.RDMA_READ, loss=0.15),
}
