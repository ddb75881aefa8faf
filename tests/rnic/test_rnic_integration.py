"""Integration tests: the full RNIC pipeline through the cluster."""

import numpy as np
import pytest

from repro.host import Cluster
from repro.rnic import FluidFlow, cx4, cx5, cx6
from repro.sim.units import MILLISECONDS
from repro.verbs.enums import Opcode


def small_cluster(spec_factory=cx5, seed=0, max_send_wr=16):
    cluster = Cluster(seed=seed)
    server = cluster.add_host("server", spec=spec_factory())
    client = cluster.add_host("client", spec=spec_factory())
    conn = cluster.connect(client, server, max_send_wr=max_send_wr)
    mr = server.reg_mr(2 * 1024 * 1024)
    return cluster, server, client, conn, mr


class TestPipelineLatency:
    def test_read_latency_is_microseconds(self):
        _, _, _, conn, mr = small_cluster()
        wc = conn.read_blocking(mr, 0, 64)
        assert wc.ok
        # a small read over one switch should be a few microseconds
        assert 1_000 < wc.latency < 20_000

    def test_larger_reads_take_longer(self):
        _, _, _, conn, mr = small_cluster()
        small = conn.read_blocking(mr, 0, 64).latency
        large = conn.read_blocking(mr, 0, 65536).latency
        assert large > small

    def test_devices_ordered_by_speed(self):
        latencies = {}
        for factory in (cx4, cx5, cx6):
            _, _, _, conn, mr = small_cluster(spec_factory=factory)
            # average a few to smooth jitter
            lats = [conn.read_blocking(mr, 64 * i, 64).latency for i in range(10)]
            latencies[factory().name] = np.mean(lats)
        assert latencies["CX-4"] > latencies["CX-5"] > latencies["CX-6"]

    def test_write_completes_and_moves_data(self):
        cluster, server, client, conn, mr = small_cluster()
        client.memory.write(conn.local_mr.addr, b"paper-reproduction")
        conn.post_write(mr, 128, 18)
        wcs = conn.await_completions(1)
        assert wcs[0].ok
        assert server.memory.read(mr.addr + 128, 18) == b"paper-reproduction"

    def test_atomic_through_pipeline(self):
        cluster, server, client, conn, mr = small_cluster()
        server.memory.write_u64(mr.addr, 10)
        conn.post_atomic(mr, 0, fetch_add=5)
        wcs = conn.await_completions(1)
        assert wcs[0].ok
        assert server.memory.read_u64(mr.addr) == 15


class TestULIBehaviour:
    def test_uli_converges_at_depth(self):
        """Lat_total grows ~linearly with queue depth once the queue is
        the bottleneck (the footnote-7 argument)."""
        means = {}
        for depth in (8, 16, 32):
            _, _, _, conn, mr = small_cluster(max_send_wr=depth)
            for _ in range(depth):
                conn.post_read(mr, 0, 64)
            lats = []
            for i in range(150):
                wc = conn.await_completions(1)[0]
                if i >= 50:
                    lats.append(wc.latency)
                conn.post_read(mr, 0, 64)
            means[depth] = np.mean(lats)
        # doubling the depth should roughly double the latency
        assert 1.6 < means[16] / means[8] < 2.4
        assert 1.6 < means[32] / means[16] < 2.4

    def test_contending_client_raises_uli(self):
        """Two clients on one server: the probe's ULI rises when the
        other client starts hammering the translation unit."""
        cluster = Cluster(seed=5)
        server = cluster.add_host("server", spec=cx5())
        probe_host = cluster.add_host("probe", spec=cx5())
        bully_host = cluster.add_host("bully", spec=cx5())
        probe_conn = cluster.connect(probe_host, server, max_send_wr=8)
        bully_conn = cluster.connect(bully_host, server, max_send_wr=32)
        mr = server.reg_mr(2 * 1024 * 1024)

        def measure(n=100):
            out = []
            while probe_conn.qp.outstanding_send < 8:
                probe_conn.post_read(mr, 0, 64)
            for _ in range(n):
                wc = probe_conn.await_completions(1)[0]
                out.append(wc.unit_latency_increase)
                probe_conn.post_read(mr, 0, 64)
            return np.mean(out[20:])

        quiet = measure()
        # bully saturates its queue with reads to scattered offsets
        for i in range(32):
            bully_conn.post_read(mr, (i * 192) % (1024 * 1024), 256)
        bully_running = True

        def keep_bullying():
            nonlocal bully_running
            while bully_conn.cq.poll(16):
                pass
            # re-arm
            while bully_conn.qp.outstanding_send < 32 and bully_running:
                bully_conn.post_read(mr, np.random.randint(0, 1024) * 256, 256)
            if bully_running:
                cluster.sim.schedule(5000.0, keep_bullying)

        cluster.sim.schedule(0.0, keep_bullying)
        loud = measure()
        bully_running = False
        assert loud > 1.3 * quiet


class TestCounters:
    def test_counters_accumulate(self):
        cluster, server, client, conn, mr = small_cluster()
        before = client.rnic.counters.snapshot()
        for _ in range(10):
            conn.read_blocking(mr, 0, 1024)
        after = client.rnic.counters.snapshot()
        assert after["tx_packets"] - before["tx_packets"] >= 10
        assert after["rx_bytes"] - before["rx_bytes"] >= 10 * 1024
        assert after["op_rdma_read"] == 10

    def test_traffic_class_attribution(self):
        cluster = Cluster(seed=1)
        server = cluster.add_host("server", spec=cx5())
        client = cluster.add_host("client", spec=cx5())
        conn = cluster.connect(client, server, traffic_class=3)
        mr = server.reg_mr(4096)
        conn.read_blocking(mr, 0, 64)
        snap = client.rnic.counters.snapshot()
        assert snap["tx_prio3_packets"] > 0
        assert snap["tx_prio0_packets"] == 0

    def test_directions_mirror_across_the_wire(self):
        """Every frame one NIC sends, its peer receives: the requester's
        tx matches the responder's rx and vice versa, per class too."""
        cluster = Cluster(seed=2)
        server = cluster.add_host("server", spec=cx5())
        client = cluster.add_host("client", spec=cx5())
        conn = cluster.connect(client, server, traffic_class=5)
        mr = server.reg_mr(64 * 1024)
        for i in range(6):
            conn.post_read(mr, 512 * i, 8192)
            conn.post_write(mr, 512 * i, 100)
        conn.await_completions(12)
        tx, rx = client.rnic.counters, server.rnic.counters
        for sent, got in ((tx.tx, rx.rx), (rx.tx, tx.rx),
                          (tx.tx_per_tc[5], rx.rx_per_tc[5]),
                          (rx.tx_per_tc[5], tx.rx_per_tc[5])):
            assert (sent.bytes, sent.packets) == (got.bytes, got.packets)
        assert tx.tx.packets == 12 and tx.tx_per_tc[5].bytes == tx.tx.bytes
        assert tx.rx.bytes > 6 * 8192
        assert dict(tx.per_opcode) == {Opcode.RDMA_READ: 6,
                                       Opcode.RDMA_WRITE: 6}

    @pytest.mark.parametrize("tc", [-1, 8])
    def test_bad_traffic_class_rejected_at_qp_creation(self, tc):
        cluster = Cluster(seed=1)
        host = cluster.add_host("h", spec=cx5())
        cq = host.context.create_cq()
        with pytest.raises(ValueError,
                           match=rf"traffic class {tc} out of range 0\.\.7"):
            host.context.create_qp(host.pd, cq, traffic_class=tc)
        assert host.pd.qps == []


class TestFluidIntegration:
    def test_fluid_flow_inflates_probe_latency(self):
        cluster, server, client, conn, mr = small_cluster()

        def mean_latency(n=20):
            # aligned targets in one warm segment; average out jitter
            return np.mean([
                conn.read_blocking(mr, 64 * (i % 8), 64).latency
                for i in range(n)
            ])

        mean_latency(5)  # warm the MPT/MTT caches
        base = mean_latency()
        flow = FluidFlow(opcode=Opcode.RDMA_WRITE, msg_size=65536, qp_num=16)
        server.rnic.add_fluid_flow(flow)
        loaded = mean_latency()
        server.rnic.remove_fluid_flow(flow)
        recovered = mean_latency()
        assert loaded > 1.05 * base
        assert recovered < loaded

    def test_fluid_bandwidth_query(self):
        cluster, server, _, _, _ = small_cluster()
        flow = FluidFlow(opcode=Opcode.RDMA_READ, msg_size=4096, qp_num=8)
        server.rnic.add_fluid_flow(flow)
        bw = server.rnic.fluid_bandwidth(flow)
        assert bw > 0
        server.rnic.remove_fluid_flow(flow)
        with pytest.raises(ValueError):
            server.rnic.fluid_bandwidth(flow)

    def test_duplicate_flow_rejected(self):
        cluster, server, _, _, _ = small_cluster()
        flow = FluidFlow(opcode=Opcode.RDMA_READ, msg_size=4096)
        server.rnic.add_fluid_flow(flow)
        with pytest.raises(ValueError):
            server.rnic.add_fluid_flow(flow)


class TestFabric:
    def test_transit_time_between_hosts(self):
        cluster, server, client, _, _ = small_cluster()
        transit = cluster.network.transit_ns(client.rnic, server.rnic)
        spec = client.rnic.spec
        assert transit == pytest.approx(2 * 200.0 + 300.0)

    def test_loopback_is_free(self):
        cluster, server, _, _, _ = small_cluster()
        assert cluster.network.transit_ns(server.rnic, server.rnic) == 0.0

    def test_unattached_endpoint_rejected(self):
        cluster, server, _, _, _ = small_cluster()
        with pytest.raises(KeyError):
            cluster.network.transit_ns(server.rnic, object())
