"""The composed RNIC: a verbs engine backed by the Figure 3 datapath.

Every posted WQE traverses a chain of discrete-event stages:

requester side                      responder side
--------------                      --------------
1. doorbell (MMIO)                  5. RxPU parse
2. PCIe DMA: WQE fetch + payload    6. Translation & Protection Unit
3. TxPU processing                  7. PCIe DMA to/from host memory
4. wire serialization  --------->   8. response via TxPU (Tx arbiter)
                                    9. wire serialization
10. RxPU + CQE DMA     <---------
11. completion (CQE into the CQ)

Stages 5–8 run on the *responder's* stations, which both clients of a
server share — that shared occupancy is the volatile channel.  Bulk
fluid flows (see :mod:`repro.rnic.bandwidth`) additionally load the
stations via background utilization.

Each posted WQE is one slotted :class:`_Wqe` record whose stage methods
the kernel fires as bound methods: no per-message closures, so a
finished message leaves no reference cycle behind.  The stages keep
their historical dispatch labels (``RNIC.post_send.<locals>.stage_*``),
which trace artifacts and determinism digests carry.  NIC counters are
bumped inline in the wire and receive stages; the traffic class they
index is validated once, when the QP is created.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.fabric.network import Link, Network
from repro.obs import runtime as _obs
from repro.rnic.bandwidth import BandwidthAllocator, FluidFlow
from repro.rnic.counters import NICCounters
from repro.rnic.spec import RNICSpec, cx5
from repro.rnic.station import ServiceStation
from repro.rnic.translation import TranslationUnit
from repro.sim.kernel import Simulator
from repro.sim.units import SECONDS, bytes_to_bits
from repro.verbs.engine import Engine, execute_data_movement, resolve_remote_qp
from repro.verbs.enums import WCStatus
from repro.verbs.errors import RemoteAccessError
from repro.verbs.wr import SendWR

if TYPE_CHECKING:  # pragma: no cover
    from repro.verbs.qp import QueuePair

#: RoCE path MTU used to split large messages into packets.
MTU = 4096


class RNIC(Engine):
    """One simulated RNIC, usable as a verbs engine."""

    def __init__(
        self,
        sim: Simulator,
        spec: Optional[RNICSpec] = None,
        name: str = "rnic0",
        network: Optional[Network] = None,
        link: Optional["Link"] = None,
    ) -> None:
        self.sim = sim
        self.spec = spec if spec is not None else cx5()
        self.name = name
        self.network = network
        if network is not None:
            network.attach(self, link)
        rng = sim.random.stream(f"tpu.{name}")
        self.translation = TranslationUnit(self.spec, rng=rng)
        # stream handles are cached: (seed, name) fully determines each
        # sequence, so grabbing them eagerly changes nothing — but the
        # per-frame f-string + registry lookup was visible in profiles
        self._loss_rng = sim.random.stream(f"loss.{name}")
        self._ddio_rng = sim.random.stream(f"ddio.{name}")
        self.pcie = ServiceStation(f"{name}.pcie")
        self.txpu = ServiceStation(f"{name}.txpu")
        self.rxpu = ServiceStation(f"{name}.rxpu")
        self.wire_tx = ServiceStation(f"{name}.wire_tx")
        self.counters = NICCounters()
        self.allocator = BandwidthAllocator(self.spec)
        self._fluid_flows: dict[int, FluidFlow] = {}
        self._fluid_alloc: dict[int, float] = {}
        # observability: None unless an obs session with tracing was
        # installed before this RNIC was built (the experiments CLI
        # installs it before the experiment constructs its cluster);
        # every stage emission below is guarded by one `is not None`
        self._obs = _obs.tracer_for(sim)
        self._component = f"rnic.{name}"
        self._wqe_seq = 0
        _obs.register_rnic(self)

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def _transit_ns(self, dst: "RNIC") -> float:
        if self.network is None or dst is self:
            return 0.0
        return (self.network.transit_ns(self, dst)
                + self.network.path_extra_ns(self, dst, self.sim.now))

    def _frame_lost(self, src: "RNIC", dst: "RNIC") -> bool:
        """One frame's fate on the ``src -> dst`` path right now —
        static link loss plus any installed dynamic fault process."""
        if self.network is None or src is dst:
            return False
        return self.network.frame_lost(src, dst, self.sim.now, self._loss_rng)

    def post_send_batch(self, qp: "QueuePair", wrs: list[SendWR]) -> None:
        """Doorbell batching: one MMIO doorbell launches the whole WQE
        list; every WQE then runs the per-message pipeline below."""
        for index, wr in enumerate(wrs):
            self.post_send(qp, wr, _ring_doorbell=(index == 0))

    def post_send(self, qp: "QueuePair", wr: SendWR,
                  _ring_doorbell: bool = True) -> None:
        """Launch the WQE through the discrete pipeline."""
        sim = self.sim
        wr.post_time = sim.now
        remote_qp = resolve_remote_qp(qp, wr)
        responder = remote_qp.context.engine
        if not isinstance(responder, RNIC):
            raise TypeError(
                "remote QP's context is not backed by an RNIC engine"
            )
        w = _Wqe(self, responder, qp, remote_qp, wr)
        sim.schedule(self.spec.doorbell_ns if _ring_doorbell else 0.0,
                     w.stage_fetch)

    # ------------------------------------------------------------------
    # Fluid-flow layer
    # ------------------------------------------------------------------
    @property
    def fluid_flows(self) -> list[FluidFlow]:
        return list(self._fluid_flows.values())

    def add_fluid_flow(self, flow: FluidFlow) -> None:
        """Register a bulk flow contending on this NIC."""
        if flow.flow_id in self._fluid_flows:
            raise ValueError(f"flow {flow.flow_id} already registered")
        self._fluid_flows[flow.flow_id] = flow
        self._reallocate()

    def remove_fluid_flow(self, flow: FluidFlow) -> None:
        if flow.flow_id not in self._fluid_flows:
            raise ValueError(f"flow {flow.flow_id} not registered")
        del self._fluid_flows[flow.flow_id]
        self._reallocate()

    def update_fluid_flow(self, flow: FluidFlow) -> None:
        """Recompute allocations after a registered flow's parameters
        changed in place (e.g. a policer capped its demand)."""
        if flow.flow_id not in self._fluid_flows:
            raise ValueError(f"flow {flow.flow_id} not registered")
        self._reallocate()

    def configure_ets(self, weights: Optional[dict[int, float]]) -> None:
        """Apply an ETS (DWRR) configuration — the ``mlnx_qos`` call of
        the paper's setup.  ``None`` removes the configuration."""
        self.allocator = BandwidthAllocator(self.spec, ets_weights=weights)
        if self._fluid_flows:
            self._reallocate()

    def fluid_bandwidth(self, flow: FluidFlow) -> float:
        """Currently allocated goodput of a registered flow (bps)."""
        try:
            return self._fluid_alloc[flow.flow_id]
        except KeyError:
            raise ValueError(f"flow {flow.flow_id} not registered") from None

    def _reallocate(self) -> None:
        flows = list(self._fluid_flows.values())
        self._fluid_alloc = self.allocator.allocate(flows)
        util = self.allocator.utilizations(flows) if flows else {
            "pcie": 0.0, "wire": 0.0, "pu": 0.0, "translation": 0.0,
        }
        self.pcie.set_background_utilization(util["pcie"])
        self.wire_tx.set_background_utilization(util["wire"])
        self.rxpu.set_background_utilization(util["pu"])
        self.txpu.set_background_utilization(util["pu"])

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RNIC {self.name} spec={self.spec.name}>"


class _Wqe:
    """One posted WQE on its walk through the pipeline stages.

    The record holds everything the message needs from post to
    completion; each stage is a method that the kernel fires as a bound
    method and that schedules the next one.  The event queue is then
    the only holder of the record, so a finished message is freed by
    reference counting and leaves no cycle for the garbage collector.

    Reliability state: RC retries on frame loss; the responder's
    duplicate detection makes re-executed operations idempotent
    (crucial for atomics), modelled by caching the first execution's
    status.  The ACK-timeout budget (``retry_count``) and the RNR
    budget (``rnr_retry``) are separate, as in ``ibv_modify_qp``.
    """

    __slots__ = (
        "nic", "responder", "sim", "qp", "wr", "tc", "unacked",
        "req_nbytes", "req_wire_ns", "resp_nbytes", "resp_wire_ns",
        "fetch_occupancy", "obs", "robs", "wqe", "mr_key", "offset",
        "attempts", "rnr_attempts", "executed_status",
    )

    def __init__(self, nic: RNIC, responder: RNIC, qp: "QueuePair",
                 remote_qp: "QueuePair", wr: SendWR) -> None:
        self.nic = nic
        self.responder = responder
        self.sim = sim = nic.sim
        self.qp = qp
        self.wr = wr
        self.tc = qp.traffic_class
        opcode = wr.opcode
        # unreliable transports are fire-and-forget unless the
        # response itself carries the payload
        self.unacked = (not qp.qp_type.acks_requests
                        and not opcode.response_carries_payload)
        # wire geometry is fixed per message: computed once here
        spec = nic.spec
        rspec = responder.spec
        request_payload = wr.wire_request_bytes
        response_payload = wr.wire_response_bytes
        req_npkt = max(1, (request_payload + MTU - 1) // MTU)
        self.req_nbytes = req_nbytes = (
            request_payload + req_npkt * spec.header_bytes)
        self.req_wire_ns = (
            bytes_to_bits(req_nbytes) * SECONDS / spec.line_rate_bps)
        resp_npkt = max(1, (response_payload + MTU - 1) // MTU)
        self.resp_nbytes = resp_nbytes = (
            response_payload + resp_npkt * rspec.header_bytes)
        self.resp_wire_ns = (
            bytes_to_bits(resp_nbytes) * SECONDS / rspec.line_rate_bps)
        self.fetch_occupancy = spec.pcie.dma_occupancy_ns(64 + request_payload)

        self.obs = obs = nic._obs
        self.robs = responder._obs
        self.wqe = 0
        if obs is not None:
            nic._wqe_seq += 1
            self.wqe = nic._wqe_seq
            obs.instant(f"{nic.name}.post", category="rnic",
                        component=nic._component, ts=sim.now, wqe=self.wqe,
                        opcode=opcode.name, length=wr.length)

        # resolve the remote MR geometry once; protection is enforced by
        # execute_data_movement at the data stage
        self.mr_key = wr.rkey
        self.offset = 0
        if opcode.is_one_sided:
            try:
                mr = remote_qp.context.mr_by_rkey(wr.rkey)
                self.offset = wr.remote_addr - mr.addr
            except RemoteAccessError:
                pass
        self.attempts = 0
        self.rnr_attempts = 0
        self.executed_status: Optional[WCStatus] = None

    def stage_retry(self) -> None:
        wr = self.wr
        if wr.flushed:
            return
        self.attempts += 1
        nic = self.nic
        if self.attempts > nic.spec.retry_count:
            self.qp.complete_send(wr, WCStatus.RETRY_EXC_ERR, self.sim.now)
            return
        counters = nic.counters
        counters.retransmits += 1
        counters.timeouts += 1
        self.stage_fetch()

    def stage_fetch(self) -> None:
        wr = self.wr
        if wr.flushed:
            return
        # WQE fetch (64 B) plus gather of any request payload: the DMA
        # engine is occupied for the transfer, and the message
        # additionally waits out the fixed TLP round-trip latency.
        # Congestion from bulk flows stretches both: the engine by the
        # M/G/1 inflation, the round trip by queueing at the root
        # complex (modelled as 1 + utilization).
        #
        # Inline posts are the classic fast path: the CPU writes
        # WQE+payload through MMIO (a posted write), so there is no DMA
        # read round trip at all.
        nic = self.nic
        sim = self.sim
        now = sim.now
        pcie = nic.pcie
        finish = pcie.admit(now, self.fetch_occupancy)
        obs = self.obs
        if obs is not None:
            obs.span("pcie.fetch", now, finish - now, category="rnic",
                     component=nic._component, wqe=self.wqe)
        if wr.inline:
            sim.schedule_at(finish, self.stage_txpu)
            return
        congestion = 1.0 + pcie.background_utilization
        round_trip = nic.spec.pcie.tlp_latency_ns * congestion
        sim.schedule_at(finish + round_trip, self.stage_txpu)

    def stage_txpu(self) -> None:
        nic = self.nic
        sim = self.sim
        now = sim.now
        finish = nic.txpu.admit(now, nic.spec.txpu_ns)
        obs = self.obs
        if obs is not None:
            obs.span("txpu", now, finish - now, category="rnic",
                     component=nic._component, wqe=self.wqe)
        sim.schedule_at(finish, self.stage_wire_out)

    def stage_wire_out(self) -> None:
        nic = self.nic
        sim = self.sim
        now = sim.now
        nbytes = self.req_nbytes
        finish = nic.wire_tx.admit(now, self.req_wire_ns)
        obs = self.obs
        if obs is not None:
            obs.span("wire.request", now, finish - now, category="rnic",
                     component=nic._component, wqe=self.wqe, nbytes=nbytes)
        counters = nic.counters
        total = counters.tx
        total.bytes += nbytes
        total.packets += 1
        per_tc = counters.tx_per_tc[self.tc]
        per_tc.bytes += nbytes
        per_tc.packets += 1
        counters.per_opcode[self.wr.opcode] += 1
        responder = self.responder
        if self.unacked:
            # the local completion fires at send time; a lost frame
            # silently drops the remote effect
            sim.schedule_at(finish, self.stage_complete, WCStatus.SUCCESS)
            if nic._frame_lost(nic, responder):
                return
            sim.schedule_at(finish + nic._transit_ns(responder),
                            self.stage_responder_rx)
            return
        if nic._frame_lost(nic, responder):
            # request frame lost: the RC retransmission timer fires
            sim.schedule_at(finish + nic.spec.retry_timeout_ns,
                            self.stage_retry)
            return
        sim.schedule_at(finish + nic._transit_ns(responder),
                        self.stage_responder_rx)

    def stage_responder_rx(self) -> None:
        responder = self.responder
        nbytes = self.req_nbytes
        counters = responder.counters
        total = counters.rx
        total.bytes += nbytes
        total.packets += 1
        per_tc = counters.rx_per_tc[self.tc]
        per_tc.bytes += nbytes
        per_tc.packets += 1
        sim = self.sim
        now = sim.now
        finish = responder.rxpu.admit(now, responder.spec.rxpu_ns)
        robs = self.robs
        if robs is not None:
            robs.span("rxpu", now, finish - now, category="rnic",
                      component=responder._component, wqe=self.wqe)
        sim.schedule_at(finish, self.stage_translate)

    def stage_translate(self) -> None:
        sim = self.sim
        now = sim.now
        wr = self.wr
        if wr.opcode.is_one_sided:
            responder = self.responder
            finish, _ = responder.translation.admit(
                now, self.mr_key, self.offset, wr.length
            )
            robs = self.robs
            if robs is not None:
                robs.span("translate", now, finish - now, category="rnic",
                          component=responder._component, wqe=self.wqe)
        else:
            finish = now
        sim.schedule_at(finish, self.stage_data)

    def stage_rnr_nak(self, nak_arrival: float) -> None:
        """Responder answered Receiver-Not-Ready: back off
        min_rnr_timer and resend, on the separate rnr_retry budget."""
        self.rnr_attempts += 1
        nic = self.nic
        spec = nic.spec
        counters = nic.counters
        counters.rnr_naks += 1
        if self.rnr_attempts > spec.rnr_retry:
            self.sim.schedule_at(nak_arrival, self.stage_complete,
                                 WCStatus.RNR_RETRY_EXC_ERR)
            return
        counters.retransmits += 1
        self.sim.schedule_at(nak_arrival + spec.min_rnr_timer_ns,
                             self.stage_fetch)

    def stage_data(self) -> None:
        wr = self.wr
        if wr.flushed:
            return
        sim = self.sim
        responder = self.responder
        rspec = responder.spec
        status = self.executed_status
        if status is None:
            qp = self.qp
            status = execute_data_movement(qp, wr)
            if (status is WCStatus.RNR_RETRY_EXC_ERR
                    and qp.qp_type.acks_requests):
                # the RNR NAK rides the responder's TxPU and the return
                # path like any response frame (NAK loss is not
                # modelled: a lost NAK would fall back to the slower
                # ACK-timeout retry, same outcome later)
                finish = responder.txpu.admit(sim.now, rspec.txpu_ns)
                self.stage_rnr_nak(finish + responder._transit_ns(self.nic))
                return
            self.executed_status = status
        opcode = wr.opcode
        if opcode.is_atomic:
            dma_bytes = 16  # 8 B read + 8 B write
        else:
            dma_bytes = wr.length
        pcie = rspec.pcie
        now = sim.now
        finish = responder.pcie.admit(now, pcie.dma_occupancy_ns(dma_bytes))
        robs = self.robs
        if robs is not None:
            robs.span("pcie.data", now, finish - now, category="rnic",
                      component=responder._component, wqe=self.wqe,
                      nbytes=dma_bytes)
        # host-read DMAs (read/atomic responses) wait the TLP round
        # trip — stretched by congestion; posted writes complete at
        # the engine
        if opcode.response_carries_payload or opcode.is_atomic:
            round_trip = pcie.tlp_latency_ns * (
                1.0 + responder.pcie.background_utilization
            )
            if rspec.ddio_enabled:
                # DMA from the LLC when resident, bimodal otherwise
                if responder._ddio_rng.random() < rspec.ddio_hit_rate:
                    round_trip -= rspec.ddio_saving_ns
                else:
                    round_trip += rspec.ddio_miss_penalty_ns
            finish += round_trip
        if self.unacked:
            # no response flow: the local completion already fired at
            # send time
            return
        sim.schedule_at(finish, self.stage_response, status)

    def stage_response(self, status: WCStatus) -> None:
        responder = self.responder
        sim = self.sim
        now = sim.now
        finish = responder.txpu.admit(now, responder.spec.txpu_ns)
        robs = self.robs
        if robs is not None:
            robs.span("txpu.response", now, finish - now, category="rnic",
                      component=responder._component, wqe=self.wqe)
        sim.schedule_at(finish, self.stage_wire_back, status)

    def stage_wire_back(self, status: WCStatus) -> None:
        nic = self.nic
        responder = self.responder
        sim = self.sim
        now = sim.now
        nbytes = self.resp_nbytes
        finish = responder.wire_tx.admit(now, self.resp_wire_ns)
        robs = self.robs
        if robs is not None:
            robs.span("wire.response", now, finish - now, category="rnic",
                      component=responder._component, wqe=self.wqe,
                      nbytes=nbytes)
        counters = responder.counters
        total = counters.tx
        total.bytes += nbytes
        total.packets += 1
        per_tc = counters.tx_per_tc[self.tc]
        per_tc.bytes += nbytes
        per_tc.packets += 1
        if nic._frame_lost(responder, nic):
            # ACK/response frame lost: the requester times out and
            # resends; the responder's replay cache answers without
            # re-executing
            sim.schedule_at(finish + nic.spec.retry_timeout_ns,
                            self.stage_retry)
            return
        sim.schedule_at(finish + responder._transit_ns(nic),
                        self.stage_requester_rx, status)

    def stage_requester_rx(self, status: WCStatus) -> None:
        # the frames on the wire were built by the *responder*, so the
        # byte count uses the responder's header geometry (it mirrors
        # stage_wire_back's tx count exactly)
        nic = self.nic
        nbytes = self.resp_nbytes
        counters = nic.counters
        total = counters.rx
        total.bytes += nbytes
        total.packets += 1
        per_tc = counters.rx_per_tc[self.tc]
        per_tc.bytes += nbytes
        per_tc.packets += 1
        sim = self.sim
        now = sim.now
        spec = nic.spec
        finish = nic.rxpu.admit(now, spec.rxpu_ns)
        cqe = nic.pcie.admit(finish, spec.cqe_write_ns)
        obs = self.obs
        if obs is not None:
            obs.span("rxpu.cqe", now, cqe - now, category="rnic",
                     component=nic._component, wqe=self.wqe)
        sim.schedule_at(cqe, self.stage_complete, status)

    def stage_complete(self, status: WCStatus) -> None:
        wr = self.wr
        if wr.flushed:
            return
        now = self.sim.now
        obs = self.obs
        if obs is not None:
            obs.span("wqe", wr.post_time, now - wr.post_time,
                     category="rnic", component=self.nic._component,
                     wqe=self.wqe, status=status.name)
        self.qp.complete_send(wr, status, now)


#: The stages' dispatch labels.  The kernel's determinism digest, the
#: ``repro.obs`` tracer and span tracers name an event by its
#: callback's ``__qualname__``, so these labels are part of the trace
#: artifacts and their recorded digests; they keep the names the stages
#: had as closures inside :meth:`RNIC.post_send`.
_STAGES = (
    "stage_retry", "stage_fetch", "stage_txpu", "stage_wire_out",
    "stage_responder_rx", "stage_translate", "stage_rnr_nak", "stage_data",
    "stage_response", "stage_wire_back", "stage_requester_rx",
    "stage_complete",
)
for _stage in _STAGES:
    getattr(_Wqe, _stage).__qualname__ = f"RNIC.post_send.<locals>.{_stage}"
del _stage
