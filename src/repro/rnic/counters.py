"""ethtool-style NIC counters.

These are the observables of the reverse-engineering methodology
(Section IV-A quotes ``ethtool`` bps/pps counters) and the inputs of the
Grain-I..III defenses: per-traffic-class byte/packet totals and
per-opcode totals.
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict

from repro.verbs.enums import Opcode
from repro.verbs.qp import NUM_TRAFFIC_CLASSES


@dataclasses.dataclass
class DirectionCounters:
    """Byte/packet totals for one direction (tx or rx)."""

    bytes: int = 0
    packets: int = 0


class NICCounters:
    """Aggregate, per-traffic-class, and per-opcode counters.

    The RNIC pipeline bumps these fields inline, once per frame (see
    :mod:`repro.rnic.rnic`); the traffic class it indexes by was
    validated against :data:`~repro.verbs.qp.NUM_TRAFFIC_CLASSES` when
    the QP was created.
    """

    def __init__(self) -> None:
        self.num_traffic_classes = NUM_TRAFFIC_CLASSES
        self.tx = DirectionCounters()
        self.rx = DirectionCounters()
        self.tx_per_tc = [DirectionCounters() for _ in range(NUM_TRAFFIC_CLASSES)]
        self.rx_per_tc = [DirectionCounters() for _ in range(NUM_TRAFFIC_CLASSES)]
        self.per_opcode: dict[Opcode, int] = defaultdict(int)
        #: RC retransmissions of any kind (timeout- or NAK-driven);
        #: ethtool's aggregate transport retry counter.
        self.retransmits = 0
        #: Retransmissions triggered by the ACK timeout specifically
        #: (``local_ack_timeout_err``): lost request or lost response.
        self.timeouts = 0
        #: RNR NAKs received as a requester (``rnr_nak_retry_err``):
        #: the peer's receive queue was empty.
        self.rnr_naks = 0
        #: WQEs force-completed with ``WR_FLUSH_ERR`` when a local QP
        #: entered the ERROR state.
        self.flushed_wqes = 0
        #: PFC pause windows honoured by the wire-Tx port (a pause
        #: storm shows up here long before throughput collapses).
        self.pause_events = 0

    def snapshot(self) -> dict:
        """A flat dict of totals, shaped like ``ethtool -S`` output."""
        snap = {
            "tx_bytes": self.tx.bytes,
            "tx_packets": self.tx.packets,
            "rx_bytes": self.rx.bytes,
            "rx_packets": self.rx.packets,
            "retransmits": self.retransmits,
            "timeouts": self.timeouts,
            "rnr_naks": self.rnr_naks,
            "flushed_wqes": self.flushed_wqes,
            "pause_events": self.pause_events,
        }
        for tc in range(self.num_traffic_classes):
            snap[f"tx_prio{tc}_bytes"] = self.tx_per_tc[tc].bytes
            snap[f"tx_prio{tc}_packets"] = self.tx_per_tc[tc].packets
            snap[f"rx_prio{tc}_bytes"] = self.rx_per_tc[tc].bytes
            snap[f"rx_prio{tc}_packets"] = self.rx_per_tc[tc].packets
        for opcode, count in self.per_opcode.items():
            snap[f"op_{opcode.value.lower()}"] = count
        return snap
