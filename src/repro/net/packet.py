"""Packet model.

A :class:`Packet` is a mutable record that travels through the simulated
network.  Switches never copy packets; the object created by the sender is
the one delivered to the receiver, so per-packet state (ECN codepoint,
enqueue timestamp for TCN sojourn time) is simply carried on the object.

ECN state follows RFC 3168 semantics at the granularity we need:

- ``ect``  — the transport declared the packet ECN-capable (ECT(0)).
- ``ce``   — a switch observed congestion and set Congestion Experienced.
- ``ece``  — on ACKs only: the receiver echoes CE back to the sender.

``service`` models the DSCP field: operators isolate services to switch
queues by DSCP, and our switch classifiers map ``service`` to a queue
index the same way.
"""

from __future__ import annotations

import itertools
from typing import Optional

__all__ = [
    "Packet",
    "DATA", "ACK", "MTU_BYTES", "ACK_BYTES", "HEADER_BYTES",
    "make_data", "make_ack", "split_train",
]

#: Wire size of a full-sized data packet (bytes).  The paper's experiments
#: use 1502-byte packets on 1 Gbps links for the sojourn-time arithmetic;
#: we default to the conventional 1500-byte MTU and expose the size on
#: every packet so thresholds expressed in packets stay exact.
MTU_BYTES = 1500
#: Wire size of a pure ACK (bytes).
ACK_BYTES = 40
#: Header overhead accounted inside ``MTU_BYTES`` (Ethernet+IP+TCP).
HEADER_BYTES = 54

DATA = 0
ACK = 1
#: Congestion Notification Packet (DCQCN): the receiver's rate-limited
#: "I saw CE" signal back to the sender.
CNP = 2
#: Negative acknowledgement (DCQCN/RoCE go-back-N): "resend from seq".
NACK = 3

_packet_counter = itertools.count()


class Packet:
    """One simulated packet (data segment or ACK)."""

    __slots__ = (
        "uid",
        "kind",
        "flow_id",
        "src",
        "dst",
        "seq",
        "size",
        "service",
        "ect",
        "ce",
        "ece",
        "ack_seq",
        "echo_time",
        "sent_time",
        "enqueue_time",
        "retransmit",
        "train",
        "push",
    )

    def __init__(
        self,
        kind: int,
        flow_id: int,
        src: int,
        dst: int,
        seq: int,
        size: int,
        service: int = 0,
        ect: bool = True,
    ):
        self.uid = next(_packet_counter)
        self.kind = kind
        self.flow_id = flow_id
        self.src = src
        self.dst = dst
        self.seq = seq
        self.size = size
        self.service = service
        self.ect = ect
        self.ce = False
        #: On ACKs: the receiver saw CE on the data packet being acked.
        self.ece = False
        #: On ACKs: cumulative acknowledgement (next expected data seq).
        self.ack_seq = 0
        #: On ACKs: ``sent_time`` of the data packet that triggered this
        #: ACK, echoed back so the sender can take an exact RTT sample.
        self.echo_time: Optional[float] = None
        #: Stamped by the sender when the packet enters its NIC queue.
        self.sent_time: Optional[float] = None
        #: Stamped by a switch port at enqueue (TCN sojourn time).
        self.enqueue_time: Optional[float] = None
        self.retransmit = False
        #: Packet-train width: the number of consecutive MTU segments
        #: this object stands for (``--trains`` mode).  ``size`` is the
        #: total wire bytes of all segments and ``seq`` the first
        #: segment's sequence number, so byte/packet accounting works
        #: unchanged.  1 — the default everywhere — is a plain packet;
        #: on ACKs the field echoes the width of the data unit being
        #: acknowledged (the sender weights its alpha estimate by it).
        self.train = 1
        #: PSH semantics: the sender marks the unit carrying a flow's
        #: final segment so a delayed-ACK receiver acknowledges it
        #: immediately instead of sitting on the delack timer.
        self.push = False

    @property
    def is_data(self) -> bool:
        return self.kind == DATA

    @property
    def is_ack(self) -> bool:
        return self.kind == ACK

    @property
    def to_sender(self) -> bool:
        """True for any reverse-path packet (ACK/CNP/NACK)."""
        return self.kind != DATA

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "DATA" if self.kind == DATA else "ACK"
        mark = "+CE" if self.ce else ""
        return (
            f"Packet({kind} flow={self.flow_id} seq={self.seq} "
            f"{self.src}->{self.dst} {self.size}B{mark})"
        )


def split_train(packet: Packet, leading: int) -> Packet:
    """Split ``leading`` segments off the front of a train packet.

    ``packet`` is mutated into the leading prefix (same ``seq``/``uid``)
    and a new packet covering the remaining segments is returned,
    inheriting every wire field including the CE codepoint.
    Switch ports use this when a marking-threshold crossing falls
    *inside* a train: the unmarked prefix and the marked suffix travel
    on as two units, which is exactly the per-packet marking pattern a
    monotone enqueue-point marker would have produced.
    """
    n = packet.train
    if not 0 < leading < n:
        raise ValueError(
            f"cannot split {leading} segment(s) off a train of {n}")
    segment = packet.size // n
    tail = Packet(packet.kind, packet.flow_id, packet.src, packet.dst,
                  packet.seq + leading, segment * (n - leading),
                  packet.service, packet.ect)
    tail.train = n - leading
    tail.ce = packet.ce
    tail.sent_time = packet.sent_time
    tail.retransmit = packet.retransmit
    # The flow-final segment lives in the tail half; PSH follows it.
    tail.push = packet.push
    packet.push = False
    packet.train = leading
    packet.size = segment * leading
    return tail


def make_data(flow_id: int, src: int, dst: int, seq: int,
              size: int = MTU_BYTES, service: int = 0, ect: bool = True) -> Packet:
    """Convenience constructor for a data packet."""
    return Packet(DATA, flow_id, src, dst, seq, size, service, ect)


def make_ack(data: Packet, ack_seq: int, ece: bool) -> Packet:
    """Build the ACK a receiver sends in response to ``data``.

    ACKs are not ECN-capable (``ect=False``), mirroring standard practice:
    marking ACKs would make the reverse path interfere with the forward
    congestion signal.  The ACK echoes ``data``'s train width so the
    sender can weight its alpha accounting by segments, not ACK events.
    """
    ack = Packet(ACK, data.flow_id, data.dst, data.src, data.seq, ACK_BYTES,
                 data.service, False)
    ack.ack_seq = ack_seq
    ack.ece = ece
    ack.echo_time = data.sent_time
    # Karn's rule support: the sender must not take RTT samples from ACKs
    # of retransmitted segments.
    ack.retransmit = data.retransmit
    ack.train = data.train
    return ack
