"""Struct-of-arrays mirror of port occupancy state.

The per-packet datapath keeps its counters as Python ints on each
:class:`~repro.net.port.Port` — scalar updates are cheapest there.  The
batched engine tier and the packet-train diagnostics instead want to ask
fleet-wide questions ("which ports sit inside the marking guard band?",
"how much headroom is left per port?") without a Python loop over port
objects.  :class:`PortArrays` answers those: it registers ports once,
then :meth:`sync` snapshots occupancy into flat numpy arrays where the
comparisons vectorize.

The mirror is read-only with respect to the datapath: it never feeds
values *back* into ports, so it cannot desynchronize the simulation.
Thresholds are extracted from the attached marker at registration time
(and refreshed by :meth:`sync`, so runtime threshold tuning is picked
up):

- :class:`~repro.ecn.per_port.PerPortMarker` → ``threshold_packets``;
- :class:`~repro.core.pmsb.PmsbMarker` → ``port_threshold_packets``;
- :class:`~repro.ecn.per_queue.PerQueueMarker` → the minimum per-queue
  threshold (the earliest occupancy at which *any* marking can start);
- anything else (e.g. :class:`~repro.ecn.base.NullMarker`) → NaN, which
  makes every guard-band/headroom query answer False/inf for that port.
"""

from __future__ import annotations

import math
from typing import List, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

    from .port import Port

__all__ = ["PortArrays", "marker_port_threshold", "occupancy_integral"]


def marker_port_threshold(port: "Port") -> float:
    """Port-level marking onset (packets) of ``port``'s marker, or NaN.

    The value is the smallest port occupancy at which the marker *could*
    mark a packet — exact for per-port schemes (per-port ECN, PMSB's
    port condition), conservative (earliest queue onset) for per-queue
    marking, NaN when the marker has no occupancy threshold at all.
    """
    marker = port.marker
    threshold = getattr(marker, "port_threshold_packets", None)
    if threshold is None:
        threshold = getattr(marker, "threshold_packets", None)
    if threshold is not None:
        return float(threshold)
    threshold_fn = getattr(marker, "threshold", None)
    if callable(threshold_fn):
        try:
            return min(
                float(threshold_fn(i)) for i in range(port.n_queues)
            )
        except (TypeError, IndexError):  # non-conforming signature
            return math.nan
    return math.nan


def occupancy_integral(base: int, arrivals: int) -> float:
    """Sum of occupancies seen by a back-to-back burst (analytic).

    Segment ``i`` (1-based) of a burst enqueued onto a port holding
    ``base`` packets observes occupancy ``base + i``; the sum over the
    whole burst is ``arrivals * base + arrivals * (arrivals + 1) / 2``.
    The batched tier uses this closed form where the per-packet tier
    would accumulate the same total one enqueue at a time.
    """
    if arrivals < 0:
        raise ValueError("arrivals cannot be negative")
    return arrivals * base + arrivals * (arrivals + 1) / 2.0


class PortArrays:
    """Numpy struct-of-arrays view over a set of ports.

    Usage::

        arrays = PortArrays()
        for port in network.ports:
            arrays.register(port)
        ...
        arrays.sync()
        hot = arrays.guard_band_mask(guard=4.0)

    ``sync`` is a snapshot, not a live view — call it again after the
    simulation advances.
    """

    __slots__ = ("_ports", "occupancy", "bytes", "threshold", "capacity")

    def __init__(self) -> None:
        import numpy as np

        self._ports: List["Port"] = []
        #: Packets queued per port (after the last :meth:`sync`).
        self.occupancy = np.zeros(0, dtype=np.int64)
        #: Bytes queued per port.
        self.bytes = np.zeros(0, dtype=np.int64)
        #: Port-level marking onset per port (NaN = never marks).
        self.threshold = np.zeros(0, dtype=np.float64)
        #: Buffer capacity per port in packets (inf = unbounded).
        self.capacity = np.zeros(0, dtype=np.float64)

    def __len__(self) -> int:
        return len(self._ports)

    @property
    def ports(self) -> List["Port"]:
        """The registered ports, in registration (= array) order."""
        return list(self._ports)

    def register(self, port: "Port") -> int:
        """Add ``port`` to the mirror; returns its array index."""
        import numpy as np

        index = len(self._ports)
        self._ports.append(port)
        self.occupancy = np.append(self.occupancy, port.packet_count)
        self.bytes = np.append(self.bytes, port.byte_count)
        self.threshold = np.append(self.threshold,
                                   marker_port_threshold(port))
        capacity = port.buffer_packets
        self.capacity = np.append(
            self.capacity, math.inf if capacity is None else float(capacity))
        return index

    def sync(self) -> None:
        """Snapshot occupancy (and refresh thresholds) for all ports."""
        ports = self._ports
        occupancy = self.occupancy
        byte_counts = self.bytes
        threshold = self.threshold
        for i, port in enumerate(ports):
            occupancy[i] = port.packet_count
            byte_counts[i] = port.byte_count
            threshold[i] = marker_port_threshold(port)

    def guard_band_mask(self, guard: float) -> np.ndarray:
        """Boolean mask of ports within ``guard`` packets of marking onset.

        A port with occupancy ``>= threshold - guard`` is "hot": a train
        landing there may straddle the marking threshold, so callers
        that want to stay conservative should treat it per-packet.
        NaN thresholds (markers with no occupancy onset) never qualify.
        """
        return self.occupancy >= self.threshold - guard

    def headroom(self) -> np.ndarray:
        """Packets of buffer space left per port (inf when unbounded)."""
        return self.capacity - self.occupancy

    def marking_headroom(self) -> np.ndarray:
        """Packets until marking onset per port (NaN when it never marks)."""
        return self.threshold - self.occupancy
