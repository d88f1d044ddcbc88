"""Steady-state analysis of PMSB (paper §IV-D, Theorem IV.1).

The model: ``n_i`` synchronized long-lived DCTCP flows with identical RTT
share queue *i* of a bottleneck port of capacity ``C`` (bits/s).  Queue
*i* holds weight ``w_i`` and receives the fluid share
``γ_i = w_i / Σw`` of the link.  With a marking threshold ``k_i`` on the
queue, the DCTCP sawtooth gives (all lengths in *packets*, windows in
packets):

- queue length        ``Q_i(t) = n_i·W(t) − γ_i·C·RTT``            (Eq. 7)
- peak queue length   ``Q_i^max = k_i + n_i``                       (Eq. 8)
- oscillation size    ``A_i = ½·√(2·n_i·(γ_i·C·RTT + k_i))``        (Eq. 9)
- worst-case trough   ``Q_i^- = 7/8·k_i − γ_i·C·RTT/8``             (Eq. 10)
  attained at         ``n_i = (γ_i·C·RTT + k_i)/8``                 (Eq. 11)

Requiring ``Q_i^- > 0`` yields **Theorem IV.1**:

    ``k_i > γ_i · C·RTT / 7``                                       (Eq. 12)

— the per-queue filter threshold that avoids underflow (throughput loss)
for any number of flows.  Summing the bounds over queues gives the port
threshold the evaluation uses ("we can obtain the port's threshold by
summing up the thresholds of all queues", §VI).

``C·RTT`` is converted to packets through ``packet_size_bytes`` so the
results are directly comparable with the packet-denominated thresholds
used throughout the paper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

from ..net.packet import MTU_BYTES

__all__ = [
    "bdp_packets",
    "gamma",
    "queue_threshold_lower_bound",
    "port_threshold_lower_bound",
    "queue_peak_length",
    "oscillation_amplitude",
    "queue_min_length",
    "worst_case_flow_count",
    "queue_min_lower_bound",
    "sawtooth_peak",
    "sawtooth_trajectory",
    "SteadyStateModel",
]


def bdp_packets(capacity_bps: float, rtt: float,
                packet_size_bytes: int = MTU_BYTES) -> float:
    """The bandwidth-delay product ``C·RTT`` expressed in packets."""
    if capacity_bps <= 0 or rtt <= 0:
        raise ValueError("capacity and RTT must be positive")
    return capacity_bps * rtt / (8.0 * packet_size_bytes)


def gamma(weights: Sequence[float], queue_index: int) -> float:
    """Fluid bandwidth share ``γ_i = w_i / Σw`` of one queue."""
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("weights must sum to a positive value")
    return weights[queue_index] / total


def queue_threshold_lower_bound(
    weights: Sequence[float],
    queue_index: int,
    capacity_bps: float,
    rtt: float,
    packet_size_bytes: int = MTU_BYTES,
) -> float:
    """Theorem IV.1: the minimum ``k_i`` (packets) avoiding underflow."""
    share = gamma(weights, queue_index)
    return share * bdp_packets(capacity_bps, rtt, packet_size_bytes) / 7.0


def port_threshold_lower_bound(
    weights: Sequence[float],
    capacity_bps: float,
    rtt: float,
    packet_size_bytes: int = MTU_BYTES,
) -> float:
    """Port threshold = Σ_i k_i^min = C·RTT/7 packets (shares sum to 1)."""
    return sum(
        queue_threshold_lower_bound(weights, i, capacity_bps, rtt, packet_size_bytes)
        for i in range(len(weights))
    )


def queue_peak_length(k_i: float, n_i: float) -> float:
    """Eq. 8: maximum queue length ``Q_i^max = k_i + n_i`` (packets)."""
    return k_i + n_i


def oscillation_amplitude(n_i: float, gamma_i: float, bdp_pkts: float,
                          k_i: float) -> float:
    """Eq. 9: sawtooth amplitude ``A_i`` (packets)."""
    if n_i <= 0:
        raise ValueError("flow count must be positive")
    return 0.5 * math.sqrt(2.0 * n_i * (gamma_i * bdp_pkts + k_i))


def queue_min_length(n_i: float, gamma_i: float, bdp_pkts: float,
                     k_i: float) -> float:
    """Trough of the sawtooth: ``Q_i^min = Q_i^max − A_i`` (packets)."""
    peak = queue_peak_length(k_i, n_i)
    return peak - oscillation_amplitude(n_i, gamma_i, bdp_pkts, k_i)


def worst_case_flow_count(gamma_i: float, bdp_pkts: float, k_i: float) -> float:
    """Eq. 11: the ``n_i`` minimizing ``Q_i^min``."""
    return (gamma_i * bdp_pkts + k_i) / 8.0


def queue_min_lower_bound(gamma_i: float, bdp_pkts: float, k_i: float) -> float:
    """Eq. 10: ``Q_i^- = 7/8·k_i − γ_i·C·RTT/8`` (packets)."""
    return 0.875 * k_i - gamma_i * bdp_pkts / 8.0


@dataclass(frozen=True)
class SteadyStateModel:
    """Convenience wrapper evaluating the whole §IV-D model for one port.

    Attributes mirror Table III: ``capacity_bps`` is C, ``rtt`` the common
    round-trip time, ``weights`` the per-queue weights.
    """

    capacity_bps: float
    rtt: float
    weights: Sequence[float]
    packet_size_bytes: int = MTU_BYTES

    @property
    def bdp_pkts(self) -> float:
        return bdp_packets(self.capacity_bps, self.rtt, self.packet_size_bytes)

    def gamma(self, queue_index: int) -> float:
        return gamma(self.weights, queue_index)

    def threshold_bound(self, queue_index: int) -> float:
        """Theorem IV.1 bound for one queue, in packets."""
        return queue_threshold_lower_bound(
            self.weights, queue_index, self.capacity_bps, self.rtt,
            self.packet_size_bytes,
        )

    def port_threshold_bound(self) -> float:
        """Sum of the per-queue bounds — the recommended port threshold."""
        return port_threshold_lower_bound(
            self.weights, self.capacity_bps, self.rtt, self.packet_size_bytes
        )

    def min_queue_length(self, queue_index: int, k_i: float, n_i: float) -> float:
        """``Q_i^min`` for a concrete flow count (packets)."""
        return queue_min_length(n_i, self.gamma(queue_index), self.bdp_pkts, k_i)

    def worst_case_min(self, queue_index: int, k_i: float) -> float:
        """``Q_i^-``: the trough minimized over all flow counts (Eq. 10)."""
        return queue_min_lower_bound(self.gamma(queue_index), self.bdp_pkts, k_i)

    def underflow_free(self, queue_index: int, k_i: float) -> bool:
        """Does ``k_i`` satisfy Theorem IV.1 for this queue?"""
        return k_i > self.threshold_bound(queue_index)

    def sweep_thresholds(self, queue_index: int,
                         k_values: Sequence[float]) -> List[dict]:
        """Evaluate Eq. 10/11 across candidate thresholds (bench T4)."""
        rows = []
        for k_i in k_values:
            rows.append(
                {
                    "k_i": k_i,
                    "bound": self.threshold_bound(queue_index),
                    "worst_case_n": worst_case_flow_count(
                        self.gamma(queue_index), self.bdp_pkts, k_i
                    ),
                    "q_min_lower_bound": self.worst_case_min(queue_index, k_i),
                    "underflow_free": self.underflow_free(queue_index, k_i),
                }
            )
        return rows


def sawtooth_trajectory(
    n_i: int,
    gamma_i: float,
    capacity_bps: float,
    rtt: float,
    k_i: float,
    n_cycles: int = 5,
    packet_size_bytes: int = MTU_BYTES,
) -> List[dict]:
    """Fluid-model trajectory of the §IV-D sawtooth (Eq. 7/8).

    Iterates the DCTCP synchronized-flow dynamics in RTT steps: windows
    grow by one packet per RTT until the queue reaches ``k_i`` (plus the
    one-RTT feedback delay that gives the ``+ n_i`` overshoot of Eq. 8),
    then all flows cut by ``α/2`` with the steady-state
    ``α = √(2/(W*+1))`` approximation of the DCTCP analysis.  Returns a
    list of per-RTT records ``{t_rtts, window, queue}`` covering
    ``n_cycles`` marking cycles — the reference curve the packet
    simulator's buffer trace is validated against.
    """
    if n_i < 1:
        raise ValueError("need at least one flow")
    bdp = gamma_i * bdp_packets(capacity_bps, rtt, packet_size_bytes)
    w_star = (bdp + k_i) / n_i
    alpha = math.sqrt(2.0 / (w_star + 1.0))
    window = max(1.0, bdp / n_i)  # start at the no-queue operating point
    records: List[dict] = []
    cycles = 0
    t = 0
    while cycles < n_cycles and t < 100_000:
        queue = max(0.0, n_i * window - bdp)
        records.append({"t_rtts": t, "window": window, "queue": queue})
        if queue >= k_i:
            # One more RTT of growth happens before the echo arrives
            # (Eq. 8's +n_i), then the synchronized cut.
            window += 1.0
            queue = max(0.0, n_i * window - bdp)
            records.append({"t_rtts": t + 1, "window": window,
                            "queue": queue})
            window = max(1.0, window * (1.0 - alpha / 2.0))
            cycles += 1
            t += 2
        else:
            window += 1.0
            t += 1
    return records


def sawtooth_peak(n_i: int, gamma_i: float, capacity_bps: float, rtt: float,
                  k_i: float, packet_size_bytes: int = MTU_BYTES) -> float:
    """Peak queue of the fluid trajectory — Eq. 8 predicts ``k_i + n_i``."""
    records = sawtooth_trajectory(n_i, gamma_i, capacity_bps, rtt, k_i,
                                  n_cycles=3,
                                  packet_size_bytes=packet_size_bytes)
    return max(record["queue"] for record in records)
