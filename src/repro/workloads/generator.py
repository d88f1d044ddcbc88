"""Poisson flow generation.

Flows arrive as a Poisson process whose rate realizes a target *load*:
the fraction of each host link's capacity consumed on average.  With
``n`` hosts, mean flow size ``S`` bytes and host links of ``C`` bits/s,

    arrival_rate = load × C × n / (8 × S)        [flows per second]

so each host link carries ``load × C`` bits/s of offered traffic on
average (the convention of the MQ-ECN/TCN evaluations).  Sources and
destinations are drawn uniformly among distinct host pairs and each pair
is pinned to one of the 8 services (→ switch queues).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from ..transport.flow import Flow
from .distributions import SizeDistribution
from .services import assign_service

if TYPE_CHECKING:
    import numpy as np

__all__ = ["PoissonFlowGenerator"]


class PoissonFlowGenerator:
    """Generates a randomized flow arrival schedule."""

    def __init__(
        self,
        rng: np.random.Generator,
        host_ids: Sequence[int],
        size_distribution: SizeDistribution,
        load: float,
        link_rate_bps: float,
        n_services: int = 8,
        start_time: float = 0.0,
    ):
        if not 0.0 < load < 1.0:
            raise ValueError("load must be in (0, 1)")
        if len(host_ids) < 2:
            raise ValueError("need at least two hosts")
        self.rng = rng
        self.host_ids = list(host_ids)
        self.size_distribution = size_distribution
        self.load = load
        self.link_rate_bps = link_rate_bps
        self.n_services = n_services
        self.start_time = start_time

    @property
    def arrival_rate(self) -> float:
        """Flows per second realizing the target load."""
        mean_bits = self.size_distribution.mean_bytes() * 8.0
        return self.load * self.link_rate_bps * len(self.host_ids) / mean_bits

    def generate(
        self,
        n_flows: Optional[int] = None,
        duration: Optional[float] = None,
    ) -> List[Flow]:
        """Build the arrival schedule.

        Exactly one of ``n_flows`` (fixed count) or ``duration`` (fixed
        time horizon) must be given.
        """
        if (n_flows is None) == (duration is None):
            raise ValueError("specify exactly one of n_flows or duration")
        rate = self.arrival_rate
        flows: List[Flow] = []
        now = self.start_time
        while True:
            now += float(self.rng.exponential(1.0 / rate))
            if duration is not None and now > self.start_time + duration:
                break
            if n_flows is not None and len(flows) >= n_flows:
                break
            src, dst = self.rng.choice(self.host_ids, size=2, replace=False)
            src, dst = int(src), int(dst)
            flows.append(
                Flow(
                    src=src,
                    dst=dst,
                    size_bytes=self.size_distribution.sample(self.rng),
                    service=assign_service(src, dst, self.n_services),
                    start_time=now,
                    # Explicit sequential ids: ECMP hashes on the flow id,
                    # so ids must be a pure function of the schedule — the
                    # process-global default counter would make path
                    # choices depend on how many flows other scenarios
                    # created earlier.  Ids only need uniqueness within
                    # one network, which sequential numbering provides.
                    flow_id=len(flows) + 1,
                )
            )
        return flows
