"""Flow-size distributions.

The paper evaluates with a "realistic workload" in which small flows are
60% of flows and large flows 10% (§VI-B).  :data:`PAPER_MIX` implements
exactly that mixture; :data:`WEB_SEARCH` and :data:`DATA_MINING` are the
two classic datacenter traces from the DCTCP lineage (also used by MQ-ECN
and TCN) for users who want heavier tails.

All distributions expose ``sample(rng) -> int`` (bytes) and
``mean_bytes()`` so the Poisson generator can translate a load fraction
into an arrival rate.
"""

from __future__ import annotations

import bisect
import itertools
from typing import TYPE_CHECKING, Sequence, Tuple

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SizeDistribution",
    "EmpiricalCdf",
    "LogUniform",
    "Uniform",
    "Mixture",
    "Pareto",
    "PAPER_MIX",
    "WEB_SEARCH",
    "DATA_MINING",
]


class SizeDistribution:
    """Interface: a sampler over flow sizes in bytes."""

    def sample(self, rng: np.random.Generator) -> int:
        raise NotImplementedError

    def mean_bytes(self) -> float:
        raise NotImplementedError

    def scaled(self, factor: float) -> "SizeDistribution":
        """A copy with all sizes multiplied by ``factor`` (scale profiles)."""
        return _Scaled(self, factor)


class _Scaled(SizeDistribution):
    def __init__(self, inner: SizeDistribution, factor: float):
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        self._inner = inner
        self._factor = factor

    def sample(self, rng: np.random.Generator) -> int:
        return max(1, int(round(self._inner.sample(rng) * self._factor)))

    def mean_bytes(self) -> float:
        return self._inner.mean_bytes() * self._factor


class Uniform(SizeDistribution):
    """Uniform over ``[low, high]`` bytes."""

    def __init__(self, low: int, high: int):
        if not 0 < low <= high:
            raise ValueError("need 0 < low <= high")
        self.low = low
        self.high = high

    def sample(self, rng: np.random.Generator) -> int:
        return int(rng.integers(self.low, self.high + 1))

    def mean_bytes(self) -> float:
        return (self.low + self.high) / 2.0


class LogUniform(SizeDistribution):
    """Log-uniform over ``[low, high]`` bytes — flat across size decades,
    the usual model for 'medium' flows spanning orders of magnitude."""

    def __init__(self, low: int, high: int):
        if not 0 < low < high:
            raise ValueError("need 0 < low < high")
        self.low = low
        self.high = high

    def sample(self, rng: np.random.Generator) -> int:
        import numpy as np

        value = np.exp(rng.uniform(np.log(self.low), np.log(self.high)))
        return max(self.low, min(self.high, int(round(value))))

    def mean_bytes(self) -> float:
        import numpy as np

        span = np.log(self.high) - np.log(self.low)
        return float((self.high - self.low) / span)


class Pareto(SizeDistribution):
    """Bounded Pareto — the classic heavy-tail model for flow sizes.

    Shape ``alpha`` < 2 gives the "elephants and mice" regime datacenter
    traffic studies report; the upper bound keeps the mean finite and the
    simulations tractable.
    """

    def __init__(self, minimum: int, maximum: int, alpha: float = 1.2):
        if not 0 < minimum < maximum:
            raise ValueError("need 0 < minimum < maximum")
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.minimum = minimum
        self.maximum = maximum
        self.alpha = alpha

    def sample(self, rng: np.random.Generator) -> int:
        # Inverse transform of the bounded Pareto CDF.
        u = rng.random()
        low_a = self.minimum ** self.alpha
        high_a = self.maximum ** self.alpha
        value = (-(u * high_a - u * low_a - high_a)
                 / (high_a * low_a)) ** (-1.0 / self.alpha)
        return max(self.minimum, min(self.maximum, int(round(value))))

    def mean_bytes(self) -> float:
        import numpy as np

        a, low, high = self.alpha, self.minimum, self.maximum
        if a == 1.0:
            return low * np.log(high / low) / (1.0 - low / high)
        ratio = (low / high) ** a
        return (low * a / (a - 1.0)) * (
            (1.0 - (low / high) ** (a - 1.0)) / (1.0 - ratio)
        )


class Mixture(SizeDistribution):
    """Weighted mixture of component distributions."""

    def __init__(self, components: Sequence[Tuple[float, SizeDistribution]]):
        if not components:
            raise ValueError("a mixture needs at least one component")
        total = sum(weight for weight, _dist in components)
        if total <= 0:
            raise ValueError("mixture weights must sum to a positive value")
        self._probs = [weight / total for weight, _dist in components]
        self._dists = [dist for _weight, dist in components]
        self._cum = list(itertools.accumulate(self._probs))

    def sample(self, rng: np.random.Generator) -> int:
        u = rng.random()
        index = bisect.bisect_left(self._cum, u)
        index = min(index, len(self._dists) - 1)
        return self._dists[index].sample(rng)

    def mean_bytes(self) -> float:
        return float(
            sum(p * d.mean_bytes() for p, d in zip(self._probs, self._dists))
        )


class EmpiricalCdf(SizeDistribution):
    """Piecewise-linear inverse-CDF sampler from ``(size, cum_prob)`` points."""

    def __init__(self, points: Sequence[Tuple[float, float]]):
        if len(points) < 2:
            raise ValueError("need at least two CDF points")
        sizes = [float(s) for s, _p in points]
        probs = [float(p) for _s, p in points]
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ValueError("sizes must be strictly increasing")
        if any(b < a for a, b in zip(probs, probs[1:])):
            raise ValueError("cumulative probabilities must be non-decreasing")
        if abs(probs[-1] - 1.0) > 1e-9:
            raise ValueError("the last cumulative probability must be 1.0")
        self._sizes = sizes
        self._probs = probs

    def sample(self, rng: np.random.Generator) -> int:
        u = rng.random()
        index = bisect.bisect_left(self._probs, u)
        if index == 0:
            return max(1, int(round(self._sizes[0])))
        p0, p1 = self._probs[index - 1], self._probs[index]
        s0, s1 = self._sizes[index - 1], self._sizes[index]
        if p1 == p0:
            return max(1, int(round(s1)))
        fraction = (u - p0) / (p1 - p0)
        return max(1, int(round(s0 + fraction * (s1 - s0))))

    def mean_bytes(self) -> float:
        mean = self._probs[0] * self._sizes[0]
        for i in range(1, len(self._sizes)):
            mass = self._probs[i] - self._probs[i - 1]
            mean += mass * (self._sizes[i - 1] + self._sizes[i]) / 2.0
        return float(mean)


#: The paper's workload: 60% small (≤100 KB), 30% medium, 10% large
#: (≥10 MB), by flow count.
PAPER_MIX = Mixture(
    [
        (0.60, Uniform(5 * 1000, 100 * 1000)),
        (0.30, LogUniform(100 * 1000 + 1, 10 * 1000 * 1000 - 1)),
        (0.10, Uniform(10 * 1000 * 1000, 30 * 1000 * 1000)),
    ]
)

#: Web-search workload (DCTCP paper, Fig. — the standard points used by
#: the MQ-ECN/TCN evaluations).  Sizes in bytes.
WEB_SEARCH = EmpiricalCdf(
    [
        (6_000, 0.15),
        (13_000, 0.20),
        (19_000, 0.30),
        (33_000, 0.40),
        (53_000, 0.53),
        (133_000, 0.60),
        (667_000, 0.70),
        (1_467_000, 0.80),
        (3_333_000, 0.90),
        (6_667_000, 0.97),
        (20_000_000, 1.00),
    ]
)

#: Data-mining workload (Greenberg et al. VL2 trace, as reused by MQ-ECN).
DATA_MINING = EmpiricalCdf(
    [
        (100, 0.50),
        (1_000, 0.60),
        (10_000, 0.78),
        (100_000, 0.85),
        (1_000_000, 0.92),
        (10_000_000, 0.96),
        (100_000_000, 1.00),
    ]
)
