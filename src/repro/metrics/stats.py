"""Statistics helpers for experiment reporting.

The paper reports medians over 31 runs, standard errors (Fig. 2a),
averages with 95% / 99.5% confidence intervals (Fig. 4, Fig. 6), and
CDFs over sites.  These helpers implement exactly those reductions.

Two tiers live side by side:

* **Exact reductions** over materialized sequences (``mean``,
  ``median``, ``percentile``...).  :func:`percentile` is the *oracle*
  every streaming estimator is tested against; :func:`percentiles`
  is the single sorted-once path reports use to evaluate many
  quantiles of one series.
* **Streaming accumulators** for population-scale runs where the
  sample can never be materialized: :class:`StreamingMoments`
  (count/mean/min/max/variance via Welford, merged with Chan's
  parallel update) and :class:`TDigest` (a small merging t-digest
  whose ``merge`` is commutative by construction).  Both hold O(1)
  state regardless of how many values they fold, which is what lets
  cohort accumulators absorb hundreds of thousands of page loads with
  constant memory.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple


def mean(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of empty sequence")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def stdev(values: Sequence[float]) -> float:
    """Sample standard deviation (n-1 denominator)."""
    if len(values) < 2:
        return 0.0
    avg = mean(values)
    return math.sqrt(sum((v - avg) ** 2 for v in values) / (len(values) - 1))


def std_error(values: Sequence[float]) -> float:
    """Standard error of the mean, the Fig. 2a per-site statistic."""
    if len(values) < 2:
        return 0.0
    return stdev(values) / math.sqrt(len(values))


#: Two-sided critical z-values for the confidence levels the paper uses.
_Z = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758, 0.995: 2.8070}


def confidence_interval(
    values: Sequence[float], level: float = 0.95
) -> Tuple[float, float]:
    """Normal-approximation CI of the mean: (center, half_width)."""
    if level not in _Z:
        raise ValueError(f"unsupported confidence level {level}")
    center = mean(values)
    half_width = _Z[level] * std_error(values)
    return center, half_width


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100].

    This is the exact oracle: the streaming estimator below
    (:class:`TDigest`) is tested against it, and anything that has the
    full sample in hand should use it (or :func:`percentiles` for
    several quantiles of one series).
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    return _percentile_sorted(sorted(values), q)


def percentiles(values: Sequence[float], qs: Iterable[float]) -> List[float]:
    """Exact percentiles of one series, sorting it only once.

    Evaluating a CDF row used to call :func:`percentile` per quantile
    and re-sort the sample each time; this is the deduplicated path.
    """
    if not values:
        raise ValueError("percentiles of empty sequence")
    ordered = sorted(values)
    return [_percentile_sorted(ordered, q) for q in qs]


def _percentile_sorted(ordered: Sequence[float], q: float) -> float:
    """Shared kernel of :func:`percentile`/:func:`percentiles`."""
    if not 0 <= q <= 100:
        raise ValueError("q must be in [0, 100]")
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high or ordered[low] == ordered[high]:
        # The equality guard also avoids interpolation underflow for
        # subnormal floats (x*0.5 + x*0.5 can round below x).
        return ordered[low]
    fraction = rank - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def cdf_points(values: Sequence[float]) -> List[Tuple[float, float]]:
    """Empirical CDF as (value, fraction <= value) steps."""
    ordered = sorted(values)
    n = len(ordered)
    return [(value, (index + 1) / n) for index, value in enumerate(ordered)]


def fraction_below(values: Sequence[float], threshold: float) -> float:
    """Share of values strictly below ``threshold`` (e.g. Δ < 0)."""
    if not values:
        raise ValueError("fraction_below of empty sequence")
    return sum(1 for value in values if value < threshold) / len(values)


def relative_change(measured: float, baseline: float) -> float:
    """Relative change in percent; negative = improvement (paper's Δ)."""
    if baseline == 0:
        raise ValueError("baseline must be non-zero")
    return (measured - baseline) / baseline * 100.0


def paired_change(
    values: Sequence[float], baselines: Sequence[float], level: float = 0.95
) -> Tuple[float, float]:
    """Mean paired Δ% of ``values`` against ``baselines`` (one
    :func:`relative_change` per pair), as the :func:`confidence_interval`
    ``(center, half_width)`` of that series."""
    deltas = [relative_change(value, base) for value, base in zip(values, baselines)]
    return confidence_interval(deltas, level)


# ----------------------------------------------------------------------
# Streaming accumulators (population-scale, bounded memory)
# ----------------------------------------------------------------------
class StreamingMoments:
    """Count / mean / min / max / variance without keeping the sample.

    ``add`` is Welford's online update; ``merge`` is Chan's parallel
    combination, so partial accumulators built over disjoint shards can
    be folded together.  Count, min, and max merge exactly; mean and
    variance merge up to float rounding (the Hypothesis suite bounds
    the drift).
    """

    __slots__ = ("count", "_mean", "_m2", "minimum", "maximum")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    def merge(self, other: "StreamingMoments") -> None:
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return
        total = self.count + other.count
        delta = other._mean - self._mean
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self._mean += delta * other.count / total
        self.count = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise ValueError("mean of empty accumulator")
        return self._mean

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator), 0.0 below two values."""
        if self.count < 2:
            return 0.0
        return self._m2 / (self.count - 1)

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    @property
    def std_error(self) -> float:
        if self.count < 2:
            return 0.0
        return self.stdev / math.sqrt(self.count)


class TDigest:
    """A small merging t-digest for streaming quantiles and CDFs.

    Values buffer until ``2 * compression`` points accumulate, then a
    deterministic compress pass sorts centroids by ``(mean, weight)``
    and greedily merges neighbours under the usual scale-function
    bound ``k(q)=compression * (asin-like q ramp)``.  ``merge``
    concatenates centroid lists and recompresses, so it is commutative
    by construction (the sort erases argument order); associativity
    holds approximately and is bounded by the Hypothesis suite.
    """

    __slots__ = ("compression", "_means", "_weights", "_unmerged", "count")

    def __init__(self, compression: int = 100):
        if compression < 20:
            raise ValueError("compression must be >= 20")
        self.compression = compression
        self._means: List[float] = []
        self._weights: List[float] = []
        self._unmerged = 0
        self.count = 0.0

    def add(self, value: float, weight: float = 1.0) -> None:
        if weight <= 0.0:
            raise ValueError("weight must be positive")
        self._means.append(value)
        self._weights.append(weight)
        self.count += weight
        self._unmerged += 1
        if self._unmerged >= 2 * self.compression:
            self._compress()

    def merge(self, other: "TDigest") -> None:
        self._means.extend(other._means)
        self._weights.extend(other._weights)
        self.count += other.count
        self._compress()

    def _compress(self) -> None:
        if not self._means:
            self._unmerged = 0
            return
        order = sorted(range(len(self._means)), key=lambda i: (self._means[i], self._weights[i]))
        means = [self._means[i] for i in order]
        weights = [self._weights[i] for i in order]
        new_means = [means[0]]
        new_weights = [weights[0]]
        seen = weights[0]
        for mean, weight in zip(means[1:], weights[1:]):
            q0 = (seen - new_weights[-1]) / self.count
            q1 = (seen + weight) / self.count
            if self._k(q1) - self._k(q0) <= 1.0:
                total = new_weights[-1] + weight
                new_means[-1] += (mean - new_means[-1]) * weight / total
                new_weights[-1] = total
            else:
                new_means.append(mean)
                new_weights.append(weight)
            seen += weight
        self._means = new_means
        self._weights = new_weights
        self._unmerged = 0

    def _k(self, q: float) -> float:
        """Scale function k1 (arcsine): fine at the tails, coarse mid."""
        q = min(1.0, max(0.0, q))
        return self.compression * (math.asin(2.0 * q - 1.0) / math.pi + 0.5)

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile, q in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            raise ValueError("quantile of empty digest")
        self._compress()
        means, weights = self._means, self._weights
        if len(means) == 1:
            return means[0]
        target = q * self.count
        seen = 0.0
        for index, weight in enumerate(weights):
            center = seen + weight / 2.0
            if target <= center:
                if index == 0:
                    return means[0]
                prev_center = seen - weights[index - 1] / 2.0
                span = center - prev_center
                fraction = (target - prev_center) / span if span > 0 else 0.0
                if fraction >= 1.0:  # a + 1.0 * (b - a) can land an ulp below b
                    return means[index]
                value = means[index - 1] + fraction * (means[index] - means[index - 1])
                # The interpolation arithmetic can overshoot the
                # bracketing centroid means by an ulp even though
                # 0 <= fraction <= 1; quantiles must never leave the
                # observed value range.
                return min(max(value, means[index - 1]), means[index])
            seen += weight
        return means[-1]

    def cdf_points(self, points: int = 20) -> List[Tuple[float, float]]:
        """Approximate CDF as (value, fraction) pairs for reporting."""
        if self.count == 0:
            return []
        qs = [i / (points - 1) for i in range(points)] if points > 1 else [0.5]
        return [(self.quantile(q), q) for q in qs]

    @property
    def centroids(self) -> List[Tuple[float, float]]:
        """Compressed (mean, weight) pairs — exposed for tests."""
        self._compress()
        return list(zip(self._means, self._weights))
