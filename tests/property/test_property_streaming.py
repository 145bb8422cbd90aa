"""Property tests for the streaming estimators and the reducer monoid.

The population pipeline trades exact order statistics for bounded
memory; these tests bound what that trade costs:

* ``StreamingMoments`` must agree with the exact mean/min/max and its
  Chan merge must be split-point invariant;
* ``TDigest`` estimates must land within a rank tolerance of the exact
  :func:`repro.metrics.stats.percentile` oracle on arbitrary data;
* the t-digest merge must be commutative (the assembler's freedom to
  combine shards in any order rests on it);
* reduced run segments must concatenate associatively — the warm
  pool's chunk geometry must be invisible in the assembled summary.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.metrics.stats import (
    StreamingMoments,
    TDigest,
    mean,
)

samples = st.lists(
    st.floats(0.0, 50_000.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=300,
)


def rank_error(values, estimate, q) -> float:
    """Distance from q to the estimate's rank *interval*.

    With ties, a value occupies a whole rank interval
    [#(v < e)/n, #(v <= e)/n]; the error is the distance from q to
    that interval (0 when q falls inside it).
    """
    lo = sum(1 for v in values if v < estimate) / len(values)
    hi = sum(1 for v in values if v <= estimate) / len(values)
    if lo <= q <= hi:
        return 0.0
    return min(abs(q - lo), abs(q - hi))


# ----------------------------------------------------------------------
# StreamingMoments
# ----------------------------------------------------------------------
@given(samples)
def test_moments_match_exact(values):
    moments = StreamingMoments()
    for value in values:
        moments.add(value)
    assert moments.count == len(values)
    assert moments.minimum == min(values)
    assert moments.maximum == max(values)
    assert math.isclose(moments.mean, mean(values), rel_tol=1e-9, abs_tol=1e-6)


@given(samples, st.integers(0, 300))
def test_moments_merge_is_split_invariant(values, cut):
    cut = min(cut, len(values))
    left, right = StreamingMoments(), StreamingMoments()
    for value in values[:cut]:
        left.add(value)
    for value in values[cut:]:
        right.add(value)
    left.merge(right)
    whole = StreamingMoments()
    for value in values:
        whole.add(value)
    assert left.count == whole.count
    assert left.minimum == whole.minimum
    assert left.maximum == whole.maximum
    assert math.isclose(left.mean, whole.mean, rel_tol=1e-9, abs_tol=1e-6)
    assert math.isclose(left.variance, whole.variance, rel_tol=1e-6, abs_tol=1e-3)


# ----------------------------------------------------------------------
# t-digest
# ----------------------------------------------------------------------
@given(samples, st.sampled_from([0.1, 0.5, 0.9, 0.99]))
@settings(max_examples=60)
# Regression: interpolation overshot max(values) by one ulp before
# quantile() clamped to the bracketing centroid means.
@example(values=[0.0, 0.0, 0.0, 1.7142552735144818, 4098.597161132954], q=0.9)
def test_tdigest_is_rank_bounded(values, q):
    digest = TDigest(compression=100)
    for value in values:
        digest.add(value)
    estimate = digest.quantile(q)
    assert min(values) <= estimate <= max(values)
    assert rank_error(values, estimate, q) <= 0.15


@given(samples, samples)
def test_tdigest_merge_is_commutative(left_values, right_values):
    def digest_of(values):
        digest = TDigest(compression=50)
        for value in values:
            digest.add(value)
        return digest

    ab = digest_of(left_values)
    ab.merge(digest_of(right_values))
    ba = digest_of(right_values)
    ba.merge(digest_of(left_values))
    assert ab.centroids == ba.centroids
    assert ab.count == ba.count


@given(samples, st.integers(0, 300), st.sampled_from([0.25, 0.5, 0.9]))
@settings(max_examples=60)
# The target sits exactly on the last centroid's center: interpolation
# once returned one ulp below it, ranking the estimate under the median.
@example(values=[16386.0, 1.2685179517957295, 16385.91377518488], cut=0, q=0.5)
def test_tdigest_merge_stays_rank_bounded(values, cut, q):
    cut = min(cut, len(values))
    left, right = TDigest(compression=100), TDigest(compression=100)
    for value in values[:cut]:
        left.add(value)
    for value in values[cut:]:
        right.add(value)
    left.merge(right)
    assert left.count == len(values)
    assert rank_error(values, left.quantile(q), q) <= 0.15


# ----------------------------------------------------------------------
# Reducer segment monoid
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.floats(1.0, 10_000.0, allow_nan=False),
            st.floats(1.0, 10_000.0, allow_nan=False),
        ),
        min_size=1,
        max_size=40,
    ),
    st.integers(1, 40),
)
def test_segment_concatenation_is_chunk_invariant(runs, chunk):
    """Assembling [fold(r) for r in runs] must not see chunk boundaries."""
    from repro.experiments.reducers import RunStats
    from repro.experiments.runner import REDUCERS

    payloads = [
        RunStats(
            plt_ms=plt,
            speed_index_ms=si,
            first_visual_change_ms=0.0,
            pushed_bytes=0,
            downlink_bytes=0,
            uplink_bytes=0,
            connections=1,
            requests=1,
        )
        for plt, si in runs
    ]
    _, summary = REDUCERS["summary"]
    whole = summary("site", "s", payloads)
    chunked: list = []
    for lo in range(0, len(payloads), chunk):
        chunked.extend(payloads[lo : lo + chunk])
    assert summary("site", "s", chunked) == whole
