"""Web performance metrics: PLT, SpeedIndex, and report statistics."""

from .speedindex import (
    first_visual_change,
    speed_index,
    speed_index_of,
    visual_complete_time,
)
from .stats import (
    StreamingMoments,
    TDigest,
    cdf_points,
    confidence_interval,
    fraction_below,
    mean,
    median,
    paired_change,
    percentile,
    percentiles,
    relative_change,
    std_error,
    stdev,
)

__all__ = [
    "StreamingMoments",
    "TDigest",
    "cdf_points",
    "confidence_interval",
    "first_visual_change",
    "fraction_below",
    "mean",
    "median",
    "paired_change",
    "percentile",
    "percentiles",
    "relative_change",
    "speed_index",
    "speed_index_of",
    "std_error",
    "stdev",
    "visual_complete_time",
]
