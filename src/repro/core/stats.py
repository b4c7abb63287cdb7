"""Small statistics helpers used by the Dirigent predictor and controllers.

Kept dependency-free (no numpy) because the real runtime computes these
inside a <100 microsecond control-loop invocation.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from repro.errors import ControlError


class ExponentialMovingAverage:
    """EMA with the paper's convention ``ema = w * x + (1 - w) * ema``.

    The first observation initializes the average directly.
    """

    def __init__(self, weight: float = 0.2) -> None:
        if not 0.0 < weight <= 1.0:
            raise ControlError("EMA weight must be in (0, 1]")
        self.weight = weight
        #: Current average, or None before any observation.  A plain
        #: attribute: the predictor folds samples in inline on its
        #: per-sample path, with the same expression as :meth:`update`.
        self.value: Optional[float] = None

    @property
    def initialized(self) -> bool:
        """True once at least one observation has been folded in."""
        return self.value is not None

    def update(self, sample: float) -> float:
        """Fold ``sample`` into the average and return the new value."""
        if self.value is None:
            self.value = sample
        else:
            self.value = self.weight * sample + (1.0 - self.weight) * self.value
        return self.value

    def reset(self) -> None:
        """Forget all history."""
        self.value = None


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; raises on empty input."""
    if not values:
        raise ControlError("mean of empty sequence")
    return sum(values) / len(values)


def stddev(values: Sequence[float]) -> float:
    """Population standard deviation (the paper reports run-set sigma)."""
    if not values:
        raise ControlError("stddev of empty sequence")
    mu = mean(values)
    return math.sqrt(sum((v - mu) ** 2 for v in values) / len(values))


def pearson_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient of two equal-length sequences.

    Returns 0.0 when either sequence is (numerically) constant, which is
    the safe answer for the coarse controller's "strong correlation"
    heuristic.
    """
    if len(xs) != len(ys):
        raise ControlError("correlation needs equal-length sequences")
    if len(xs) < 2:
        return 0.0
    mx = mean(xs)
    my = mean(ys)
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    var_x = sum((x - mx) ** 2 for x in xs)
    var_y = sum((y - my) ** 2 for y in ys)
    if var_x <= 0.0 or var_y <= 0.0:
        return 0.0
    return cov / math.sqrt(var_x * var_y)


def harmonic_mean(values: Sequence[float]) -> float:
    """Harmonic mean (used for summarizing relative BG throughput)."""
    if not values:
        raise ControlError("harmonic mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ControlError("harmonic mean needs positive values")
    return len(values) / sum(1.0 / v for v in values)
