"""Confidence radii for the sampled estimators."""

from __future__ import annotations

import math


def hoeffding_radius(samples: int, confidence: float) -> float:
    """Two-sided Hoeffding radius for a mean of [0,1] samples."""
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0,1)")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * samples))


def chernoff_radius(samples: int, confidence: float, variance_hat: float) -> float:
    """Two-sided Bernstein-style radius from the sum-form inequality.

    Solves N r^2 / (2(v + r/3)) = ln(2/(1-confidence)) for r, using the
    empirical per-sample variance v.
    """
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0,1)")
    big_l = math.log(2.0 / (1.0 - confidence))
    a = 2.0 * big_l / (3.0 * samples)
    return 0.5 * (a + math.sqrt(a * a + 8.0 * big_l * max(variance_hat, 0.0) / samples))
