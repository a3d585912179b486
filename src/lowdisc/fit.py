"""Exponent fits of scaling tables: the power of ln N in N * D ~ (ln N)^p.

Kept apart from :mod:`lowdisc.experiments` so that fitting a table loads no
generator, kernel or numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError

__all__ = ["FitResult", "fit_exponent"]


@dataclass(frozen=True)
class FitResult:
    exponent: float
    intercept: float
    residual_norm: float
    sample_count: int


def fit_exponent(rows) -> FitResult:
    """Ordinary least squares of ln(N * D) against ln ln N.

    Accepts :class:`~lowdisc.experiments.ScalingRow` lists or (n, value)
    pairs; rows need n >= 16 so ln ln n is safely positive, and at least
    three usable samples.
    """
    samples: list[tuple[int, float]] = []
    for row in rows:
        if hasattr(row, "result"):  # a ScalingRow
            if row.result is None:
                continue
            samples.append((row.n, float(row.result.midpoint)))
        else:
            n, value = row
            samples.append((int(n), float(value)))
    samples = [(n, v) for n, v in samples if n >= 16 and v > 0]
    if len(samples) < 3:
        raise ValidationError("need at least three rows with N >= 16 and positive values")
    xs = [math.log(math.log(n)) for n, _ in samples]
    ys = [math.log(n * v) for n, v in samples]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    var = sum((x - mean_x) ** 2 for x in xs)
    if var == 0:
        raise ValidationError("degenerate design: all N equal")
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / var
    intercept = mean_y - slope * mean_x
    residual = math.sqrt(sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys)))
    return FitResult(
        exponent=slope, intercept=intercept, residual_norm=residual, sample_count=len(samples)
    )
