"""Statistics used by the paper's evaluation.

Covers exactly what §III-B/§III-C report: means with 95 % confidence
intervals over replicates, Pearson correlations between metrics across
implementations, and the hypothesis test "wakeups have a significant
effect on power" accepted at 99 % confidence (via the regression slope
t-test).

The two Student-t calls those need are computed here in pure Python,
so nothing heavier than numpy is imported. ``t_sf`` is the tail
½·I_{df/(df+t²)}(df/2, ½), with the regularized incomplete beta from a
modified-Lentz continued fraction. ``t_ppf`` is closed-form for df 1
and 2 and Newton on log ``t_sf`` against log t otherwise. Both agree with
``scipy.stats.t`` to about 1e-12 relative (the tests pin this); df 2,
the 3-replicate case, is bit-equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

_EPS = 1e-15
_TINY = 1e-300
_MAX_ITER = 1000
_MIN_TAIL = 1e-280


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for I_x(a, b), modified Lentz (Numerical
    Recipes §6.4); converges fast for x < (a+1)/(a+b+2)."""
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        for num in (
            m * (b - m) * x / ((a - 1.0 + m2) * (a + m2)),
            -(a + m) * (a + b + m) * x / ((a + m2) * (a + 1.0 + m2)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + num / c
            c = c if abs(c) > _TINY else _TINY
            h *= d * c
        if abs(d * c - 1.0) < _EPS:
            return h
    raise ArithmeticError(f"incomplete beta did not converge (a={a}, b={b}, x={x})")


def _beta_inc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta I_x(a, b); ``y`` is 1 − x, passed in
    so the caller can compute it without cancellation."""
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log(y)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, y) / b


def t_sf(t: float, df: float) -> float:
    """Student-t survival function P(T > t) with ``df`` degrees of freedom."""
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if t < 0:
        return 1.0 - t_sf(-t, df)
    if math.isinf(t):
        return 0.0
    tt = t * t
    return 0.5 * _beta_inc(0.5 * df, 0.5, df / (df + tt), tt / (df + tt))


def _t_logpdf(t: float, df: float) -> float:
    log_norm = math.lgamma(0.5 * (df + 1)) - math.lgamma(0.5 * df) - 0.5 * math.log(df * math.pi)
    return log_norm - 0.5 * (df + 1) * math.log1p(t * t / df)


def t_ppf(p: float, df: float) -> float:
    """Student-t quantile: the ``t`` with P(T ≤ t) = ``p``.

    Tails below ``_MIN_TAIL`` are refused for df > 2: the Newton steps
    there can overshoot into a ``t_sf`` that underflows to zero.
    """
    if df <= 0:
        raise ValueError("degrees of freedom must be positive")
    if not 0.0 <= p <= 1.0:
        raise ValueError("probability must be in [0, 1]")
    q = min(p, 1.0 - p)  # mass in the tail beyond |t|, exact for p ≥ ½
    sign = 1.0 if p > 0.5 else -1.0
    if q == 0.5:
        return 0.0
    if q == 0.0:
        return sign * math.inf
    if df == 1:
        return sign / math.tan(math.pi * q)
    if df == 2:
        return (2.0 * p - 1.0) / math.sqrt(2.0 * p * (1.0 - p))
    if q < _MIN_TAIL:
        raise ValueError(f"tail probability {q:g} is below {_MIN_TAIL:g}")
    # Newton on log t_sf against log t, from the normal quantile. The
    # tail is near-linear on that scale for small df, so a far tail
    # takes a few steps, not hundreds. Convergence is quadratic: once a
    # relative step is below 1e-9, the error left is below rounding.
    t = -NormalDist().inv_cdf(q)
    log_q = math.log(q)
    for _ in range(_MAX_ITER):
        log_sf = math.log(t_sf(t, df))
        step = (log_sf - log_q) * math.exp(log_sf - math.log(t) - _t_logpdf(t, df))
        t *= math.exp(step)
        if abs(step) <= 1e-9:
            return sign * t
    raise ArithmeticError(f"t quantile did not converge (p={p}, df={df})")


@dataclass(frozen=True)
class Estimate:
    """A mean with its confidence half-width."""

    mean: float
    half_width: float
    n: int
    level: float = 0.95

    @property
    def low(self) -> float:
        return self.mean - self.half_width

    @property
    def high(self) -> float:
        return self.mean + self.half_width

    def __str__(self) -> str:
        return f"{self.mean:.4g} ± {self.half_width:.2g}"


def confidence_interval(values: Sequence[float], level: float = 0.95) -> Estimate:
    """Mean ± t-based CI half-width of ``values`` (the paper uses 95 %)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("no values")
    if not 0 < level < 1:
        raise ValueError("confidence level must be in (0, 1)")
    mean = float(arr.mean())
    if arr.size == 1:
        return Estimate(mean, 0.0, 1, level)
    sem = float(arr.std(ddof=1)) / math.sqrt(arr.size)
    return Estimate(mean, t_ppf(0.5 + level / 2, arr.size - 1) * sem, int(arr.size), level)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson correlation coefficient (the paper quotes −79.6 %, +74 %,
    +12 % between wakeups/usage and power across implementations)."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size or x.size < 2:
        raise ValueError("need two equally sized samples of length >= 2")
    sx, sy = x.std(), y.std()
    if sx == 0 or sy == 0:
        return 0.0
    # Round-off in the two std/covariance passes can push |r| a hair
    # past 1 (e.g. near-degenerate samples with subnormal spread).
    r = ((x - x.mean()) * (y - y.mean())).mean() / (sx * sy)
    return float(min(1.0, max(-1.0, r)))


@dataclass(frozen=True)
class SlopeTest:
    """Result of the wakeups→power significance test."""

    slope: float
    p_value: float
    r: float
    n: int

    def significant(self, confidence: float = 0.99) -> bool:
        """True if the effect is significant at ``confidence`` (paper: 99 %)."""
        return self.p_value < 1 - confidence


def wakeup_power_significance(
    wakeups: Sequence[float], power: Sequence[float]
) -> SlopeTest:
    """The paper's H0 test: regress power on wakeups/s, test slope ≠ 0.

    Returns the two-sided p-value of the regression slope; the paper
    "accepts the hypothesis [that wakeups have a significant effect on
    power] with 99 % confidence", i.e. p < 0.01.
    """
    x = np.asarray(wakeups, dtype=float)
    y = np.asarray(power, dtype=float)
    if x.size != y.size or x.size < 3:
        raise ValueError("need at least 3 paired observations")
    r = pearson(x, y)
    n = x.size
    slope = r * y.std() / x.std() if x.std() > 0 else 0.0
    if abs(r) >= 1.0:
        return SlopeTest(slope, 0.0, r, n)
    t = r * math.sqrt((n - 2) / (1 - r * r))
    return SlopeTest(slope, 2 * t_sf(abs(t), n - 2), r, n)


def percent_change(baseline: float, value: float) -> float:
    """Signed percent change from ``baseline`` to ``value`` (negative =
    reduction — how the paper phrases "lowers X by N %")."""
    if baseline == 0:
        raise ValueError("baseline is zero")
    return (value - baseline) / baseline * 100.0
