"""Typed metric instruments: counters, gauges, fixed-bucket histograms.

The trace subsystem records *every* event; these instruments record
*aggregates* — a handful of numbers per series regardless of run
length, which is what the ROADMAP's 1k–10k-pair direction can afford.
All state lives in plain attributes behind ``__slots__`` so the hot
path is one attribute load plus an add.

Histograms use fixed upper bounds (``le`` semantics, like Prometheus):
bucket *i* counts observations ``<= bounds[i]``, with one implicit
``+Inf`` overflow bucket. Buckets store *non-cumulative* counts so two
histograms over the same bounds merge by element-wise addition — an
associative, commutative operation, which is what makes tumbling-window
deltas recombine into the cumulative total in any grouping (tested by
hypothesis in ``tests/telemetry``).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Sequence


class Counter:
    """Monotonic counter. ``inc`` accepts ints or floats (joules)."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount=1) -> None:
        if amount < 0:
            raise ValueError("counter increments must be non-negative")
        self.value += amount


class View:
    """A counter or gauge series whose value is read from the model.

    ``read`` is called at every :meth:`MetricsRegistry.snapshot`, so the
    series costs nothing while the run goes and always agrees with the
    count the model keeps. It should close over the object holding the
    count, never over something that holds the registry: that would
    make a reference cycle that keeps a finished run alive.
    """

    __slots__ = ("read",)

    def __init__(self, read: Callable[[], object]) -> None:
        self.read = read

    @property
    def value(self):
        return self.read()


class Gauge:
    """Last-write-wins instantaneous value (buffer capacity, lent slots)."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0

    def set(self, value) -> None:
        self.value = value


class Histogram:
    """Fixed-bucket histogram with associative merge.

    ``bounds`` are strictly increasing upper bounds; ``counts`` has
    ``len(bounds) + 1`` entries (the last is the +Inf overflow bucket)
    and is *non-cumulative* — the exporter computes the cumulative form
    OpenMetrics wants.
    """

    __slots__ = ("bounds", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, bounds: Sequence[float]) -> None:
        b = tuple(float(x) for x in bounds)
        if not b:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValueError(f"bucket bounds must be strictly increasing: {b}")
        self.bounds = b
        self.counts = [0] * (len(b) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def merge(self, other: "Histogram") -> "Histogram":
        """Element-wise sum of two histograms over identical bounds."""
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        out = Histogram(self.bounds)
        out.counts = [a + b for a, b in zip(self.counts, other.counts)]
        out.sum = self.sum + other.sum
        out.count = self.count + other.count
        return out

    def delta(self, prev: "Histogram") -> "Histogram":
        """This histogram minus an earlier snapshot of the same series."""
        if self.bounds != prev.bounds:
            raise ValueError("delta requires identical bucket bounds")
        out = Histogram(self.bounds)
        out.counts = [a - b for a, b in zip(self.counts, prev.counts)]
        out.sum = self.sum - prev.sum
        out.count = self.count - prev.count
        return out

    def copy(self) -> "Histogram":
        out = Histogram(self.bounds)
        out.counts = list(self.counts)
        out.sum = self.sum
        out.count = self.count
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.bounds == other.bounds
            and self.counts == other.counts
            and self.sum == other.sum
            and self.count == other.count
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram(bounds={self.bounds}, counts={self.counts}, "
            f"sum={self.sum}, count={self.count})"
        )
