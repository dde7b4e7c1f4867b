"""Streaming quantile estimation (the P² algorithm).

Long experiments at realistic rates consume millions of items; storing
every response latency to compute a p99 afterwards costs memory and
cache pressure the simulation doesn't need. Jain & Chlamtac's P²
algorithm (CACM 1985) maintains a quantile estimate with five markers
and O(1) work per observation — the classic tool for exactly this job.

:class:`P2Quantile` estimates one quantile; :class:`StreamingLatency`
keeps a count/mean/max next to a set of P² markers. It is the fallback
that gives ``track_latencies=False`` runs their percentiles back:
:class:`~repro.impls.base.PairStats` feeds it only when raw latencies
are not kept, since tracked runs report exact percentiles from the raw
samples and would never read the estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence


class P2Quantile:
    """Single-quantile P² estimator.

    Parameters
    ----------
    q:
        The target quantile in (0, 1), e.g. 0.99.
    """

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self._initial: List[float] = []
        # Marker heights, positions (1-based), desired positions, increments.
        self._heights: List[float] = []
        self._pos: List[float] = []
        self._desired: List[float] = []
        self._incr: List[float] = []
        self.n = 0

    def observe(self, x: float) -> None:
        """Feed one observation.

        Once the five markers exist this method *is* the P² update: the
        per-observation hot path runs in this frame (three estimators
        per consumed item, no second call). Locals are bound once and
        the marker adjustment is inlined — the arithmetic (expressions
        *and* evaluation order) is kept exactly as in the reference
        ``_parabolic``/``_linear`` methods so results stay bit-identical.
        """
        self.n += 1
        h = self._heights
        if not h:
            self._initial.append(x)
            if len(self._initial) == 5:
                self._initial.sort()
                q = self.q
                self._heights = list(self._initial)
                self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [1.0, 1 + 2 * q, 1 + 4 * q, 3 + 2 * q, 5.0]
                self._incr = [0.0, q / 2, q, (1 + q) / 2, 1.0]
            return
        pos = self._pos
        desired = self._desired
        incr = self._incr
        # Locate the cell and clamp extremes.
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            while k < 3 and x >= h[k + 1]:
                k += 1
        if k == 0:
            pos[1] += 1
            pos[2] += 1
            pos[3] += 1
        elif k == 1:
            pos[2] += 1
            pos[3] += 1
        elif k == 2:
            pos[3] += 1
        pos[4] += 1
        desired[0] += incr[0]
        desired[1] += incr[1]
        desired[2] += incr[2]
        desired[3] += incr[3]
        desired[4] += incr[4]
        # Adjust the three interior markers.
        for i in (1, 2, 3):
            pi = pos[i]
            d = desired[i] - pi
            pp = pos[i + 1]
            pm = pos[i - 1]
            if (d >= 1 and pp - pi > 1) or (d <= -1 and pm - pi < -1):
                sign = 1.0 if d >= 0 else -1.0
                hi = h[i]
                hp = h[i + 1]
                hm = h[i - 1]
                candidate = hi + sign / (pp - pm) * (
                    (pi - pm + sign) * (hp - hi) / (pp - pi)
                    + (pp - pi - sign) * (hi - hm) / (pi - pm)
                )
                if hm < candidate < hp:
                    h[i] = candidate
                else:
                    j = i + int(sign)
                    h[i] = hi + sign * (h[j] - hi) / (pos[j] - pi)
                pos[i] = pi + sign

    def _parabolic(self, i: int, sign: float) -> float:
        h, pos = self._heights, self._pos
        return h[i] + sign / (pos[i + 1] - pos[i - 1]) * (
            (pos[i] - pos[i - 1] + sign)
            * (h[i + 1] - h[i])
            / (pos[i + 1] - pos[i])
            + (pos[i + 1] - pos[i] - sign)
            * (h[i] - h[i - 1])
            / (pos[i] - pos[i - 1])
        )

    def _linear(self, i: int, sign: float) -> float:
        h, pos = self._heights, self._pos
        j = i + int(sign)
        return h[i] + sign * (h[j] - h[i]) / (pos[j] - pos[i])

    @property
    def value(self) -> float:
        """Current estimate of the target quantile."""
        if self._heights:
            return self._heights[2]
        if not self._initial:
            return 0.0
        ordered = sorted(self._initial)
        idx = min(len(ordered) - 1, int(round(self.q * (len(ordered) - 1))))
        return ordered[idx]

    def __repr__(self) -> str:
        return f"<P2Quantile q={self.q} n={self.n} value={self.value:.4g}>"


@dataclass
class StreamingLatency:
    """Constant-memory latency statistics for very long runs.

    The P² marker updates are *deferred*: ``observe`` only appends to a
    bounded staging buffer, and the estimators replay it on the first
    quantile read (or when the buffer fills, keeping memory constant).
    P² is order-dependent but deterministic, and the estimators are
    mutually independent, so replaying the buffered values in arrival
    order — one estimator at a time — produces bit-identical marker
    state to the old eager per-observation update. A stream that is
    never read skips the P² arithmetic for everything still in the
    buffer. (``track_latencies=True`` pairs, which report exact
    percentiles from the raw samples, do not feed a stream at all.)
    """

    quantiles: Sequence[float] = (0.5, 0.95, 0.99)
    _estimators: Dict[float, P2Quantile] = field(default_factory=dict)
    count: int = 0
    total: float = 0.0
    maximum: float = 0.0

    #: Staging-buffer cap; bounds deferred memory at a few pages.
    _FLUSH_AT = 4096

    def __post_init__(self) -> None:
        for q in self.quantiles:
            self._estimators[q] = P2Quantile(q)
        # Stable tuple view of the estimators for the replay loop
        # (dict.values() builds a view object on every call).
        self._est = tuple(self._estimators.values())
        self._pending: List[float] = []

    def observe(self, latency_s: float) -> None:
        self.count += 1
        self.total += latency_s
        if latency_s > self.maximum:
            self.maximum = latency_s
        pending = self._pending
        pending.append(latency_s)
        if len(pending) >= self._FLUSH_AT:
            self._drain()

    def _drain(self) -> None:
        """Replay staged observations into the P² estimators."""
        pending = self._pending
        if not pending:
            return
        for estimator in self._est:
            observe = estimator.observe
            for x in pending:
                observe(x)
        pending.clear()

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated quantile (must be one of the configured targets)."""
        if q not in self._estimators:
            raise KeyError(f"quantile {q} not tracked; have {sorted(self._estimators)}")
        self._drain()
        return self._estimators[q].value
