"""FLOAT001: order-sensitive float accumulation over unordered iterables.

Float addition is not associative, so ``sum()`` over a set (or a
comprehension over one) can change in the last ulp between runs — and
the metrics and power layers reconcile energies to <1e-9 J, where a
flipped summation order is a real diff. In those numeric layers
(``metrics``, ``power``, ``telemetry``) such a sum is this rule's
finding rather than DET004's, because the fix differs: ``sorted(...)``
pins the order, or ``math.fsum(...)`` makes the sum order-independent
outright (it is not a ``sum()``, so it is never flagged here). DET004's
set-typed-local taint walk finds both rules' hits in one pass, so a
defect is reported once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.analysis.registry import LintRule, register
from repro.analysis.rules_det import NUMERIC_LAYERS, set_order_hits

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engine import ModuleContext
    from repro.analysis.findings import Finding


@register
class UnorderedFloatSumRule(LintRule):
    code = "FLOAT001"

    def check(self, ctx: "ModuleContext") -> List["Finding"]:
        if ctx.layer not in NUMERIC_LAYERS:
            return []
        return [
            self.finding(ctx, node, message)
            for code, node, message in set_order_hits(ctx)
            if code == self.code
        ]
