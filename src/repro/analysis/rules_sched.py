"""SCHED rules: static scheduling-tie hazards.

The kernel breaks equal-timestamp ties by ``(priority, scheduling
order)``; scheduling order is an accident of code layout, so any two
events that can land on the same virtual timestamp *without an explicit
priority* are ordered by luck. The dynamic sanitizer
(``repro chaos --sanitize``) catches such pairs when a run actually
produces them; these rules are its static companion, flagging the call
sites that can produce them on *some* run:

SCHED001  a priority-less ``schedule()`` call site that can share a
          virtual timestamp with another event: either it aims at an
          **absolute** boundary (a delay of the form ``T - env.now``), or a
          second priority-less site in a *different function* uses a
          structurally identical delay expression (both zero-delay
          sites tie at "now"; two ``delay=self.delta`` sites tie at the
          next slot boundary).
SCHED002  a priority-less ``schedule()`` with a loop-invariant delay
          inside a loop — the whole fan-out lands on one timestamp and
          its internal order is pure insertion order.

Both are heuristics (statically deciding "can tie" is undecidable);
they are deliberately precise about the one thing that makes a tie
*harmless* — an explicit ``priority=`` argument — so the fix is always
local: state the intended order, or suppress with a justification.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.analysis.registry import ProjectRule, register

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.callgraph import Project
    from repro.analysis.findings import Finding


def _sites(project: "Project"):
    for facts in project.facts:
        for site in facts["sched_sites"]:
            yield facts["path"], site


@register
class StaticTieRule(ProjectRule):
    code = "SCHED001"

    def check_project(self, project: "Project") -> List["Finding"]:
        out: List["Finding"] = []
        groups: Dict[Tuple[str, str], List[Tuple[str, dict]]] = {}
        for path, site in _sites(project):
            if site["has_priority"]:
                continue
            if site["delay_kind"] == "abs":
                out.append(
                    self.finding(
                        path,
                        site["line"],
                        site["col"],
                        f"`.schedule(...)` aims at an absolute "
                        f"timestamp without an explicit priority — any "
                        f"other event at that boundary ties, and the tie "
                        f"is broken by insertion order",
                    )
                )
                continue
            groups.setdefault(
                (site["delay_kind"], site["delay_norm"]), []
            ).append((path, site))
        for (_kind, _norm), members in sorted(groups.items()):
            functions = {
                (path, site["func"]) for path, site in members
            }
            if len(functions) < 2:
                continue
            for path, site in members:
                other = next(
                    (
                        (p, s)
                        for p, s in members
                        if (p, s["func"]) != (path, site["func"])
                    ),
                )
                delay = (
                    "zero delay"
                    if site["delay_kind"] == "zero"
                    else "an identical delay expression"
                )
                out.append(
                    self.finding(
                        path,
                        site["line"],
                        site["col"],
                        f"priority-less `.schedule(...)` with "
                        f"{delay} can tie with "
                        f"{other[0]}:{other[1]['line']} "
                        f"(in {other[1]['func']}) — pass an explicit "
                        f"priority to state the intended order",
                    )
                )
        return out


@register
class LoopFanoutTieRule(ProjectRule):
    code = "SCHED002"

    def check_project(self, project: "Project") -> List["Finding"]:
        out: List["Finding"] = []
        for path, site in _sites(project):
            if site["has_priority"] or not site["in_loop"]:
                continue
            if not site["loop_invariant"]:
                continue
            out.append(
                self.finding(
                    path,
                    site["line"],
                    site["col"],
                    f"`.schedule(...)` in a loop with a "
                    f"loop-invariant delay schedules the whole fan-out "
                    f"onto one timestamp without a priority — their "
                    f"mutual order is insertion order",
                )
            )
        return out
