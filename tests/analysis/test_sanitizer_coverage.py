"""The sanitizer sees every schedule on the figure rigs.

``SanitizingEnvironment`` records call sites by overriding
``schedule`` and ``timeout``. An event that reaches the queue any other
way dispatches without a record, and the sanitizer falls back to
treating it as never racy (``<pre-sanitizer>``) — a blind spot, not a
clean bill. Every kernel fast path must therefore keep scheduling
through those two methods; this holds the Figure 9 implementations,
and the BW/Yield spinners whose core holds are granted inline, to
that.
"""

import pytest

from repro.analysis.sanitizer import SanitizingEnvironment, SimultaneitySanitizer
from repro.core.system import PBPLSystem
from repro.harness.params import StandardParams
from repro.harness.runner import CONSUMER_CORE, Rig, base_trace
from repro.impls.multi import MultiPairSystem, phase_shifted_traces


class ScheduleAudit(SimultaneitySanitizer):
    """Counts dispatched events that no ``on_schedule`` call announced."""

    def __init__(self):
        super().__init__()
        self._announced = set()
        self.dispatched = 0
        self.unannounced = 0

    def on_schedule(self, event, when, priority):
        self._announced.add(id(event))
        super().on_schedule(event, when, priority)

    def begin_dispatch(self, event, when, priority):
        self.dispatched += 1
        try:
            self._announced.remove(id(event))
        except KeyError:
            self.unannounced += 1
        super().begin_dispatch(event, when, priority)


@pytest.mark.parametrize("impl", ["Mutex", "Sem", "BP", "PBPL", "BW", "Yield"])
def test_every_dispatched_event_has_a_schedule_record(impl):
    params = StandardParams(duration_s=0.3, seed=2014)
    audit = ScheduleAudit()
    rig = Rig.build(params, 0, env=SanitizingEnvironment(sanitizer=audit))
    traces = phase_shifted_traces(base_trace(params, 0), 3)
    if impl == "PBPL":
        system = PBPLSystem(
            rig.env,
            rig.machine,
            traces,
            params.pbpl_config(params.buffer_size),
            consumer_cores=[CONSUMER_CORE],
        )
    else:
        system = MultiPairSystem(
            rig.env,
            rig.machine,
            impl,
            traces,
            params.pc_config(params.buffer_size),
            consumer_cores=[CONSUMER_CORE],
        )
    system.start()
    rig.env.run(until=params.duration_s)
    report = audit.finish()
    assert audit.dispatched > 1000
    assert audit.dispatched == report.events_seen
    assert audit.unannounced == 0, (
        f"{audit.unannounced} of {audit.dispatched} events bypassed "
        "env.schedule/env.timeout"
    )
