"""The sanitizer sees every mutation of the one bounded FIFO.

``install_probes`` wraps the buffer's mutators. A mutator it does not
wrap (say, a new fast path) would let a same-timestamp race on a buffer
pass unflagged, so these tests hold the probe list to the class: every
public method either leaves the buffer as it was or is probed, and a
same-timestamp double push is flagged on the buffer each §VI
implementation really builds.
"""

import pytest

from repro.analysis import sanitizer
from repro.analysis.sanitizer import SanitizingEnvironment, install_probes
from repro.buffers import BoundedBuffer, BufferOverflow, BufferUnderflow
from repro.core.system import PBPLSystem
from repro.harness.params import StandardParams
from repro.harness.runner import CONSUMER_CORE, Rig, base_trace
from repro.impls.multi import MultiPairSystem, phase_shifted_traces

#: Arguments for every public method of BoundedBuffer. A method missing
#: here fails the coverage test until it is listed (and, if it mutates
#: the buffer, probed).
CALLS = {
    "push": (7.0,),
    "try_push": (7.0,),
    "pop": (),
    "peek": (),
    "drain": (),
    "set_capacity": (5,),
}


class _Recorder:
    def __init__(self):
        self.ops = []

    def touch(self, obj, op):
        self.ops.append(op)


def _state(buf):
    return (
        list(buf),
        buf.capacity,
        buf.pushes,
        buf.pops,
        buf.overflows,
        buf.items_dropped,
    )


def _public_methods():
    return sorted(
        name
        for name, value in vars(BoundedBuffer).items()
        if callable(value) and not name.startswith("_")
    )


def test_every_public_method_is_listed():
    assert _public_methods() == sorted(CALLS)


@pytest.mark.parametrize("fill", [0, 2, 3])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_every_mutation_is_probed(name, fill):
    """Empty, part-full and full buffers: whatever changes the buffer
    must have gone through a probe."""
    install_probes()
    buf = BoundedBuffer(3, policy="drop-oldest")
    for i in range(fill):
        buf.push(float(i))
    before = _state(buf)
    recorder = _Recorder()
    previous = sanitizer._activate(recorder)
    try:
        getattr(buf, name)(*CALLS[name])
    except (BufferOverflow, BufferUnderflow):
        pass
    finally:
        sanitizer._deactivate(previous)
    if _state(buf) != before:
        assert recorder.ops == [name]


def _built_buffer(impl, env):
    params = StandardParams(duration_s=1.0, seed=2014)
    rig = Rig.build(params, 0, env=env)
    traces = phase_shifted_traces(base_trace(params, 0), 2)
    cores = [CONSUMER_CORE]
    if impl == "PBPL":
        system = PBPLSystem(
            env, rig.machine, traces, params.pbpl_config(), consumer_cores=cores
        )
    else:
        system = MultiPairSystem(
            env, rig.machine, impl, traces, params.pc_config(), consumer_cores=cores
        )
    return system.pairs[0].buffer


@pytest.mark.parametrize("impl", ["Mutex", "Sem", "BP", "PBPL"])
def test_same_timestamp_double_push_is_flagged(impl):
    install_probes()
    env = SanitizingEnvironment()
    buffer = _built_buffer(impl, env)

    def pusher_a():
        yield env.timeout(0.5)
        buffer.push(0.5)

    def pusher_b():
        yield env.timeout(0.5)
        buffer.push(0.5)

    env.process(pusher_a(), name="a")
    env.process(pusher_b(), name="b")
    env.run(until=0.6)
    report = env.sanitizer.finish()

    races = [r for r in report.races if r.state.startswith("BoundedBuffer")]
    assert len(races) == 1
    race = races[0]
    assert race.time_s == 0.5
    assert race.ops_a == race.ops_b == ("push",)
    assert "pusher_a" in race.site_a and "pusher_b" in race.site_b
