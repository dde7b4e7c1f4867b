"""SCHED001/SCHED002: static scheduling-tie hazards."""

from .conftest import codes


def _sched(findings, code):
    return [f for f in findings if f.code == code]


def test_absolute_aim_without_priority_flagged(lint_tree):
    findings = lint_tree(
        {
            "core/aim.py": (
                "BOUNDARY_S = 0.5\n"
                "\n"
                "\n"
                "def aim(env, event):\n"
                "    env.schedule(event, delay=BOUNDARY_S - env.now)\n"
            ),
        }
    )
    hits = _sched(findings, "SCHED001")
    assert len(hits) == 1 and hits[0].line == 5
    assert "absolute" in hits[0].message


def test_absolute_aim_with_priority_clean(lint_tree):
    findings = lint_tree(
        {
            "core/aim.py": (
                "BOUNDARY_S = 0.5\n"
                "\n"
                "\n"
                "def aim(env, event):\n"
                "    env.schedule(event, delay=BOUNDARY_S - env.now, priority=2)\n"
            ),
        }
    )
    assert codes(findings) == []


def test_identical_delays_across_functions_flag_pairwise(lint_tree):
    findings = lint_tree(
        {
            "core/a.py": (
                "def tick_a(env, ev):\n"
                "    env.schedule(ev, delay=0.0)\n"
            ),
            "core/b.py": (
                "def tick_b(env, ev):\n"
                "    env.schedule(ev, delay=0.0)\n"
            ),
        }
    )
    hits = _sched(findings, "SCHED001")
    assert len(hits) == 2
    # each finding names its counterpart's location
    assert any("a.py" in f.message for f in hits)
    assert any("b.py" in f.message for f in hits)


def test_single_site_same_delay_not_flagged(lint_tree):
    """One priority-less site alone can't tie with itself across
    functions — a second call site in the *same* function doesn't pair."""
    findings = lint_tree(
        {
            "core/solo.py": (
                "def tick(env, ev, ev2):\n"
                "    env.schedule(ev, delay=0.0)\n"
                "    env.schedule(ev2, delay=0.1)\n"
            ),
        }
    )
    assert _sched(findings, "SCHED001") == []


def test_priority_silences_the_pair(lint_tree):
    findings = lint_tree(
        {
            "core/a.py": (
                "def tick_a(env, ev):\n"
                "    env.schedule(ev, delay=0.0, priority=0)\n"
            ),
            "core/b.py": (
                "def tick_b(env, ev):\n"
                "    env.schedule(ev, delay=0.0, priority=1)\n"
            ),
        }
    )
    assert _sched(findings, "SCHED001") == []


def test_loop_invariant_fanout_flagged(lint_tree):
    findings = lint_tree(
        {
            "core/fan.py": (
                "def fanout(env, events):\n"
                "    for ev in events:\n"
                "        env.schedule(ev, delay=0.25)\n"
            ),
        }
    )
    hits = _sched(findings, "SCHED002")
    assert len(hits) == 1 and hits[0].line == 3
    assert "fan-out" in hits[0].message


def test_loop_varying_delay_clean(lint_tree):
    findings = lint_tree(
        {
            "core/fan.py": (
                "def fanout(env, events):\n"
                "    for i, ev in enumerate(events):\n"
                "        env.schedule(ev, delay=0.25 * i)\n"
            ),
        }
    )
    assert _sched(findings, "SCHED002") == []


def test_loop_fanout_with_priority_clean(lint_tree):
    findings = lint_tree(
        {
            "core/fan.py": (
                "def fanout(env, events):\n"
                "    for ev in events:\n"
                "        env.schedule(ev, delay=0.25, priority=3)\n"
            ),
        }
    )
    assert _sched(findings, "SCHED002") == []


def test_pragma_suppresses_sched(lint_tree):
    findings = lint_tree(
        {
            "core/aim.py": (
                "def aim(env, event, t):\n"
                "    # repro: allow[SCHED001] -- sole event at this boundary\n"
                "    env.schedule(event, delay=t - env.now)\n"
            ),
        }
    )
    assert _sched(findings, "SCHED001") == []
