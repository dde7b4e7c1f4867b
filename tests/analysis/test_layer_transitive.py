"""LAYER001/LAYER002: the matrix over the import graph, direct and
transitive imports alike, each crossing reported once."""


def _layer(findings, code):
    return [f for f in findings if f.code == code]


def test_kernel_reaches_harness_through_intermediate(lint_tree):
    findings = lint_tree(
        {
            "harness/runner.py": "X = 1\n",
            "util/shim.py": "import repro.harness.runner\n",
            "sim/user.py": "import repro.util.shim\n",
        }
    )
    hits = [
        f
        for f in _layer(findings, "LAYER001")
        if f.path.endswith("sim/user.py")
    ]
    assert len(hits) == 1
    assert hits[0].line == 1  # anchored at the first hop's import
    assert "repro.util.shim -> repro.harness.runner" in hits[0].message


def test_direct_violation_not_double_reported(lint_tree):
    """A direct forbidden import is reported as such; its own imports
    must not re-report it as a transitive path."""
    findings = lint_tree(
        {
            "harness/runner.py": "X = 1\n",
            "sim/user.py": "import repro.harness.runner\n",
        }
    )
    hits = _layer(findings, "LAYER001")
    assert len(hits) == 1  # exactly one — the direct finding
    assert "must not import" in hits[0].message


def test_numpy_reaches_sim_through_reexport(lint_tree):
    findings = lint_tree(
        {
            "util/mathy.py": "import numpy\n",
            "sim/disp.py": "import repro.util.mathy\n",
        }
    )
    hits = [
        f
        for f in _layer(findings, "LAYER002")
        if f.path.endswith("sim/disp.py")
    ]
    assert len(hits) == 1
    assert "repro.util.mathy -> numpy" in hits[0].message


def test_numpy_via_sim_rng_sanctioned(lint_tree):
    findings = lint_tree(
        {
            "sim/rng.py": "import numpy\n",
            "sim/disp.py": "import repro.sim.rng\n",
        }
    )
    assert _layer(findings, "LAYER002") == []


def test_telemetry_clock_shim_skip_holds_transitively(lint_tree):
    """telemetry -> harness.clock is the sanctioned edge; reachability
    must not traverse *through* it into the rest of the harness."""
    findings = lint_tree(
        {
            "harness/clock.py": "import repro.harness.runner\n",
            "harness/runner.py": "X = 1\n",
            "telemetry/prof.py": "import repro.harness.clock\n",
        }
    )
    assert [
        f
        for f in _layer(findings, "LAYER001")
        if f.path.endswith("telemetry/prof.py")
    ] == []


def test_direct_and_transitive_layer001_each_reported_once(lint_tree):
    findings = lint_tree(
        {
            "harness/runner.py": "X = 1\n",
            "util/shim.py": "import repro.harness.runner\n",
            "cli.py": "X = 1\n",
            "core/user.py": (
                "import repro.cli\n"
                "import repro.util.shim\n"
            ),
        }
    )
    hits = [
        f
        for f in _layer(findings, "LAYER001")
        if f.path.endswith("core/user.py")
    ]
    assert [(f.line, f.message.split(" ")[3]) for f in hits] == [
        (1, "must"),
        (2, "reaches"),
    ]
    assert "must not import `repro.cli`" in hits[0].message
    assert "repro.util.shim -> repro.harness.runner" in hits[1].message


def test_direct_and_transitive_layer002_each_reported_once(lint_tree):
    findings = lint_tree(
        {
            "util/mathy.py": "import numpy\n",
            "sim/disp.py": (
                "import numpy as np\n"
                "import repro.util.mathy\n"
            ),
            "sim/fast.py": "import repro.util.mathy\n",
        }
    )
    direct = [
        f for f in _layer(findings, "LAYER002") if f.path.endswith("sim/disp.py")
    ]
    transitive = [
        f for f in _layer(findings, "LAYER002") if f.path.endswith("sim/fast.py")
    ]
    assert [f.line for f in direct] == [1]
    assert "must stay scalar" in direct[0].message
    assert [f.line for f in transitive] == [1]
    assert "repro.util.mathy -> numpy" in transitive[0].message
