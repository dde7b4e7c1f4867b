"""Per-rule fixture tests: positive finding, suppression, clean variant."""

from tests.analysis.conftest import codes


# -- DET001: wall clock ------------------------------------------------------


def test_det001_flags_time_calls(lint_snippet):
    findings = lint_snippet(
        "import time\n"
        "def f():\n"
        "    return time.perf_counter()\n"
    )
    assert codes(findings) == ["DET001"]
    assert findings[0].line == 3
    assert "perf_counter" in findings[0].message


def test_det001_flags_from_import_alias(lint_snippet):
    findings = lint_snippet(
        "from time import monotonic as mono\n"
        "t = mono()\n"
    )
    assert codes(findings) == ["DET001"]


def test_det001_suppressed_by_pragma(lint_snippet):
    findings = lint_snippet(
        "import time\n"
        "t = time.time()  # repro: allow[DET001]\n"
    )
    assert findings == []


def test_det001_exempt_in_clock_shim(lint_snippet):
    findings = lint_snippet(
        "import time\n"
        "def perf_counter():\n"
        "    return time.perf_counter()\n",
        rel="harness/clock.py",
    )
    assert findings == []


# -- DET002: entropy ---------------------------------------------------------


def test_det002_flags_urandom_and_uuid4(lint_snippet):
    findings = lint_snippet(
        "import os\n"
        "import uuid\n"
        "a = os.urandom(8)\n"
        "b = uuid.uuid4()\n"
    )
    assert codes(findings) == ["DET002", "DET002"]


def test_det002_family_pragma_covers_code(lint_snippet):
    findings = lint_snippet(
        "import os\n"
        "a = os.urandom(8)  # repro: allow[DET]\n"
    )
    assert findings == []


# -- DET003: RNG discipline --------------------------------------------------


def test_det003_flags_global_random(lint_snippet):
    findings = lint_snippet(
        "import random\n"
        "x = random.random()\n"
    )
    assert codes(findings) == ["DET003"]


def test_det003_exempt_in_rng_home(lint_snippet):
    findings = lint_snippet(
        "import random\n"
        "def make(seed):\n"
        "    return random.Random(seed)\n",
        rel="sim/rng.py",
    )
    assert findings == []


# -- DET004: set-iteration order ---------------------------------------------


def test_det004_flags_loop_over_set(lint_snippet):
    findings = lint_snippet(
        "def f():\n"
        "    owners = {1, 2, 3}\n"
        "    out = []\n"
        "    for o in owners:\n"
        "        out.append(o)\n"
        "    return out\n"
    )
    assert codes(findings) == ["DET004"]
    assert findings[0].line == 4


def test_det004_sorted_sanctions_iteration(lint_snippet):
    findings = lint_snippet(
        "def f():\n"
        "    owners = {1, 2, 3}\n"
        "    return [o for o in sorted(owners)]\n"
    )
    assert findings == []


def test_det004_flags_sum_over_set(lint_snippet):
    """Float addition is not associative, so ``sum()`` over a set rounds
    by hash order; DET004 sees it in every layer, not only FLOAT001's."""
    findings = lint_snippet(
        "def total(xs):\n"
        "    return sum({x * 2.0 for x in xs})\n",
        rel="core/acc.py",
    )
    assert codes(findings) == ["DET004"]
    assert "via sum()" in findings[0].message


def test_det004_min_max_over_set_stay_clean(lint_snippet):
    findings = lint_snippet(
        "def bounds(xs):\n"
        "    live = set(xs)\n"
        "    return min(live), max(live)\n",
        rel="core/acc.py",
    )
    assert findings == []


def test_det004_standalone_pragma_covers_next_line(lint_snippet):
    findings = lint_snippet(
        "def f():\n"
        "    owners = {1, 2, 3}\n"
        "    # repro: allow[DET004]\n"
        "    return list(owners)\n"
    )
    assert findings == []


# -- LAYER001: import matrix -------------------------------------------------


def test_layer001_kernel_must_not_import_harness(lint_snippet):
    findings = lint_snippet(
        "from repro.harness import runner\n",
        rel="core/manager_ext.py",
    )
    assert codes(findings) == ["LAYER001"]
    assert "repro.harness" in findings[0].message


def test_layer001_harness_may_import_anything(lint_snippet):
    findings = lint_snippet(
        "from repro.harness import runner\n"
        "from repro.faults import chaos\n",
        rel="harness/extra.py",
    )
    assert findings == []


def test_layer001_type_checking_imports_exempt(lint_snippet):
    findings = lint_snippet(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from repro.harness import runner\n",
        rel="sim/typing_only.py",
    )
    assert findings == []


# -- LAYER002: numpy stays out of the scalar DES core ------------------------


def test_layer002_sim_core_must_not_import_numpy(lint_snippet):
    findings = lint_snippet(
        "import numpy as np\n",
        rel="sim/fastpath.py",
    )
    assert codes(findings) == ["LAYER002"]
    assert "scalar" in findings[0].message


def test_layer002_numpy_submodule_counts(lint_snippet):
    findings = lint_snippet(
        "from numpy.random import Generator\n",
        rel="sim/fastpath.py",
    )
    assert codes(findings) == ["LAYER002"]


def test_layer002_sim_rng_is_exempt(lint_snippet):
    findings = lint_snippet(
        "import numpy as np\n",
        rel="sim/rng.py",
    )
    assert findings == []


def test_layer002_workloads_and_power_are_sanctioned(lint_snippet):
    for rel in ("workloads/vectors.py", "power/vectors.py"):
        findings = lint_snippet("import numpy as np\n", rel=rel)
        assert findings == [], rel


# -- PURE: kernel purity -----------------------------------------------------


def test_pure001_flags_kernel_file_io(lint_snippet):
    findings = lint_snippet(
        "def dump(path, data):\n"
        "    with open(path, 'w') as fh:\n"
        "        fh.write(data)\n",
        rel="buffers/dumper.py",
    )
    assert codes(findings) == ["PURE001"]


def test_pure001_harness_io_is_fine(lint_snippet):
    findings = lint_snippet(
        "def dump(path, data):\n"
        "    with open(path, 'w') as fh:\n"
        "        fh.write(data)\n",
        rel="harness/dumper.py",
    )
    assert findings == []


def test_pure002_flags_kernel_threading(lint_snippet):
    findings = lint_snippet(
        "import threading\n",
        rel="cpu/spinner.py",
    )
    assert codes(findings) == ["PURE002"]


def test_pure003_flags_environ_everywhere(lint_snippet):
    findings = lint_snippet(
        "import os\n"
        "jobs = os.environ.get('REPRO_JOBS')\n",
        rel="harness/settings.py",
    )
    assert codes(findings) == ["PURE003"]


def test_pure003_exempt_in_params(lint_snippet):
    findings = lint_snippet(
        "import os\n"
        "jobs = os.environ.get('REPRO_JOBS')\n",
        rel="harness/params.py",
    )
    assert findings == []


# -- TRACE001: registered names ----------------------------------------------


def test_trace001_flags_unregistered_name(lint_snippet):
    findings = lint_snippet(
        "def emit(tracer):\n"
        "    tracer.instant('core0', 'bogus.name')\n",
        rel="core/emitter.py",
    )
    assert codes(findings) == ["TRACE001"]
    assert "bogus.name" in findings[0].message


def test_trace001_registered_name_is_clean(lint_snippet):
    findings = lint_snippet(
        "def emit(tracer):\n"
        "    tracer.instant('core0', 'slot')\n"
        "    tracer.counter('core0', 'power_w', 1.0)\n",
        rel="core/emitter.py",
    )
    assert findings == []


def test_trace001_dynamic_names_not_flagged(lint_snippet):
    findings = lint_snippet(
        "def emit(tracer, label):\n"
        "    tracer.instant('core0', label)\n",
        rel="core/emitter.py",
    )
    assert findings == []


def test_trace001_suppressed_by_pragma(lint_snippet):
    findings = lint_snippet(
        "def emit(tracer):\n"
        "    tracer.instant('c', 'adhoc')  # repro: allow[TRACE001]\n",
        rel="core/emitter.py",
    )
    assert findings == []
