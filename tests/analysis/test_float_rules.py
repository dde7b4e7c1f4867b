"""FLOAT001: order-sensitive float accumulation in the numeric layers."""


def _float(findings):
    return [f for f in findings if f.code == "FLOAT001"]


def test_sum_over_set_literal_flagged(lint_snippet):
    findings = lint_snippet(
        "def total(xs):\n"
        "    return sum({x * 2.0 for x in xs})"
        "  # repro: allow[DET004] -- exercising FLOAT001\n",
        rel="power/acc.py",
    )
    assert len(_float(findings)) == 1


def test_sum_over_genexp_over_set_variable_flagged(lint_snippet):
    findings = lint_snippet(
        "def total(readings):\n"
        "    live = set(readings)\n"
        "    return sum(r.joules for r in live)"
        "  # repro: allow[DET004] -- exercising FLOAT001\n",
        rel="metrics/acc.py",
    )
    assert len(_float(findings)) == 1


def test_sum_over_sorted_clean(lint_snippet):
    findings = lint_snippet(
        "def total(readings):\n"
        "    live = set(readings)\n"
        "    return sum(sorted(r.joules for r in live))\n",
        rel="power/acc.py",
    )
    assert _float(findings) == []


def test_fsum_exempt(lint_snippet):
    findings = lint_snippet(
        "import math\n"
        "\n"
        "\n"
        "def total(readings):\n"
        "    live = set(readings)\n"
        "    return math.fsum(r.joules for r in live)"
        "  # repro: allow[DET004] -- fsum is order-independent\n",
        rel="power/acc.py",
    )
    assert _float(findings) == []


def test_outside_numeric_layers_not_flagged(lint_snippet):
    findings = lint_snippet(
        "def total(xs):\n"
        "    return sum({x * 2.0 for x in xs})"
        "  # repro: allow[DET004] -- not a numeric layer\n",
        rel="harness/acc.py",
    )
    assert _float(findings) == []


def test_numeric_layer_sum_over_set_reported_once(lint_snippet):
    """DET004 and FLOAT001 share one walk: a float sum over set values in a
    numeric layer is one FLOAT001 finding, not a DET004 one as well."""
    findings = lint_snippet(
        "def total(xs):\n"
        "    return sum({x * 2.0 for x in xs})\n"
        "\n"
        "\n"
        "def total_live(readings):\n"
        "    live = set(readings)\n"
        "    return sum(r.joules for r in live)\n",
        rel="power/acc.py",
    )
    assert [(f.code, f.line, f.col) for f in findings] == [
        ("FLOAT001", 2, 12),
        ("FLOAT001", 7, 12),
    ]
    assert "math.fsum" in findings[0].message
