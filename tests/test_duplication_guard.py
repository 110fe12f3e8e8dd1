"""One renegotiation arithmetic, one home: ``repro.core.kernel``.

The refactor's whole point is that the AR(1) update, the eq.-7
quantiser (and its epsilon guard), and the eq.-8 threshold test exist
exactly once.  These greps over ``src/`` fail the build if a copy
creeps back into a consumer.  ``tests/`` is deliberately out of scope:
``tests/golden_reference.py`` *must* duplicate the arithmetic — it is
the frozen oracle the kernel is compared against.

The overload pressure formula, ``max(allocated, total_demand) /
capacity``, has one home the same way: ``repro.overload.plane``, which
every overload policy reads through its plane.

CI runs the same patterns as a shell step so the guard holds even for
changes that skip the test suite.
"""

import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
KERNEL = Path("repro") / "core" / "kernel.py"

#: (description, regex) pairs that may match only in kernel.py.
GUARDED_PATTERNS = [
    (
        "QUANTIZE_EPSILON binding (re-exports must use __getattr__)",
        re.compile(r"^QUANTIZE_EPSILON\s*=", re.MULTILINE),
    ),
    (
        "epsilon-guarded ceil quantiser",
        re.compile(r"-\s*QUANTIZE_EPSILON"),
    ),
    (
        "AR(1) one-minus-coefficient update",
        re.compile(r"1\.0\s*-\s*(?:self\.)?(?:_?params|base)\.ar_coefficient"),
    ),
    (
        "eq.-8 dual-threshold trigger (scalar or vectorized form)",
        re.compile(
            r"buffer\w*\s*>\s*high\b.*\bcandidate\s*>"  # scalar copy
            r"|np\.greater\([^)]*high_threshold",  # vectorized copy
            re.DOTALL,
        ),
    ),
    (
        "downgrade-mask shed accounting (bits_downgraded accrual)",
        re.compile(r"bits_downgraded\s*\+="),
    ),
]


PLANE = Path("repro") / "overload" / "plane.py"

#: The overload pressure expression, in any spelling of its operands.
PRESSURE_PATTERN = re.compile(
    r"max\(\s*[\w.]*allocated\s*,\s*[\w.]*total_demand\s*\)\s*/\s*[\w.]*capacity"
)


def python_sources():
    return sorted(SRC.rglob("*.py"))


def test_src_tree_is_nonempty():
    files = python_sources()
    assert (SRC / KERNEL) in files
    assert len(files) > 20


@pytest.mark.parametrize(
    "description,pattern",
    GUARDED_PATTERNS,
    ids=[d for d, _ in GUARDED_PATTERNS],
)
def test_arithmetic_lives_only_in_kernel(description, pattern):
    offenders = [
        path.relative_to(SRC)
        for path in python_sources()
        if path.relative_to(SRC) != KERNEL
        and pattern.search(path.read_text())
    ]
    assert not offenders, (
        f"{description} reimplemented outside repro/core/kernel.py: "
        f"{[str(p) for p in offenders]}"
    )


def test_kernel_contains_the_arithmetic():
    text = (SRC / KERNEL).read_text()
    for description, pattern in GUARDED_PATTERNS:
        assert pattern.search(text), f"kernel.py lost: {description}"


def test_pressure_formula_lives_only_in_the_plane():
    offenders = [
        path.relative_to(SRC)
        for path in python_sources()
        if path.relative_to(SRC) != PLANE
        and PRESSURE_PATTERN.search(path.read_text())
    ]
    assert not offenders, (
        "overload pressure formula reimplemented outside "
        f"repro/overload/plane.py: {[str(p) for p in offenders]}"
    )
    assert PRESSURE_PATTERN.search((SRC / PLANE).read_text())
