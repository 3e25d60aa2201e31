"""Allocation guard: the Fraction objects that warm exact checks make.

A slowdown of the exact kernels shows up here as a count, with no timing.
Each count is the number of ``Fraction.__new__`` calls during one run of a
check at N=2, alpha=1/2, D=16, residues (0,), after a first run has built
and cached its tower, so the tower's own arithmetic is not counted.  The
kernels of ``_exact`` make one Fraction per output entry, and none for a
product with a factor 1; the per-product arithmetic they replaced made
2498 (telescoping), 28254 (census) and 4109 (expansive), and products
that made a Fraction for each unit factor made 259 (telescoping) and 7665
(census).  Census controls tested one by one, through exact Gram-Schmidt
and dense projections, made 6111 (census); from integer Gram data the
count is 275.

Each bound is the measured count times ``SLACK``.  To re-measure after a
change that moves the counts on purpose, run

    PYTHONPATH=src python tests/test_allocations.py

and copy the printed counts into ``MEASURED``.  The counts were taken on
CPython 3.11; a fractions module that makes fewer objects per operation
counts less, which the upper bounds allow.
"""

from fractions import Fraction

import pytest

from bergman_lab import ScalarMode
from bergman_lab.verify import DEFAULT_TOLS, CheckSpec, run_check

#: Fraction.__new__ calls of one warm run of each check.
MEASURED = {"telescoping": 99, "census": 275, "expansive": 1093}
SLACK = 1.25


def count_fractions(name: str) -> int:
    """Fraction.__new__ calls of a warm run of check ``name``; the runs must pass."""
    spec = CheckSpec(name, 2, Fraction(1, 2), 16, (0,), 4, 0,
                     ScalarMode.EXACT_RATIONAL, DEFAULT_TOLS[name])
    assert run_check(spec).passed
    original = Fraction.__dict__["__new__"]
    calls = 0

    def counting(cls, *args, **kwargs):
        nonlocal calls
        calls += 1
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = counting
    try:
        entry = run_check(spec)
    finally:
        Fraction.__new__ = original
    assert entry.passed, entry.note
    return calls


@pytest.mark.parametrize("name", sorted(MEASURED))
def test_warm_exact_check_allocations_stay_bounded(name):
    count = count_fractions(name)
    assert count <= MEASURED[name] * SLACK, (
        f"{name} made {count} Fractions, bound {MEASURED[name] * SLACK:.0f}")


if __name__ == "__main__":
    for check in sorted(MEASURED):
        print(check, count_fractions(check))
