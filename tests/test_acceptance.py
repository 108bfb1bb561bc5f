"""Acceptance suite: every shipped criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; the
same checks back the ``thrcalc selftest`` subcommand.  The criteria run
once per module, in ``run_all``; each test reads the shared outcomes.
"""

import pytest

from thrcalc.selftest import CRITERIA, run_all


@pytest.fixture(scope="module")
def outcomes():
    return run_all()


@pytest.mark.parametrize(
    "criterion", CRITERIA, ids=[f"criterion-{c.number:02d}" for c in CRITERIA]
)
def test_criterion(criterion, outcomes):
    outcome = next(o for o in outcomes if o.number == criterion.number)
    print(outcome.line)
    assert outcome.ok, outcome.line


def test_all_criteria_pass_together(outcomes):
    for outcome in outcomes:
        print(outcome.line)
    assert [o.number for o in outcomes] == [c.number for c in CRITERIA]
    failed = [o.line for o in outcomes if not o.ok]
    assert not failed, "\n".join(failed)
