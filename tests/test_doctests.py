"""The docstring examples of the linear-algebra layer run as tests."""

import doctest

import thrcalc.fgab


def test_fgab_doctests_pass():
    result = doctest.testmod(thrcalc.fgab)
    assert result.attempted > 0
    assert result.failed == 0
