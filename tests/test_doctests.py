"""The docstring examples of every module of the package run as tests."""

import doctest
import importlib
import pkgutil

import pytest

import thrcalc

MODULES = [
    name
    for _, name, _ in pkgutil.iter_modules(thrcalc.__path__, "thrcalc.")
    if any(t.examples for t in doctest.DocTestFinder().find(importlib.import_module(name)))
]


def test_the_modules_with_examples_are_found():
    assert {"thrcalc.fgab", "thrcalc.homology"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.attempted > 0
    assert result.failed == 0
