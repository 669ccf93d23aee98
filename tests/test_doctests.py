"""Run the docstring examples of every motcalc module."""

import doctest
import importlib
import pkgutil

import pytest

import motcalc

MODULES = sorted(name for _, name, _ in
                 pkgutil.iter_modules(motcalc.__path__, "motcalc."))


@pytest.mark.parametrize("name", MODULES)
def test_doctests(name):
    failed, _ = doctest.testmod(importlib.import_module(name))
    assert failed == 0
