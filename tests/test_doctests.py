import doctest
import importlib
import pkgutil

import pytest

import qdemazure

MODULES = sorted(m.name for m in pkgutil.iter_modules(qdemazure.__path__, "qdemazure."))


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0, f"{name}: {result.failed} of {result.attempted} examples failed"


def test_doctests_are_found():
    finder = doctest.DocTestFinder()
    found = [t.name for name in MODULES
             for t in finder.find(importlib.import_module(name)) if t.examples]
    assert len(found) >= 9, found
