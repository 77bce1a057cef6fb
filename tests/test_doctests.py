"""The docstring examples of every thetakit module run and pass."""

import doctest
import importlib
import pkgutil

import thetakit


def test_docstring_examples_pass():
    attempted = 0
    for info in pkgutil.iter_modules(thetakit.__path__):
        module = importlib.import_module(f"thetakit.{info.name}")
        result = doctest.testmod(module)
        assert result.failed == 0, info.name
        attempted += result.attempted
    result = doctest.testmod(thetakit)
    assert result.failed == 0
    assert attempted + result.attempted >= 6
