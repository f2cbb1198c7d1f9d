"""Public API surface: everything advertised in ``__all__`` exists and is
documented."""

import importlib

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.autograd",
    "repro.nn",
    "repro.optim",
    "repro.models",
    "repro.data",
    "repro.training",
    "repro.pruning",
    "repro.analysis",
    "repro.experiments",
    "repro.parallel",
    "repro.observe",
    "repro.serve",
    "repro.utils",
]


class TestApiSurface:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_symbols_resolve(self, package):
        mod = importlib.import_module(package)
        assert hasattr(mod, "__all__"), package
        for name in mod.__all__:
            assert hasattr(mod, name), f"{package}.{name} missing"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_module_docstrings(self, package):
        mod = importlib.import_module(package)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 20, package

    def test_version(self):
        assert repro.__version__.count(".") == 2

    @pytest.mark.parametrize("package", PACKAGES[1:])
    def test_public_callables_have_docstrings(self, package):
        mod = importlib.import_module(package)
        undocumented = [
            name
            for name in mod.__all__
            if callable(getattr(mod, name)) and not getattr(mod, name).__doc__
        ]
        assert not undocumented, f"{package}: {undocumented}"
