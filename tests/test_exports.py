"""Every name the package and its modules export resolves."""

import importlib

import pytest

_MODULES = ("nlsa_lab", "nlsa_lab.cli", "nlsa_lab.estimates", "nlsa_lab.norms",
            "nlsa_lab.picard", "nlsa_lab.spectral")


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
