"""Every name the package and its modules export resolves, and every name a
module imports is used."""

import ast
import importlib
from pathlib import Path

import pytest

_MODULES = ("nlsa_lab", "nlsa_lab.cli", "nlsa_lab.estimates", "nlsa_lab.norms",
            "nlsa_lab.oscillatory", "nlsa_lab.picard", "nlsa_lab.spectral")


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


_SOURCES = sorted((Path(__file__).parent.parent / "src" / "nlsa_lab").glob("*.py"))


@pytest.mark.parametrize("path", _SOURCES, ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a re-export counts as a use
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    dead = {name: line for name, line in imported.items() if name not in used}
    assert dead == {}
