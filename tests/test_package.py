import ast
import inspect
import pkgutil
from pathlib import Path

import pytest

import nbr2nbr

MODULES = [m.name for m in pkgutil.iter_modules(nbr2nbr.__path__)]


def test_package_root_holds_only_the_version():
    # submodules become attributes of the package once anything imports them
    assert [n for n, v in vars(nbr2nbr).items()
            if not n.startswith("_") and not inspect.ismodule(v)] == []
    assert isinstance(nbr2nbr.__version__, str)


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_no_private_name_of_another(name):
    # a leading underscore marks a name as its module's own: no other module imports it
    tree = ast.parse((Path(nbr2nbr.__file__).parent / f"{name}.py").read_text())
    imported = [(node.module or "", alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.level or (node.module or "").startswith("nbr2nbr"))
                for alias in node.names]
    assert [(m, n) for m, n in imported if _private(n) or any(map(_private, m.split(".")))] == []
