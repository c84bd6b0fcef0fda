import importlib
import inspect
import pkgutil

import pytest

import nbr2nbr

# cli is the command line, not a library API, and declares no __all__
LIBRARY_MODULES = [m.name for m in pkgutil.iter_modules(nbr2nbr.__path__) if m.name != "cli"]


def test_package_root_holds_only_the_version():
    # submodules become attributes of the package once anything imports them
    assert [n for n, v in vars(nbr2nbr).items()
            if not n.startswith("_") and not inspect.ismodule(v)] == []
    assert isinstance(nbr2nbr.__version__, str)


@pytest.mark.parametrize("name", LIBRARY_MODULES)
def test_all_is_the_list_of_public_names(name):
    module = importlib.import_module(f"nbr2nbr.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    defined = {n for n, v in vars(module).items() if not n.startswith("_")
               and (inspect.isfunction(v) or inspect.isclass(v))
               and v.__module__ == module.__name__}
    assert sorted(defined - set(module.__all__)) == []
