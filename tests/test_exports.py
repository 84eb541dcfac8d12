import importlib
import inspect
import pkgutil

import pytest

import fsgrating

# the package and each of its modules that declares __all__
MODULES = [mod for mod in [fsgrating] + [
    importlib.import_module(f"fsgrating.{info.name}")
    for info in pkgutil.iter_modules(fsgrating.__path__)] if hasattr(mod, "__all__")]


@pytest.mark.parametrize("mod", MODULES, ids=lambda mod: mod.__name__)
def test_all_lists_exactly_the_public_definitions(mod):
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
    defined = [n for n, obj in vars(mod).items()
               if not n.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == mod.__name__]
    assert [n for n in defined if n not in mod.__all__] == []
