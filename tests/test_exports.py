import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

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


#: (importing module, source module, name) of the private names one module
#: still takes from another; this list may only shrink
PRIVATE_IMPORTS = {("assembly", "mesh", "_is_fluid"),
                   ("estimator", "mesh", "_is_fluid"),
                   ("spectral", "config", "_checked_window")}


def test_no_private_names_cross_modules():
    found = set()
    for path in Path(fsgrating.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                found |= {(path.stem, node.module, alias.name) for alias in node.names
                          if alias.name.startswith("_")}
    assert sorted(found) == sorted(PRIVATE_IMPORTS)
