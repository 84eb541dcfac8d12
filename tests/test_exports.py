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


PRIVATE_IMPORTS = set()


def test_no_private_names_cross_modules():
    found = set()
    for path in Path(fsgrating.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        siblings = {}     # local name of a module taken by `from . import X [as Y]`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    found |= {(path.stem, node.module, alias.name)
                              for alias in node.names if alias.name.startswith("_")}
                else:
                    siblings |= {alias.asname or alias.name: alias.name
                                 for alias in node.names}
        found |= {(path.stem, siblings[node.value.id], node.attr)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and isinstance(node.value, ast.Name) and node.value.id in siblings}
    assert sorted(found) == sorted(PRIVATE_IMPORTS)


def _reads_at_rows(tree, name):
    """Lines where an array is read at the rows of the table name (elems or
    edge_nodes), x[m.name], x[m.name[sel]] or x[name] (also as the first
    index of a tuple)."""
    def rows(index):
        index = index.elts[0] if isinstance(index, ast.Tuple) else index
        index = index.value if isinstance(index, ast.Subscript) else index
        return (isinstance(index, ast.Attribute) and index.attr == name
                or isinstance(index, ast.Name) and index.id == name)
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
            and rows(node.slice)]


def test_nodal_arrays_are_gathered_at_corners_in_one_place():
    # Mesh.at_corners is the one gather of nodal values by element rows and
    # Mesh.at_ends the one by edge rows; stores such as
    # mask[self.elems.ravel(), side] = True are not reads
    found = [f"{path.stem}:{line} {name}"
             for path in sorted(Path(fsgrating.__file__).parent.glob("*.py"))
             for name in ("elems", "edge_nodes")
             for line in _reads_at_rows(ast.parse(path.read_text()), name)]
    assert found == []
