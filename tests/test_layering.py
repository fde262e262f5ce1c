"""Modules of hatlab use one another through public names only: no
module imports a `_`-prefixed name of another hatlab module, or reads one
through a module it imported."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hatlab"
MODULES = sorted(SRC.glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dotted(node):
    """"a.b.c" for the expression a.b.c, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        head = _dotted(node.value)
        return None if head is None else f"{head}.{node.attr}"
    return None


def private_uses(source: str, own: str) -> list[str]:
    """The private names of other hatlab modules that `source`, the text
    of module `own`, imports or reads, as "module.name"."""
    tree = ast.parse(source)
    modules = {}  # local dotted name -> hatlab module it stands for
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] != "hatlab":
                    continue
                if a.asname:
                    modules[a.asname] = ".".join(parts[1:]) or "hatlab"
                else:  # `import hatlab.x` binds hatlab; hatlab.x reads x
                    for k in range(1, len(parts) + 1):
                        modules[".".join(parts[:k])] = ".".join(parts[1:k]) or "hatlab"
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                package = node.module or ""
            elif node.module and node.module.split(".")[0] == "hatlab":
                package = node.module.partition(".")[2]
            else:
                continue
            for a in node.names:
                if not package:  # `from . import x`: x is a module
                    modules[a.asname or a.name] = a.name
                elif _is_private(a.name) and package != own:
                    found.append(f"{package}.{a.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _is_private(node.attr):
            module = modules.get(_dotted(node.value))
            if module is not None and module != own:
                found.append(f"{module}.{node.attr}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_only_public_names_of_others(path):
    assert private_uses(path.read_text(), path.stem) == []


def test_the_check_sees_each_kind_of_use():
    source = "\n".join([
        "import hatlab.graphs",
        "import hatlab.roots as hr",
        "from . import io as hio",
        "from . import solver",
        "from .indpoly import _point, eval_Z",
        "from hatlab.certify import _descend",
        "from ._own import _fine",
        "hio._write(p, t)",
        "solver._dpll(n, c)",
        "hr._first_root(c, a, b)",
        "hatlab.graphs._bfs_dist(adj, 0)",
        "x = eval_Z.__name__ + self._private",
        "def _helper(): return _helper",
    ])
    assert sorted(private_uses(source, "_own")) == [
        "certify._descend",
        "graphs._bfs_dist",
        "indpoly._point",
        "io._write",
        "roots._first_root",
        "solver._dpll",
    ]
    assert len(MODULES) > 10
