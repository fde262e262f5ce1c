"""Modules of hatlab use one another through public names only: no
module imports a `_`-prefixed name of another hatlab module, or reads one
through a module it imported.  And they import one another in one
direction: every hatlab import sits at module level, and the import
graph has no cycle."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hatlab"
MODULES = sorted(SRC.glob("*.py"))
STEMS = {p.stem for p in MODULES}


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


# -- the import graph ------------------------------------------------------


def hatlab_imports(source: str) -> list[tuple[str, int]]:
    """(module, line) for each hatlab module that `source` imports, at
    any depth, including imports inside functions; "__init__" stands
    for the package itself."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for a in node.names:
                parts = a.name.split(".")
                if parts[0] == "hatlab":
                    found.append((parts[1] if len(parts) > 1 else "__init__", node.lineno))
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                module = node.module
            elif node.module and node.module.split(".")[0] == "hatlab":
                module = node.module.partition(".")[2]
            else:
                continue
            if module:
                found.append((module.split(".")[0], node.lineno))
            else:  # `from . import x`: x is a module, or a name of the package
                found += [(a.name if a.name in STEMS else "__init__", node.lineno)
                          for a in node.names]
    return found


def import_cycle(graph: dict[str, set[str]]) -> list[str]:
    """Some cycle of the directed graph as [m, ..., m], or [] when it
    has none, by depth-first search."""
    done: set[str] = set()

    def visit(node, path):
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return []
        for nxt in sorted(graph.get(node, ())):
            cycle = visit(nxt, path + [node])
            if cycle:
                return cycle
        done.add(node)
        return []

    for start in sorted(graph):
        cycle = visit(start, [])
        if cycle:
            return cycle
    return []


def _import_graph() -> dict[str, set[str]]:
    return {
        path.stem: {m for m, _ in hatlab_imports(path.read_text()) if m != path.stem}
        for path in MODULES
    }


def test_modules_import_one_another_in_one_direction():
    assert import_cycle(_import_graph()) == []


def test_hatlab_imports_sit_at_module_level():
    nested = []
    for path in MODULES:
        top = {node.lineno for node in ast.parse(path.read_text()).body}
        nested += [f"{path.stem} -> {m}" for m, line in hatlab_imports(path.read_text())
                   if line not in top]
    assert nested == []


def test_the_cycle_check_sees_a_function_level_import():
    a = "from .b import f\n"
    b = "def g():\n    from .a import h\n    return h\n"
    graph = {"a": {m for m, _ in hatlab_imports(a)},
             "b": {m for m, _ in hatlab_imports(b)}}
    assert graph == {"a": {"b"}, "b": {"a"}}
    assert import_cycle(graph) == ["a", "b", "a"]
    assert import_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) == []
    assert [m for m, _ in hatlab_imports(
        "import hatlab\nimport hatlab.io\nfrom hatlab.roots import x\n"
        "from . import io as hio, eval_Z\nimport json\nfrom json import dumps\n"
    )] == ["__init__", "io", "roots", "io", "__init__"]
    assert "__init__" in _import_graph()
