"""JSON and DOT serialization.

All JSON output is canonical: sorted keys, LF line endings, trailing
newline — so saved artifacts are diffable and save(load(f)) is
byte-identical.  Schema errors carry JSON-pointer paths ("/hatness/x").
"""

from __future__ import annotations

import json
from dataclasses import MISSING, fields
from fractions import Fraction
from typing import Optional

from . import algebra
from .games import HatGame, make_game
from .graphs import Graph, make_graph


class SchemaError(ValueError):
    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


def frac_str(x) -> str:
    """Exact rational as 'p/q' in lowest terms; integers without '/1'."""
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _write(path: str, text: str):
    with open(path, "w", newline="\n") as f:
        f.write(text)


def _names_from_json(obj, pointer: str) -> tuple:
    if not isinstance(obj, list) or not all(isinstance(v, str) for v in obj):
        raise SchemaError(pointer, "expected a list of names")
    return tuple(obj)


def _counts_from_json(obj, pointer: str) -> dict:
    """A hatness or guess vector: an object of positive integers."""
    if not isinstance(obj, dict):
        raise SchemaError(pointer, "expected an object")
    for v, n in obj.items():
        if not isinstance(n, int) or n < 1:
            raise SchemaError(f"{pointer}/{v}", "expected a positive integer")
    return dict(obj)


# -- graphs ------------------------------------------------------------


def graph_to_json(graph: Graph) -> dict:
    return {
        "vertices": list(graph.vertices),
        "edges": sorted(sorted(e) for e in graph.edges),
    }


def graph_from_json(obj, pointer: str = "") -> Graph:
    if not isinstance(obj, dict):
        raise SchemaError(pointer or "/", "expected an object")
    for key in ("vertices", "edges"):
        if key not in obj:
            raise SchemaError(f"{pointer}/{key}", "missing")
    verts = _names_from_json(obj["vertices"], f"{pointer}/vertices")
    if not isinstance(obj["edges"], list):
        raise SchemaError(f"{pointer}/edges", "expected a list of name pairs")
    edges = []
    for i, e in enumerate(obj["edges"]):
        if not (isinstance(e, list) and len(e) == 2):
            raise SchemaError(f"{pointer}/edges/{i}", "expected a name pair")
        edges.append(tuple(e))
    try:
        return make_graph(verts, edges)
    except ValueError as err:
        raise SchemaError(pointer or "/", str(err)) from err


# -- games -------------------------------------------------------------


def game_to_json(game: HatGame) -> dict:
    obj = graph_to_json(game.graph)
    obj["hatness"] = dict(game.h)
    if not game.is_classic():
        obj["guesses"] = dict(game.g)
    return obj


def game_from_json(obj) -> HatGame:
    graph = graph_from_json(obj)
    if "hatness" not in obj:
        raise SchemaError("/hatness", "missing")
    h = _counts_from_json(obj["hatness"], "/hatness")
    g = obj.get("guesses")
    if g is not None:
        g = _counts_from_json(g, "/guesses")
    for key, vec in (("hatness", h), ("guesses", g or {})):
        for v in vec:
            if v not in graph._adj:
                raise SchemaError(f"/{key}/{v}", "unknown vertex")
    try:
        return make_game(graph, h, g)
    except ValueError as err:
        raise SchemaError("/", str(err)) from err


def load_game(path: str) -> HatGame:
    with open(path) as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as err:
            raise SchemaError("/", f"invalid JSON: {err}") from err
    return game_from_json(obj)


def save_game(game: HatGame, path: str):
    _write(path, canonical_dumps(game_to_json(game)))


# -- expressions -------------------------------------------------------


_OPS = {
    "clique": algebra.CliqueLeaf,
    "sum": algebra.Sum,
    "product": algebra.Product,
    "substitute": algebra.Substitute,
    "sum_lose": algebra.SumLose,
    "pendant_lose": algebra.PendantLose,
}
_OP_NAMES = {cls: op for op, cls in _OPS.items()}


def expr_to_json(e: algebra.GameExpr) -> dict:
    """One JSON object per node: "op" plus the dataclass fields by name."""
    op = _OP_NAMES.get(type(e))
    if op is None:
        raise SchemaError("/", f"not a game expression: {e!r}")
    obj = {"op": op}
    for f in fields(e):
        obj[f.name] = _CODECS[f.type][0](getattr(e, f.name))
    return obj


def expr_from_json(obj, pointer: str = "") -> algebra.GameExpr:
    op = obj.get("op") if isinstance(obj, dict) else None
    if op is None:
        raise SchemaError(f"{pointer}/op", "missing")
    cls = _OPS.get(op) if isinstance(op, str) else None
    if cls is None:
        raise SchemaError(f"{pointer}/op", f"unknown operation {op!r}")
    args = {}
    for f in fields(cls):
        where = f"{pointer}/{f.name}"
        if f.name in obj:
            args[f.name] = _CODECS[f.type][1](obj[f.name], where)
        elif f.default_factory is MISSING:
            raise SchemaError(where, "missing")
    return cls(**args)


def _clique_from_json(obj, pointer: str) -> algebra.CliqueLeaf:
    e = expr_from_json(obj, pointer)
    if not isinstance(e, algebra.CliqueLeaf):
        raise SchemaError(pointer, "substitution inner must be a clique")
    return e


def _name_from_json(obj, pointer: str) -> str:
    if not isinstance(obj, str):
        raise SchemaError(pointer, "expected a vertex name")
    return obj


# (encode, decode) per field annotation of the expression dataclasses;
# algebra postpones annotations, so the keys are their source strings
_CODECS = {
    "GameExpr": (expr_to_json, expr_from_json),
    "CliqueLeaf": (expr_to_json, _clique_from_json),
    "tuple[str, ...]": (list, _names_from_json),
    "dict[str, int]": (dict, _counts_from_json),
    "str": (lambda name: name, _name_from_json),
}


def load_expr(path: str) -> algebra.GameExpr:
    with open(path) as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as err:
            raise SchemaError("/", f"invalid JSON: {err}") from err
    return expr_from_json(obj)


def save_expr(e: algebra.GameExpr, path: str):
    _write(path, canonical_dumps(expr_to_json(e)))


# -- strategies --------------------------------------------------------


def strategy_to_json(strategy: dict) -> dict:
    return {
        v: {",".join(map(str, sigma)): list(guesses) for sigma, guesses in table.items()}
        for v, table in strategy.items()
    }


def strategy_from_json(obj) -> dict:
    out = {}
    for v, table in obj.items():
        out[v] = {
            tuple(int(c) for c in key.split(",")) if key else (): tuple(guesses)
            for key, guesses in table.items()
        }
    return out


# -- DOT ---------------------------------------------------------------


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_text(game_or_graph) -> str:
    if isinstance(game_or_graph, HatGame):
        game: Optional[HatGame] = game_or_graph
        graph = game.graph
    else:
        game = None
        graph = game_or_graph
    lines = ["graph {"]
    for v in graph.vertices:
        if game is None:
            lines.append(f"  {_dot_quote(v)};")
        else:
            label = f"{v}\\nh={game.h[v]}"
            if game.g[v] > 1:
                label += f",g={game.g[v]}"
            # label keeps the literal \n escape DOT expects; quote " only
            quoted = '"' + label.replace('"', '\\"') + '"'
            lines.append(f"  {_dot_quote(v)} [label={quoted}];")
    for a, b in sorted(sorted(e) for e in graph.edges):
        lines.append(f"  {_dot_quote(a)} -- {_dot_quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(game_or_graph, path: str):
    _write(path, dot_text(game_or_graph))
