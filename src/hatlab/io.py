"""JSON and DOT serialization.

All JSON output is canonical: sorted keys, LF line endings, trailing
newline — so saved artifacts are diffable and save(load(f)) is
byte-identical.  Schema errors carry JSON-pointer paths ("/hatness/x").

Each check of input has one owner, and this module owns only the JSON:
the shape of its containers (a game, a graph or an expression node is an
object, vertices a list of names, edges a list) and the pointers.
`graphs.make_graph` owns the names and the edges (duplicates, pairs,
self-loops, endpoints), `games.checked_counts`, through `make_game`, the
hatness and guesses.  Each error names the input element at fault
(`where`), which becomes the pointer ("/edges/1", "/hatness/x").  A
clique leaf is checked as it is decoded, by `algebra.leaf_counts`, which
`algebra.eval_expr` calls again on every leaf; the joins are checked by
`algebra` as it evaluates them.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Optional

from . import algebra
from .games import GameError, HatGame, make_game
from .graphs import Graph, GraphError, make_graph


class SchemaError(ValueError):
    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


def frac_str(x) -> str:
    """Exact rational as 'p/q' in lowest terms; integers without '/1'."""
    return str(Fraction(x))


def canonical_dumps(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)` and a newline.  Objects,
    lists and tuples of str and int at most _JOIN_DEPTH levels deep, which
    holds every strategy and game, are written by joins: with an indent,
    CPython's json runs its pure-Python encoder, one generator per level.
    Anything else goes to json itself."""
    try:
        return _joined(obj, "\n") + "\n"
    except _Unfit:
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_JOIN_DEPTH = 8


class _Unfit(Exception):
    """A value that `_joined` leaves to json."""


def _joined(obj, newline: str) -> str:
    """The JSON text of obj as `canonical_dumps` writes it, where
    `newline` is a newline and the indent of the line obj starts on;
    raises _Unfit on any other value or a deeper nesting."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is int:
        return int.__repr__(obj)
    if len(newline) > 2 * _JOIN_DEPTH:
        raise _Unfit
    inner = newline + "  "
    if kind is dict:
        if not obj:
            return "{}"
        if any(type(k) is not str for k in obj):
            raise _Unfit
        items = [
            f"{encode_basestring_ascii(k)}: {_joined(obj[k], inner)}"
            for k in sorted(obj)
        ]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        # lists of colors are the bulk of a strategy: ints skip the call
        items = [
            int.__repr__(x) if type(x) is int else _joined(x, inner) for x in obj
        ]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise _Unfit


def write_text(path: str, text: str):
    """Write text to a file with LF line ends on every platform."""
    with open(path, "w", newline="\n") as f:
        f.write(text)


def read_json(path: str):
    """The JSON value in a file; malformed or too deeply nested text is a
    SchemaError."""
    with open(path) as f:
        try:
            return json.load(f)
        except json.JSONDecodeError as err:
            raise SchemaError("/", f"invalid JSON: {err}") from err
        except RecursionError as err:
            raise _too_deep() from err


def _too_deep() -> SchemaError:
    """The error for a value nested past what json can read or write: it
    recurses once per level, up to the recursion limit."""
    return SchemaError(
        "/",
        "nested past the JSON nesting limit: json recurses once per level "
        f"and stops near the recursion limit of {sys.getrecursionlimit()} "
        "frames",
    )


def _names_from_json(obj, pointer: str) -> tuple:
    if not isinstance(obj, list) or not all(isinstance(v, str) for v in obj):
        raise SchemaError(pointer, "expected a list of names")
    return tuple(obj)


def _pointed(err, pointer: str = "", keys=None) -> SchemaError:
    """The SchemaError for a GraphError or GameError: its `where`, the
    argument and the element at fault, becomes a pointer under `pointer`,
    the argument renamed to its JSON key by `keys` if given."""
    arg, *rest = err.where
    arg = keys[arg] if keys else arg
    return SchemaError("/".join((pointer, arg, *map(str, rest))), str(err))


# -- graphs ------------------------------------------------------------


def graph_to_json(graph: Graph) -> dict:
    # pairs read off the adjacency in vertex order come nearly sorted when
    # names follow the vertex order, as composite names do; on G_5 they
    # sort about twice as fast as pairs in the hash order of `edges`
    names = graph.vertices
    pairs = (sorted((names[i], names[j]))
             for i, nb in enumerate(graph.adj) for j in nb if i < j)
    return {"vertices": list(names), "edges": sorted(pairs)}


def graph_from_json(obj) -> Graph:
    if not isinstance(obj, dict):
        raise SchemaError("/", "expected an object")
    for key in ("vertices", "edges"):
        if key not in obj:
            raise SchemaError(f"/{key}", "missing")
    verts = _names_from_json(obj["vertices"], "/vertices")
    if not isinstance(obj["edges"], list):
        raise SchemaError("/edges", "expected a list of name pairs")
    try:
        return make_graph(verts, obj["edges"])
    except GraphError as err:
        raise _pointed(err) from err


# -- games -------------------------------------------------------------


def game_to_json(game: HatGame) -> dict:
    obj = graph_to_json(game.graph)
    obj["hatness"] = dict(game.h)
    if not game.is_classic():
        obj["guesses"] = dict(game.g)
    return obj


# the JSON key of each `make_game` argument
_GAME_KEYS = {"h": "hatness", "g": "guesses"}


def game_from_json(obj) -> HatGame:
    graph = graph_from_json(obj)
    if "hatness" not in obj:
        raise SchemaError("/hatness", "missing")
    try:
        return make_game(graph, obj["hatness"], obj.get("guesses"))
    except GameError as err:
        raise _pointed(err, keys=_GAME_KEYS) from err


def load_game(path: str) -> HatGame:
    return game_from_json(read_json(path))


def save_game(game: HatGame, path: str):
    write_text(path, canonical_dumps(game_to_json(game)))


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


def _unrecursed(step, *args):
    """Run the generator function `step` as a recursion on an explicit
    stack: it yields the arguments of each recursive call and is sent
    back that call's result.  Depth is bounded by memory alone."""
    stack = [step(*args)]
    value = None
    while stack:
        try:
            call = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            stack.append(step(*call))
            value = None
    return value


def expr_to_json(e: algebra.GameExpr) -> dict:
    """One JSON object per node: "op" plus the dataclass fields by name."""
    return _unrecursed(_encode_node, e)


def _encode_node(e):
    op = _OP_NAMES.get(type(e))
    if op is None:
        raise SchemaError("/", f"not a game expression: {e!r}")
    obj = {"op": op}
    for f in fields(e):
        value = getattr(e, f.name)
        if f.type in _EXPR_FIELDS:
            obj[f.name] = yield (value,)
        else:
            obj[f.name] = _CODECS[f.type][0](value)
    return obj


def expr_from_json(obj) -> algebra.GameExpr:
    return _unrecursed(_decode_node, obj, "")


def _decode_node(obj, pointer):
    op = obj.get("op") if isinstance(obj, dict) else None
    if op is None:
        raise SchemaError(f"{pointer}/op", "missing")
    cls = _OPS.get(op) if isinstance(op, str) else None
    if cls is None:
        raise SchemaError(f"{pointer}/op", f"unknown operation {op!r}")
    args = {}
    for f in fields(cls):
        where = f"{pointer}/{f.name}"
        if f.name not in obj:
            if f.default_factory is MISSING:
                raise SchemaError(where, "missing")
        elif f.type in _EXPR_FIELDS:
            sub = yield obj[f.name], where
            if f.type == "CliqueLeaf" and not isinstance(sub, algebra.CliqueLeaf):
                raise SchemaError(where, "substitution inner must be a clique")
            args[f.name] = sub
        else:
            args[f.name] = _CODECS[f.type][1](obj[f.name], where)
    node = cls(**args)
    if cls is algebra.CliqueLeaf:
        try:
            algebra.leaf_counts(node)
        except (GraphError, GameError) as err:
            raise _pointed(err, pointer) from err
    return node


def _name_from_json(obj, pointer: str) -> str:
    if not isinstance(obj, str):
        raise SchemaError(pointer, "expected a vertex name")
    return obj


# field annotations of the expression dataclasses (algebra postpones
# annotations, so these are their source strings): subexpressions, and
# (encode, decode) for the rest
_EXPR_FIELDS = ("GameExpr", "CliqueLeaf")
_CODECS = {
    "tuple[str, ...]": (list, _names_from_json),
    # a leaf's counts, checked with the whole leaf by `algebra.leaf_counts`
    "dict[str, int]": (dict, lambda counts, pointer: counts),
    "str": (lambda name: name, _name_from_json),
}


def load_expr(path: str) -> algebra.GameExpr:
    return expr_from_json(read_json(path))


def save_expr(e: algebra.GameExpr, path: str):
    obj = expr_to_json(e)
    try:
        text = canonical_dumps(obj)
    except RecursionError as err:
        raise _too_deep() from err
    write_text(path, text)


# -- strategies --------------------------------------------------------


def strategy_to_json(strategy: dict) -> dict:
    return {
        v: {",".join(map(str, sigma)): list(guesses) for sigma, guesses in table.items()}
        for v, table in strategy.items()
    }


def _config_from_json(key: str, pointer: str) -> tuple:
    """A visible configuration: its colors joined by commas, "" for none."""
    parts = key.split(",") if key else []
    if not all(c.isascii() and c.isdigit() for c in parts):
        raise SchemaError(pointer, "expected comma-separated colors")
    return tuple(int(c) for c in parts)


def _colors_from_json(obj, pointer: str) -> tuple:
    if not isinstance(obj, list) or not all(
        type(c) is int and c >= 0 for c in obj
    ):
        raise SchemaError(pointer, "expected a list of colors")
    return tuple(obj)


def strategy_from_json(obj) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError("/", "expected an object of vertex tables")
    out = {}
    for v, table in obj.items():
        if not isinstance(table, dict):
            raise SchemaError(f"/{v}", "expected an object of guess lists")
        rows = out[v] = {}
        for key, guesses in table.items():
            where = f"/{v}/{key}"
            rows[_config_from_json(key, where)] = _colors_from_json(guesses, where)
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
    for a, b in graph_to_json(graph)["edges"]:
        lines.append(f"  {_dot_quote(a)} -- {_dot_quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(game_or_graph, path: str):
    write_text(path, dot_text(game_or_graph))
