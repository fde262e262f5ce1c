"""Hat games: a graph, a hatness function h and a guessing function g.

Colors at vertex v are 0..h(v)-1.  The classic game is g == 1 everywhere;
g is always stored so classic and generalized games share one type.
All arithmetic on h/g ratios is exact rational; no floats anywhere.

This module owns the rule for counts: `checked_counts` is its one
check, which `make_game`, `io`'s game loader and every clique leaf of
`algebra` call.  Its errors name the count at fault (`GameError.where`),
which `io` turns into a JSON pointer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph


WINNING = "winning"
LOSING = "losing"
UNKNOWN = "unknown"


class GameError(ValueError):
    """Invalid hat game construction or operation input.  `where` names
    the input element at fault, as ("h",) or ("g",) for a whole vector
    and ("h", v) or ("g", v) for its entry at v, or is empty."""

    def __init__(self, message: str, where: tuple = ()):
        super().__init__(message)
        self.where = where


@dataclass(frozen=True, eq=True)
class HatGame:
    graph: Graph
    h: dict[str, int]
    g: dict[str, int]

    __hash__ = None

    @property
    def vertices(self):
        return self.graph.vertices

    def is_classic(self) -> bool:
        return all(gv == 1 for gv in self.g.values())


def make_game(graph: Graph, h, g=None) -> HatGame:
    """Validate and build a game (`checked_counts`); g None gives every
    vertex one guess."""
    g = {} if g is None else g
    return HatGame(graph, *checked_counts(graph.vertices, graph.index, h, g))


def checked_counts(vertices, known, h, g) -> tuple[dict, dict]:
    """The one check of a game's counts: h and g of the game on
    `vertices`, whose vertex set is `known`, both in vertex order.  h and
    g are objects (dicts) whose every value is a count, a positive int
    (of type int, so not a bool), and whose every key is a vertex.  Every
    vertex has a hatness; a guess count defaults to 1 and is clamped to
    the hatness (a sage never needs more guesses than colors).  h is
    checked before g; within each, the counts in vertex order, then the
    keys in their own order."""
    h = _counts(vertices, known, h, "h")
    if len(h) < len(vertices):
        v = next(v for v in vertices if v not in h)
        raise GameError(f"missing hatness for vertex {v!r}", ("h",))
    g = _counts(vertices, known, g, "g")
    if not g:
        return h, dict.fromkeys(vertices, 1)
    return h, {v: min(g[v], n) if v in g else 1 for v, n in h.items()}


def _counts(vertices, known, given, arg: str) -> dict:
    """The counts of `given`, argument `arg`, on `vertices`, in vertex
    order."""
    if not isinstance(given, dict):
        raise GameError(f"{_NOUNS[arg][0]} is not an object", (arg,))
    out = {v: given[v] for v in vertices if v in given} if given else {}
    for v, n in out.items():
        # a bool is no count: JSON true must not pass as a count of 1
        if type(n) is not int or n < 1:
            message = f"invalid {_NOUNS[arg][1]} {n!r} at vertex {v!r}"
            raise GameError(message, (arg, v))
    if len(out) < len(given):
        v = next(v for v in given if v not in known)
        message = f"{_NOUNS[arg][2]} given for unknown vertex {v!r}"
        raise GameError(message, (arg, v))
    return out


# per argument: the names of the vector, of one count and of the counts
_NOUNS = {
    "h": ("hatness vector", "hatness", "hatness"),
    "g": ("guess vector", "guess count", "guesses"),
}


def uniform_game(graph: Graph, h: int) -> HatGame:
    return make_game(graph, {v: h for v in graph.vertices})


def fraction_vector(game: HatGame) -> dict[str, Fraction]:
    """The vector r with r(v) = g(v)/h(v), exact, in vertex order.  One
    Fraction serves every vertex with the same (g, h): games repeat few
    ratios, and each Fraction reduces its pair by a gcd."""
    pairs = [(game.g[v], game.h[v]) for v in game.vertices]
    ratio = {p: Fraction(*p) for p in set(pairs)}
    return dict(zip(game.vertices, map(ratio.__getitem__, pairs)))


def glue_hatness(x1: dict, S, x2: dict, v):
    """Gluing of two vertex vectors along a clique join: on S values
    multiply by x2(v), elsewhere they are copied.  Keys follow the
    clique_join naming (left operand prefixed "L/", right "R/")."""
    S = set(S)
    for s in S:
        if s not in x1:
            raise GameError(f"gluing vertex {s!r} missing from left vector")
    if v not in x2:
        raise GameError(f"gluing vertex {v!r} missing from right vector")
    out = {}
    for u, val in x1.items():
        out["L/" + u] = val * x2[v] if u in S else val
    for u, val in x2.items():
        if u != v:
            out["R/" + u] = val
    return out


@dataclass(frozen=True)
class CriterionResult:
    winning: bool
    precise: bool
    total: Fraction


def clique_criterion(game: HatGame) -> CriterionResult:
    """Exact winning criterion on complete graphs: the game is winning
    iff sum of g(v)/h(v) is at least 1; precise when it equals 1."""
    if not game.graph.is_complete():
        raise GameError("clique criterion requires a complete graph")
    return criterion_of_counts(game.h, game.g)


def criterion_of_counts(h: dict, g: dict) -> CriterionResult:
    """The clique criterion from the values alone, summed over one
    common denominator."""
    den = math.lcm(*h.values())
    total = Fraction(sum(g[v] * (den // hv) for v, hv in h.items()), den)
    return CriterionResult(total >= 1, total == 1, total)
