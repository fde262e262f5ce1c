"""Hat games: a graph, a hatness function h and a guessing function g.

Colors at vertex v are 0..h(v)-1.  The classic game is g == 1 everywhere;
g is always stored so classic and generalized games share one type.
All arithmetic on h/g ratios is exact rational; no floats anywhere.
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
    """Invalid hat game construction or operation input."""


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
    """Validate and build a game.  Missing g entries default to 1; g(v)
    larger than h(v) is clamped (a sage never needs more guesses than
    colors)."""
    return HatGame(graph, *checked_counts(graph.vertices, graph.index, h, g))


def _is_count(val) -> bool:
    # bool is an int subclass; JSON true must not pass as a count of 1
    return isinstance(val, int) and not isinstance(val, bool) and val >= 1


def checked_counts(vertices, known, h, g=None) -> tuple[dict, dict]:
    """make_game's checks on plain data: h and g of the game on
    `vertices`, whose vertex set is `known`, with g defaulted and
    clamped, both in vertex order."""
    hv = {}
    for v in vertices:
        if v not in h:
            raise GameError(f"missing hatness for vertex {v!r}")
        val = h[v]
        if not _is_count(val):
            raise GameError(f"invalid hatness {val!r} at vertex {v!r}")
        hv[v] = val
    for v in h:
        if v not in known:
            raise GameError(f"hatness given for unknown vertex {v!r}")
    gv = {}
    g = g or {}
    for v in g:
        if v not in known:
            raise GameError(f"guesses given for unknown vertex {v!r}")
    for v in vertices:
        val = g.get(v, 1)
        if not _is_count(val):
            raise GameError(f"invalid guess count {val!r} at vertex {v!r}")
        gv[v] = min(val, hv[v])
    return hv, gv


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
