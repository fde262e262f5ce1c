"""Reference answers that share no code with hatlab.

Every function here works on the plain JSON objects the benchmark feeds to
hatlab (vertex list, edge list, hatness, guesses) and uses only the standard
library: the clique criterion, the published hat guessing numbers of trees
and cycles, a strategy checker that tries every coloring, independent-set
enumeration with a subset-sum transform for box corners, and the two-term
recurrence of paths.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

WINNING, LOSING = "winning", "losing"


def ratios(game: dict) -> list[Fraction]:
    """r(v) = g(v)/h(v) in vertex order, with g clamped to h."""
    g = game.get("guesses", {})
    return [
        Fraction(min(g.get(v, 1), game["hatness"][v]), game["hatness"][v])
        for v in game["vertices"]
    ]


def clique_status(game: dict) -> str:
    """Complete graphs win exactly when sum g/h >= 1."""
    return WINNING if sum(ratios(game)) >= 1 else LOSING


def tree_status(h: int) -> str:
    """Every tree with an edge has hat guessing number 2."""
    return WINNING if h <= 2 else LOSING


def cycle_status(n: int, h: int) -> str:
    """HG(C_n) is 3 when n = 4 or 3 | n, and 2 otherwise."""
    hg = 3 if n == 4 or n % 3 == 0 else 2
    return WINNING if h <= hg else LOSING


def strategy_wins(game: dict, strategy_text: str) -> bool:
    """True when the emitted strategy guesses right on every coloring.

    Keys of a vertex's table are the colors of its neighbours, listed in the
    game's vertex order and joined by commas."""
    strategy = json.loads(strategy_text)
    verts = game["vertices"]
    pos = {v: i for i, v in enumerate(verts)}
    nbrs = {v: [] for v in verts}
    for a, b in game["edges"]:
        nbrs[a].append(b)
        nbrs[b].append(a)
    for v in verts:
        nbrs[v].sort(key=pos.get)
    h = game["hatness"]
    g = game.get("guesses", {})
    tables = {}
    for v in verts:
        table = {}
        for key, guesses in strategy[v].items():
            if len(guesses) > min(g.get(v, 1), h[v]):
                return False
            table[key] = set(guesses)
        tables[v] = table
    for phi in itertools.product(*(range(h[v]) for v in verts)):
        col = dict(zip(verts, phi))
        if not any(
            col[v] in tables[v].get(",".join(str(col[u]) for u in nbrs[v]), ())
            for v in verts
        ):
            return False
    return True


# -- independence polynomials by enumeration ---------------------------


def _masks(game: dict) -> list[int]:
    pos = {v: i for i, v in enumerate(game["vertices"])}
    adj = [0] * len(pos)
    for a, b in game["edges"]:
        adj[pos[a]] |= 1 << pos[b]
        adj[pos[b]] |= 1 << pos[a]
    return adj


def independent_sets(adj: list[int]) -> list[int]:
    """All independent sets of the graph, as bit masks."""
    out = [0]
    for v in range(len(adj)):
        out += [s | 1 << v for s in out if not s & adj[v]]
    return out


def _weight(s: int, x: list[Fraction]) -> Fraction:
    """prod over v in the set s of (-x_v)."""
    term = Fraction(1)
    v = 0
    while s:
        if s & 1:
            term *= -x[v]
        s >>= 1
        v += 1
    return term


def z_value(game: dict) -> Fraction:
    """Z_G(r) = sum over independent sets I of prod_{v in I} (-r_v)."""
    r = ratios(game)
    return sum((_weight(s, r) for s in independent_sets(_masks(game))), Fraction(0))


def corner_values(game: dict) -> list[Fraction]:
    """Z of every induced subgraph at r, indexed by the kept-vertex mask.

    Each independent set I adds its weight to every S containing I; the
    superset sum is the standard subset-sum transform over n bits."""
    r = ratios(game)
    n = len(r)
    z = [Fraction(0)] * (1 << n)
    for s in independent_sets(_masks(game)):
        z[s] = _weight(s, r)
    for v in range(n):
        bit = 1 << v
        for s in range(1 << n):
            if s & bit:
                z[s] += z[s ^ bit]
    return z


def solve_boundary(game: dict, v: int) -> Fraction:
    """The value of r_v that puts r on Z = 0, with the other r fixed.

    Z is affine in x_v: Z = Z_{G-v} - x_v Z_{G-N[v]}."""
    adj = _masks(game)
    r = ratios(game)
    a = b = Fraction(0)
    for s in independent_sets(adj):
        if s >> v & 1:
            continue
        term = _weight(s, r)
        a += term
        if not s & adj[v]:
            b += term
    return a / b if b else Fraction(-1)


def path_z(x: list[Fraction]) -> Fraction:
    """Z of a path with vertex weights x in path order:
    z_k = z_{k-1} - x_k z_{k-2}."""
    prev, cur = Fraction(1), Fraction(1)
    for xk in x:
        prev, cur = cur, cur - xk * prev
    return cur


def path_u(n: int) -> list[int]:
    """Coefficients of U_{P_n}(x), low degree first: U_k = U_{k-1} - x U_{k-2}."""
    prev, cur = [1], [1]
    for _ in range(n):
        nxt = cur + [0] * (len(prev) + 1 - len(cur))
        for i, c in enumerate(prev):
            nxt[i + 1] -= c
        prev, cur = cur, nxt
    return cur


def poly_at(coeffs: list[int], x: Fraction) -> Fraction:
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def path_muhat_float(n: int, k: int = 1) -> float:
    """1 / (k-th smallest positive root of U_{P_n}) = 4 cos^2(k pi / (n+2))."""
    return 4 * math.cos(k * math.pi / (n + 2)) ** 2
