"""Builders for every named construction: the Delta=6/HG=8 graph, the
4/3-ratio family G_n, the Delta+k family, the clique chains H_n^l (with
tilde and minus variants), and the clique-extension examples.

Each builder returns the certificate-ready expression tree and, where
useful, the directly built graph.  Expression composition namespaces
vertex names (L/, R/ prefixes: left names gain 'L/', right names 'R/',
and a glued vertex lives on under its left name); the builders below
track the names of designated vertices through that renaming so later compositions can
refer to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .algebra import (
    CliqueLeaf,
    GameExpr,
    PendantLose,
    Product,
    Substitute,
    SumLose,
    eval_expr,
)
from .extensions import (
    ExtensionError,
    U_from_f,
    build_first_kind,
    build_second_kind,
)
from .graphs import Graph, bridged_cliques, path_graph
from .poly import UnivariatePoly


class GalleryError(ValueError):
    pass


def _clique(prefix: str, spec: list[tuple[str, int]], g=None) -> CliqueLeaf:
    """Clique leaf from (name, hatness) pairs; g maps name -> guesses."""
    names = tuple(prefix + name for name, _ in spec)
    h = {prefix + name: hv for name, hv in spec}
    gg = {} if g is None else {prefix + name: gv for name, gv in g.items()}
    return CliqueLeaf(names, h, gg)


# -- Delta = 6, HG = 8 -------------------------------------------------


def build_delta6_hg8() -> GameExpr:
    """Three identical K5-K3-K5 chains multiplied at the K3 center.

    Chain: K5 with one vertex h=2 (rest 8), glued to the K3 (4, 4,
    center 2) at an h=4 vertex, glued to a second such K5 at the other
    h=4 vertex.  Every leaf is precise; the center picks up h = 2^3 = 8
    from the threefold product."""

    def chain() -> tuple[GameExpr, str]:
        k5a = _clique("", [("A", 2), ("p1", 8), ("p2", 8), ("p3", 8), ("p4", 8)])
        k3 = _clique("", [("A", 4), ("B", 4), ("c", 2)])
        k5b = _clique("", [("B", 2), ("q1", 8), ("q2", 8), ("q3", 8), ("q4", 8)])
        e = Product(k5a, "A", k3, "A")
        # center now "R/c", B now "R/B"
        e = Product(e, "R/B", k5b, "B")
        return e, "L/R/c"

    c1, n1 = chain()
    c2, n2 = chain()
    c3, n3 = chain()
    e = Product(c1, n1, c2, n2)
    e = Product(e, "L/" + n1, c3, n3)
    return e


# -- the 4/3 family G_n ------------------------------------------------


def _t_leaf(n: int, k: int, tag: str) -> CliqueLeaf:
    """T_k clique: K_{2^{n-k}+1} with 2^{n-k} top vertices of hatness
    2^{n-k+1} and one bottom vertex of hatness 2."""
    tops = [(f"{tag}t{i}", 2 ** (n - k + 1)) for i in range(2 ** (n - k))]
    return _clique("", tops + [(f"{tag}b", 2)])


def build_scary(n: int) -> GameExpr:
    """G_n: n copies of the layered graph G-tilde_n multiplied at the
    root.  A level-k vertex is a top of one T_{k+1} and the bottom of k
    copies of T_k; the root is the bottom of a single T_{n-1}."""
    if n < 3:
        raise GalleryError("build_scary requires n >= 3")
    counter = [0]

    def subtree(k: int) -> tuple[GameExpr, str]:
        """One T_k copy with full subtrees on its tops; returns the
        expression and the current name of the bottom vertex."""
        counter[0] += 1
        tag = f"s{counter[0]}_"
        e: GameExpr = _t_leaf(n, k, tag)
        prefix = ""  # accumulated L/ from products applied so far
        if k >= 2:
            for i in range(2 ** (n - k)):
                for _ in range(k - 1):
                    sub, sub_bottom = subtree(k - 1)
                    e = Product(e, prefix + f"{tag}t{i}", sub, sub_bottom)
                    prefix = "L/" + prefix
        return e, prefix + f"{tag}b"

    e, root = subtree(n - 1)
    for _ in range(n - 1):
        copy, copy_root = subtree(n - 1)
        e = Product(e, root, copy, copy_root)
        root = "L/" + root
    return e


# -- the Delta + k family ----------------------------------------------


@dataclass(frozen=True)
class DeltaPlusK:
    expr: GameExpr
    m: int
    ratio: Fraction  # HG / Delta = 8m / (7m - 1) for m >= 1


def delta_plus_k_ratio(m: int) -> Fraction:
    if m < 1:
        raise GalleryError("the ratio formula needs m >= 1")
    return Fraction(8 * m, 7 * m - 1)


def build_delta_plus_k(k: int) -> DeltaPlusK:
    """Graph with HG = Delta + k: substitute K_m (h = m) into every
    vertex of the Delta=6/HG=8 graph, m = k - 1.  For k = 1 any complete
    graph already has HG = Delta + 1; K_2 is returned."""
    if k < 1:
        raise GalleryError("build_delta_plus_k requires k >= 1")
    if k == 1:
        return DeltaPlusK(_clique("", [("a", 2), ("b", 2)]), 0, Fraction(2, 1))
    m = k - 1
    e = build_delta6_hg8()
    targets = list(eval_expr(e).game.vertices)
    for i in range(len(targets)):
        inner = _clique(f"m{i}_", [(f"x{j}", m) for j in range(m)])
        e = Substitute(inner, e, targets[i])
        # remaining outer vertices now carry an extra R/ prefix
        targets = ["R/" + u for u in targets]
    return DeltaPlusK(e, m, delta_plus_k_ratio(m))


# -- clique chains H_n^l -----------------------------------------------

VARIANTS = ("standard", "tilde", "minus")


@dataclass(frozen=True)
class ChainBuild:
    graph: Graph
    n: int
    l: int
    variant: str
    expr: Optional[GameExpr] = None  # winning (even l) / losing (odd l)
    muhat_expr: Optional[GameExpr] = None  # generalized, odd l only


def _chain_sizes(n: int, l: int, variant: str) -> list[int]:
    sizes = [l - 1] + [l - 2] * (n - 2) + [l - 1]
    if variant == "tilde":
        sizes[-1] = l - 2
    return sizes


def build_chain_graph(n: int, l: int, variant: str = "standard") -> Graph:
    """The chain of n cliques joined by bridges: end cliques K_{l-1},
    inner cliques K_{l-2}; tilde shrinks the last clique to K_{l-2};
    minus removes one edge of the last clique that carries no bridge."""
    if variant not in VARIANTS:
        raise GalleryError(f"variant must be one of {VARIANTS}")
    if n < 2:
        raise GalleryError("a chain needs n >= 2 cliques")
    if l < 3:
        raise GalleryError("chains need l >= 3")
    sizes = _chain_sizes(n, l, variant)
    if variant == "minus" and sizes[-1] < 3:
        raise GalleryError("minus variant needs a last clique K_3 or larger")
    cliques = [[f"c{i}v{j}" for j in range(size)] for i, size in enumerate(sizes)]
    # c{i}v1 (c{i}v0 in a K_1) is bridged to c{i+1}v0
    bridges = [((i, min(1, sizes[i] - 1)), (i + 1, 0)) for i in range(n - 1)]
    graph = bridged_cliques(cliques, bridges)
    if variant != "minus":
        return graph
    # the bridge endpoint of the last clique is c{n-1}v0: drop v1 -- v2
    a = len(graph) - sizes[-1] + 1
    adj = list(graph.adj)
    adj[a], adj[a + 1] = adj[a] - {a + 1}, adj[a + 1] - {a}
    return Graph(graph.vertices, adj)


def _bridged_chain_expr(n: int, end, inner) -> GameExpr:
    """Winning chain of precise bricks: end(0), inner(1), ..., inner(n-2),
    end(n-1), each joined to the next by a (2,2) edge glued in by two
    products.  end(i) marks its bridge vertex e{i}m; inner(i) marks
    i{i}a (left bridge) and i{i}b (right bridge)."""

    def edge(i: int) -> CliqueLeaf:
        return _clique("", [(f"b{i}u", 2), (f"b{i}v", 2)])

    e: GameExpr = end(0)
    marked = "e0m"
    for i in range(1, n):
        e = Product(e, marked, edge(i), f"b{i}u")
        nxt = end(i) if i == n - 1 else inner(i)
        left_mark = f"e{i}m" if i == n - 1 else f"i{i}a"
        e = Product(e, f"R/b{i}v", nxt, left_mark)
        marked = f"R/i{i}b"
    return e


def _even_chain_expr(n: int, k: int) -> GameExpr:
    """Winning chain of precise bricks for l = 2k: end cliques K_{2k-1}
    with one h=k vertex, inner cliques K_{2k-2} with two, and (2,2)
    edges glued in by products (bridge vertices get h = 2k)."""
    if k < 2:
        raise GalleryError("even chains need l = 2k >= 4")

    def end(i: int) -> CliqueLeaf:
        spec = [(f"e{i}m", k)] + [(f"e{i}x{j}", 2 * k) for j in range(2 * k - 2)]
        return _clique("", spec)

    def inner(i: int) -> CliqueLeaf:
        spec = [(f"i{i}a", k), (f"i{i}b", k)]
        spec += [(f"i{i}x{j}", 2 * k) for j in range(2 * k - 4)]
        return _clique("", spec)

    return _bridged_chain_expr(n, end, inner)


def _odd_chain_lose_expr(n: int, k: int) -> GameExpr:
    """Losing chain for l = 2k + 1 at constant hatness 2k + 1: start
    from the plain losing clique K_{2k}, then repeatedly glue bricks
    that carry a pendant h=2 vertex (obtained by the pendant theorem
    from a clique with one h = k+1 vertex) onto the previous clique's
    marked vertex via the losing-sum theorem."""
    e: GameExpr = _clique(
        "", [(f"e0x{j}", 2 * k + 1) for j in range(2 * k)]
    )
    marked = "e0x0"
    for i in range(1, n):
        size = 2 * k if i == n - 1 else 2 * k - 1
        spec = [(f"c{i}B", k + 1)]
        spec += [(f"c{i}x{j}", 2 * k + 1) for j in range(size - 1)]
        brick: GameExpr = PendantLose(_clique("", spec), f"c{i}B", f"c{i}P")
        e = SumLose(e, marked, brick, f"c{i}P")
        # for k = 1 an inner clique is K_1, so the next brick glues at B
        marked = f"R/c{i}x0" if size > 1 else f"R/c{i}B"
    return e


def _odd_chain_muhat_expr(n: int, k: int) -> GameExpr:
    """Generalized winning chain realizing mu-hat = 2k + 1 for the odd
    chain: bridge-end vertices carry (h, g) = (2k+1, 2); inner cliques
    are K_{2k-1} so that every brick is precise."""
    g2 = lambda *names: {name: 2 for name in names}

    def end(i: int) -> CliqueLeaf:
        spec = [(f"e{i}m", 2 * k + 1)]
        spec += [(f"e{i}x{j}", 2 * k + 1) for j in range(2 * k - 1)]
        return _clique("", spec, g=g2(f"e{i}m"))

    def inner(i: int) -> CliqueLeaf:
        spec = [(f"i{i}a", 2 * k + 1), (f"i{i}b", 2 * k + 1)]
        spec += [(f"i{i}x{j}", 2 * k + 1) for j in range(2 * k - 3)]
        return _clique("", spec, g=g2(f"i{i}a", f"i{i}b"))

    return _bridged_chain_expr(n, end, inner)


def build_chain(n: int, l: int, variant: str = "standard") -> ChainBuild:
    """Chain H_n^l (or its tilde / minus variant) with the certificate
    expressions the lemma provides for the standard variant."""
    graph = build_chain_graph(n, l, variant)
    if variant != "standard":
        return ChainBuild(graph, n, l, variant)
    if l % 2 == 0:
        return ChainBuild(graph, n, l, variant, expr=_even_chain_expr(n, l // 2))
    k = (l - 1) // 2
    return ChainBuild(
        graph,
        n,
        l,
        variant,
        expr=_odd_chain_lose_expr(n, k),
        muhat_expr=_odd_chain_muhat_expr(n, k),
    )


# -- clique-extension examples -----------------------------------------


@dataclass(frozen=True)
class ExtensionExample:
    base: Graph
    sizes: tuple[int, ...]
    kind: int

    @cached_property
    def u_poly(self) -> UnivariatePoly:
        return U_from_f(self.base, self.sizes, kind=self.kind)

    @cached_property
    def graph(self) -> Graph | None:
        build = build_first_kind if self.kind == 1 else build_second_kind
        try:
            return build(self.base, self.sizes)
        except ExtensionError:
            return None


def build_extension_example(which: int, n: int, k: int) -> ExtensionExample:
    """The three path-extension examples: G(k+1, ..., k+1) and
    G(k+3, k+1, ..., k+1, k+3) of the first kind, H(k+1, k, ..., k, k+1)
    of the second kind.  `u_poly` and `graph` are built when first read;
    graph is None when a size is below its vertex's degree, where U of
    the recurrence still exists."""
    if n < 2:
        raise GalleryError("extension examples need n >= 2")
    if k < 0:
        raise GalleryError("extension examples need k >= 0")
    if which == 1:
        sizes = (k + 1,) * n
    elif which == 2:
        sizes = (k + 3,) + (k + 1,) * (n - 2) + (k + 3,)
    elif which == 3:
        sizes = (k + 1,) + (k,) * (n - 2) + (k + 1,)
    else:
        raise GalleryError("which must be 1, 2 or 3")
    base = path_graph([f"v{i}" for i in range(n)])
    return ExtensionExample(base, sizes, 2 if which == 3 else 1)
