"""Clique extensions of the first and second kind, their reduced
independence polynomials, and the leading-coefficient recurrences.

Clique vertices are namespaced per base vertex so reduced (per-clique)
variables can be identified deterministically.  Each kind has one
recurrence over the base vertices v_1..v_n.  It requires the ordering to
be "path-like": the neighbors of each vertex v_m among v_1..v_{m-1} must
form a contiguous suffix v_{m-1}..v_{m-d}.  At a per-clique point x it
gives the reduced polynomial P; with no point it gives the top
coefficient f_n, the number of independent sets with one vertex in every
clique, which is P's coefficient of x_1 ... x_n.  Sizes may be numbers or
polynomials: the recurrences have degree 1 in each size.

When the ordering is not path-like, both fall back to exact evaluation
on the built graph, which needs integer sizes: P by `eval_P`, and f_n as
the coefficient of x^n in the univariate P (no independent set holds two
vertices of one clique).
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import combinations
from operator import mul

from .graphs import Graph, make_graph
from .indpoly import eval_P, univariate_P
from .poly import UnivariatePoly


class ExtensionError(ValueError):
    pass


def _clique_vertex_names(base: Graph, sizes) -> list[list[str]]:
    if len(sizes) != len(base.vertices):
        raise ExtensionError("one clique size per base vertex is required")
    out = []
    for v, a in zip(base.vertices, sizes):
        if a < 1:
            raise ExtensionError(f"clique size {a} at {v!r} must be positive")
        out.append([v] + [f"{v}#{t}" for t in range(1, a)])
    return out


def _with_cliques(cliques, edges: set) -> Graph:
    """The graph on the clique vertices with the given edges, each clique
    made complete."""
    for cl in cliques:
        edges.update(combinations(cl, 2))
    return make_graph([v for cl in cliques for v in cl], edges)


def build_first_kind(base: Graph, sizes) -> Graph:
    """Attach a clique K_{a_i} at each base vertex by vertex gluing; the
    base vertex is the marked vertex of its clique."""
    return _with_cliques(_clique_vertex_names(base, sizes), set(base.edges))


def build_second_kind(base: Graph, sizes) -> Graph:
    """Replace each base vertex by a clique K_{a_j} with deg(v_j) marked
    vertices; replace each base edge by a bridge joining marked vertices,
    each marked vertex carrying exactly one bridge.  Bridges are assigned
    to the lowest-indexed unused marked vertex in each clique."""
    cliques = _clique_vertex_names(base, sizes)
    index = {v: i for i, v in enumerate(base.vertices)}
    for v, a in zip(base.vertices, sizes):
        if a < base.degree(v):
            raise ExtensionError(
                f"clique size {a} at {v!r} is below its degree "
                f"{base.degree(v)}: each marked vertex carries one bridge"
            )
    bridges = set()
    used = [0] * len(base.vertices)
    for (u, v) in sorted(base.edges, key=lambda e: (index[e[0]], index[e[1]])):
        i, j = index[u], index[v]
        bridges.add((cliques[i][used[i]], cliques[j][used[j]]))
        used[i] += 1
        used[j] += 1
    return _with_cliques(cliques, bridges)


def clique_of_vertex(base: Graph, sizes) -> dict[str, int]:
    """Map from extension vertex name to its base-clique index."""
    cliques = _clique_vertex_names(base, sizes)
    return {v: i for i, cl in enumerate(cliques) for v in cl}


# -- ordering precondition --------------------------------------------


def _suffix_neighbor_counts(base: Graph) -> list[int]:
    """For each prefix length m, the degree d of v_m such that the
    neighbors of v_m among v_1..v_{m-1} are exactly v_{m-1}..v_{m-d};
    raises when the ordering is not suffix-contiguous."""
    idx = {v: i for i, v in enumerate(base.vertices)}
    ds = []
    for m, v in enumerate(base.vertices):
        before = sorted(idx[u] for u in base.neighbors(v) if idx[u] < m)
        d = len(before)
        if before != list(range(m - d, m)):
            raise ExtensionError(
                f"vertex {v!r}: earlier neighbors are not a contiguous suffix"
            )
        ds.append(d)
    return ds


# -- the two recurrences ----------------------------------------------


def _first_kind(ds, sizes, x):
    """Reduced P of the first-kind extension at x, or f_n when x is None,
    by the three-term recurrence

        P_m = t_m P_{m-1} + x_m t_{m-1} ... t_{m-d} P_{m-1-d},

    with t_i = x_i (a_i - 1) + 1 ("skip clique i or take an unmarked
    vertex of it"), and t_i = a_i - 1 with no x_m for f_n."""
    if x is None:
        t = [a - 1 for a in sizes]
        P = [1]
    else:
        t = [xi * (a - 1) + 1 for xi, a in zip(x, sizes)]
        P = [Fraction(1)]
    for m, d in enumerate(ds):
        # take marked v_m: cliques m-d..m-1 then offer unmarked vertices
        # only; the small factors go first and the large P[m-d] last
        take = t[m - d:m] if x is None else [x[m], *t[m - d:m]]
        P.append(t[m] * P[m] + reduce(mul, take + [P[m - d]]))
    return P[-1]


def _second_kind(ds, sizes, x, memo):
    """Reduced P of the second-kind extension at x, or f_n when x is None.
    The last clique is skipped or gives one of its a_m - d unbridged
    vertices; or it gives the end of its bridge to clique m - j, which
    removes the bridge's other end and so shrinks clique m - j by one."""
    key = tuple(sizes)
    got = memo.get(key)
    if got is not None:
        return got
    m = len(sizes)
    if m == 0:
        return 1 if x is None else Fraction(1)
    d = ds[m - 1]
    rest = _second_kind(ds, sizes[:-1], x, memo)
    if x is None:
        val = (sizes[m - 1] - d) * rest
    else:
        val = (x[m - 1] * (sizes[m - 1] - d) + 1) * rest
    for j in range(1, d + 1):
        reduced = list(sizes[:-1])
        reduced[m - 1 - j] = reduced[m - 1 - j] - 1
        bridged = _second_kind(ds, reduced, x, memo)
        val = val + (bridged if x is None else x[m - 1] * bridged)
    memo[key] = val
    return val


def _extension(kind: int, base: Graph, sizes, x=None):
    """Reduced P of the kind's extension at x, or f_n when x is None: by
    the recurrence on a path-like ordering, else exactly on the built
    graph."""
    sizes = list(sizes)
    if len(sizes) != len(base.vertices):
        raise ExtensionError("one clique size per base vertex is required")
    if x is not None:
        x = [Fraction(v) for v in x]
        if len(x) != len(sizes):
            raise ExtensionError("one variable per clique is required")
    try:
        ds = _suffix_neighbor_counts(base)
    except ExtensionError:
        if not all(isinstance(a, int) for a in sizes):
            raise ExtensionError(
                "base ordering unmet; fallback needs integer sizes"
            ) from None
        built = (build_first_kind if kind == 1 else build_second_kind)(base, sizes)
        if x is None:
            return int(univariate_P(built).coeff(len(sizes)))
        cl = clique_of_vertex(base, sizes)
        return eval_P(built, {v: x[cl[v]] for v in built.vertices})
    if kind == 1:
        return _first_kind(ds, sizes, x)
    return _second_kind(ds, sizes, x, {})


def reduced_P_first(base: Graph, sizes, x) -> Fraction:
    """Reduced independence polynomial of the first-kind extension at the
    per-clique point x."""
    return _extension(1, base, sizes, x)


def reduced_P_second(base: Graph, sizes, x) -> Fraction:
    """Reduced independence polynomial of the second-kind extension."""
    return _extension(2, base, sizes, x)


def leading_f(base: Graph, sizes):
    """Leading coefficient f_n of the first-kind reduced polynomial: the
    number of n-vertex independent sets of the extension."""
    return _extension(1, base, sizes)


def leading_f_second(base: Graph, sizes):
    """Leading coefficient f_n for a second-kind extension."""
    return _extension(2, base, sizes)


def U_from_f(base: Graph, sizes, kind: int = 1) -> UnivariatePoly:
    """U of the extension via U(x) = (-x)^n f_n(a_1 - 1/x, ..., a_n - 1/x).

    The recurrence is run over polynomials in y = 1/x; multiplying by
    (-x)^n then clears denominators.  Valid for degenerate sizes a_i = 1
    as well (the identity extension reduces to the base graph)."""
    if kind not in (1, 2):
        raise ExtensionError("kind must be 1 or 2")
    y = UnivariatePoly.x()
    c = _extension(kind, base, [UnivariatePoly.const(a) - y for a in sizes])
    if not isinstance(c, UnivariatePoly):
        c = UnivariatePoly.const(c)
    n = len(base.vertices)
    sign = 1 if n % 2 == 0 else -1
    return UnivariatePoly.of(*[sign * c.coeff(n - m) for m in range(n + 1)])
