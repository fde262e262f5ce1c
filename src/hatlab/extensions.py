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

f_n always runs at the sizes a_i - y, over coefficient lists in y
(`poly.coeff_sum`, `coeff_product`): integer lists for integer sizes,
so no `Fraction` enters the loop.  The list's constant term is f_n, and
U(x) = (-x)^n f_n(a_1 - 1/x, ..., a_n - 1/x) is the list reversed, made
a `UnivariatePoly` once, at the end.

When the ordering is not path-like, both fall back to exact evaluation
on the built graph, which needs integer sizes: P by `eval_P`, and the
list in y from U by `univariate_U` (no independent set holds two
vertices of one clique, so f_n is the count of independent n-sets).

Formal sizes.  The recurrences take any size, also one that no graph
has.  In the first kind, size 1 is the identity extension: the base
graph itself.  In the second kind, the clique at v needs deg(v) marked
vertices, so a size below deg(v) gives the formal polynomial of the
recurrence and no graph, and `build_second_kind` raises on it.  The
minimal-root theorem for H(k+1, k, ..., k, k+1) at k = 0 uses inner
size 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import mul

from .graphs import Graph, bridged_cliques
from .indpoly import eval_P, univariate_U
from .poly import UnivariatePoly, coeff_product, coeff_sum


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


def build_first_kind(base: Graph, sizes) -> Graph:
    """Attach a clique K_{a_i} at each base vertex by vertex gluing; the
    base vertex is the marked vertex of its clique."""
    bridges = [((i, 0), (j, 0)) for i, nb in enumerate(base.adj) for j in nb if i < j]
    return bridged_cliques(_clique_vertex_names(base, sizes), bridges)


def build_second_kind(base: Graph, sizes) -> Graph:
    """Replace each base vertex by a clique K_{a_j} with deg(v_j) marked
    vertices; replace each base edge by a bridge joining marked vertices,
    each marked vertex carrying exactly one bridge.  Bridges are assigned
    to the lowest-indexed unused marked vertex in each clique."""
    cliques = _clique_vertex_names(base, sizes)
    for v, a in zip(base.vertices, sizes):
        if a < base.degree(v):
            raise ExtensionError(
                f"clique size {a} at {v!r} is below its degree "
                f"{base.degree(v)}: each marked vertex carries one bridge"
            )
    bridges = []
    used = [0] * len(base.vertices)
    index = base.index
    for (u, v) in sorted(base.edges, key=lambda e: (index[e[0]], index[e[1]])):
        i, j = index[u], index[v]
        bridges.append(((i, used[i]), (j, used[j])))
        used[i] += 1
        used[j] += 1
    return bridged_cliques(cliques, bridges)


def clique_of_vertex(base: Graph, sizes) -> dict[str, int]:
    """Map from extension vertex name to its base-clique index."""
    cliques = _clique_vertex_names(base, sizes)
    return {v: i for i, cl in enumerate(cliques) for v in cl}


# -- ordering precondition --------------------------------------------


def _suffix_neighbor_counts(base: Graph) -> list[int]:
    """For each prefix length m, the degree d of v_m such that the
    neighbors of v_m among v_1..v_{m-1} are exactly v_{m-1}..v_{m-d};
    raises when the ordering is not suffix-contiguous."""
    ds = []
    for m, v in enumerate(base.vertices):
        before = sorted(u for u in base.adj[m] if u < m)
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
    vertex of it"), and t_i = a_i - 1 with no x_m for f_n, which runs at
    the sizes a_i - y, over coefficient lists in y."""
    if x is None:
        t = [[a - 1, -1] for a in sizes]
        P = [[1]]
    else:
        t = [xi * (a - 1) + 1 for xi, a in zip(x, sizes)]
        P = [Fraction(1)]
    for m, d in enumerate(ds):
        # take marked v_m: cliques m-d..m-1 then offer unmarked vertices
        # only; the small factors go first and the large P[m-d] last
        if x is None:
            P.append(coeff_sum([coeff_product([t[m], P[m]]),
                                coeff_product([*t[m - d:m], P[m - d]])]))
        else:
            P.append(t[m] * P[m] + reduce(mul, [x[m], *t[m - d:m], P[m - d]]))
    return P[-1]


def _second_kind(ds, sizes, x, memo):
    """Reduced P of the second-kind extension at x, or f_n when x is None,
    at the sizes a_i - y over coefficient lists in y.  The last clique is
    skipped or gives one of its a_m - d unbridged vertices; or it gives
    the end of its bridge to clique m - j, which removes the bridge's
    other end and so shrinks clique m - j by one.  The memo keys the
    sizes by value."""
    key = tuple(sizes)
    got = memo.get(key)
    if got is not None:
        return got
    m = len(sizes)
    if m == 0:
        return [1] if x is None else Fraction(1)
    d = ds[m - 1]
    rest = _second_kind(ds, sizes[:-1], x, memo)
    bridged = []
    for j in range(1, d + 1):
        reduced = list(sizes[:-1])
        reduced[m - 1 - j] = reduced[m - 1 - j] - 1
        bridged.append(_second_kind(ds, reduced, x, memo))
    if x is None:
        val = coeff_sum([coeff_product([[sizes[m - 1] - d, -1], rest]), *bridged])
    else:
        val = (x[m - 1] * (sizes[m - 1] - d) + 1) * rest
        for b in bridged:
            val = val + x[m - 1] * b
    memo[key] = val
    return val


def _extension(kind: int, base: Graph, sizes, x=None):
    """Reduced P of the kind's extension at x; or, when x is None, the
    coefficient list in y of f_n(a_1 - y, ..., a_n - y), of length n + 1,
    whose constant term is f_n.  By the recurrence on a path-like
    ordering, else exactly on the built graph, where the list is U's
    (`U_from_f`)."""
    sizes = list(sizes)
    n = len(sizes)
    if n != len(base.vertices):
        raise ExtensionError("one clique size per base vertex is required")
    if x is not None:
        x = [Fraction(v) for v in x]
        if len(x) != n:
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
            return _reflect([int(c) for c in univariate_U(built).coeffs], n)
        cl = clique_of_vertex(base, sizes)
        return eval_P(built, {v: x[cl[v]] for v in built.vertices})
    if kind == 1:
        return _first_kind(ds, sizes, x)
    return _second_kind(ds, sizes, x, {})


def _reflect(coeffs, n: int) -> list:
    """(-1)^n c_{n-k} for k = 0..n: turns the coefficient list of
    f_n(a - y) into U's, and back, by U(x) = (-x)^n f_n(a - 1/x)."""
    coeffs = coeffs + [0] * (n + 1 - len(coeffs))
    return [(-1) ** n * c for c in reversed(coeffs)]


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
    return _extension(1, base, sizes)[0]


def leading_f_second(base: Graph, sizes):
    """Leading coefficient f_n for a second-kind extension.  On a
    path-like ordering, sizes below a vertex's degree give the formal
    value of the recurrence (module docstring)."""
    return _extension(2, base, sizes)[0]


def U_from_f(base: Graph, sizes, kind: int = 1) -> UnivariatePoly:
    """U of the extension via U(x) = (-x)^n f_n(a_1 - 1/x, ..., a_n - 1/x).

    The recurrence runs at the sizes a_i - y, over coefficient lists in
    y = 1/x that hold whatever numbers the sizes are (integers for
    integer sizes); multiplying by (-x)^n then clears denominators, which
    reverses the list.  In the first kind, sizes a_i = 1 give the
    identity extension, whose U is the base graph's.  In the second kind,
    sizes below a vertex's degree give the formal polynomial of the
    recurrence, which belongs to no graph (module docstring).  On an
    ordering that is not path-like, integer sizes give U of the built
    graph, and such second-kind sizes raise there."""
    if kind not in (1, 2):
        raise ExtensionError("kind must be 1 or 2")
    c = _extension(kind, base, sizes)
    return UnivariatePoly.of(*_reflect(c, len(c) - 1))
