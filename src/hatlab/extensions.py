"""Clique extensions of the first and second kind, their reduced
independence polynomials, and the leading-coefficient recurrences.

Clique vertices are namespaced per base vertex so reduced (per-clique)
variables can be identified deterministically.  Each kind has one
recurrence over the base vertices v_1..v_n.  It requires the ordering to
be "path-like": the neighbors of each vertex v_m among v_1..v_{m-1} must
form a contiguous suffix v_{m-1}..v_{m-d}.  It runs over coefficient
lists (`poly.coeff_sum`, `coeff_product`) with one variable per clique.
At a per-clique point x the variable of clique m is the constant list
[x_m], and the recurrence gives the reduced polynomial P there.  For U
every clique's variable is [0, -1], that is -x, and the list is U itself,
as U(x) = P(-x, ..., -x); integer sizes keep it on integers, so no
`Fraction` enters the loop.  The top coefficient f_n, the number of
independent sets with one vertex in every clique, is P's coefficient of
x_1 ... x_n, so it is (-1)^n times U's coefficient of x^n.  Sizes may be
numbers or polynomials: the recurrences have degree 1 in each size.

When the ordering is not path-like, both fall back to exact evaluation
on the built graph, which needs integer sizes: P by `eval_P`, and U by
`univariate_U` (no independent set holds two vertices of one clique, so
U has degree at most n, and f_n is the count of independent n-sets).

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


def _skip_or_free(xm: list, free) -> list:
    """x_m free + 1: skip clique m, or take one of its `free` vertices
    with no bridge to an earlier clique."""
    out = [c * free for c in xm]
    out[0] += 1
    return out


def _first_kind(ds, sizes, x):
    """The three-term recurrence

        P_m = t_m P_{m-1} + x_m t_{m-1} ... t_{m-d} P_{m-1-d},

    with t_i = x_i (a_i - 1) + 1: clique i offers its a_i - 1 unmarked
    vertices."""
    t = [_skip_or_free(xi, a - 1) for xi, a in zip(x, sizes)]
    P = [[1]]
    for m, d in enumerate(ds):
        # take marked v_m: cliques m-d..m-1 then offer unmarked vertices
        # only; the small factors go first and the large P[m-d] last
        P.append(coeff_sum([coeff_product([t[m], P[m]]),
                            coeff_product([x[m], *t[m - d:m], P[m - d]])]))
    return P[-1]


def _second_kind(ds, sizes, x, memo):
    """The last clique is skipped or gives one of its a_m - d unbridged
    vertices; or it gives the end of its bridge to clique m - j, which
    removes the bridge's other end and so shrinks clique m - j by one.
    The memo keys the sizes by value and starts with the empty ones."""
    key = tuple(sizes)
    got = memo.get(key)
    if got is not None:
        return got
    m = len(sizes)
    d = ds[m - 1]
    terms = [coeff_product([_skip_or_free(x[m - 1], sizes[m - 1] - d),
                            _second_kind(ds, sizes[:-1], x, memo)])]
    for j in range(1, d + 1):
        reduced = list(sizes[:-1])
        reduced[m - 1 - j] = reduced[m - 1 - j] - 1
        terms.append(coeff_product([x[m - 1], _second_kind(ds, reduced, x, memo)]))
    memo[key] = val = coeff_sum(terms)
    return val


def _extension(kind: int, base: Graph, sizes, x, on_graph) -> list:
    """The kind's recurrence as a coefficient list, clique m's variable
    the list x[m], on a path-like ordering; else `on_graph` of the built
    graph, which needs integer sizes."""
    sizes = list(sizes)
    if len(sizes) != len(base.vertices):
        raise ExtensionError("one clique size per base vertex is required")
    try:
        ds = _suffix_neighbor_counts(base)
    except ExtensionError:
        if not all(isinstance(a, int) for a in sizes):
            raise ExtensionError("base ordering unmet; fallback needs integer sizes") from None
        return on_graph((build_first_kind if kind == 1 else build_second_kind)(base, sizes))
    if kind == 1:
        return _first_kind(ds, sizes, x)
    # the prefixes in increasing length first, so that no call nests
    # deeper than one neighbour window whatever the number of cliques
    memo = {(): [1]}
    for m in range(len(sizes) + 1):
        val = _second_kind(ds, sizes[:m], x, memo)
    return val


def _at_point(kind: int, base: Graph, sizes, x) -> Fraction:
    """Reduced P of the kind's extension at the per-clique point x: the
    recurrence on constant lists, or `eval_P` on the built graph."""
    x = [Fraction(v) for v in x]
    if len(x) != len(sizes):
        raise ExtensionError("one variable per clique is required")

    def on_graph(built):
        cl = clique_of_vertex(base, sizes)
        return [eval_P(built, {v: x[cl[v]] for v in built.vertices})]

    return _extension(kind, base, sizes, [[v] for v in x], on_graph)[0]


def _U_coeffs(kind: int, base: Graph, sizes) -> list:
    """U's coefficient list, of length n + 1: the recurrence with every
    clique's variable -x, or `univariate_U` of the built graph."""
    n = len(base.vertices)

    def on_graph(built):
        u = [int(c) for c in univariate_U(built).coeffs]
        return u + [0] * (n + 1 - len(u))

    return _extension(kind, base, sizes, [[0, -1]] * n, on_graph)


def reduced_P_first(base: Graph, sizes, x) -> Fraction:
    """Reduced independence polynomial of the first-kind extension at the
    per-clique point x."""
    return _at_point(1, base, sizes, x)


def reduced_P_second(base: Graph, sizes, x) -> Fraction:
    """Reduced independence polynomial of the second-kind extension."""
    return _at_point(2, base, sizes, x)


def leading_f(base: Graph, sizes):
    """Leading coefficient f_n of the first-kind reduced polynomial: the
    number of n-vertex independent sets of the extension."""
    u = _U_coeffs(1, base, sizes)
    return (-1) ** (len(u) - 1) * u[-1]


def leading_f_second(base: Graph, sizes):
    """Leading coefficient f_n for a second-kind extension.  On a
    path-like ordering, sizes below a vertex's degree give the formal
    value of the recurrence (module docstring)."""
    u = _U_coeffs(2, base, sizes)
    return (-1) ** (len(u) - 1) * u[-1]


def U_from_f(base: Graph, sizes, kind: int = 1) -> UnivariatePoly:
    """U of the extension, which is (-x)^n f_n(a_1 - 1/x, ..., a_n - 1/x):
    the recurrence with every clique's variable -x, as U(x) = P(-x, ...,
    -x).  Its coefficients are whatever numbers the sizes are (integers
    for integer sizes).  In the first kind, sizes a_i = 1 give the
    identity extension, whose U is the base graph's.  In the second kind,
    sizes below a vertex's degree give the formal polynomial of the
    recurrence, which belongs to no graph (module docstring).  On an
    ordering that is not path-like, integer sizes give U of the built
    graph, and such second-kind sizes raise there."""
    if kind not in (1, 2):
        raise ExtensionError("kind must be 1 or 2")
    return UnivariatePoly.of(*_U_coeffs(kind, base, sizes))
