"""Clique extensions of the first and second kind, their reduced
independence polynomials, and the leading-coefficient recurrences.

Clique vertices are namespaced per base vertex so reduced (per-clique)
variables can be identified deterministically.  The recurrences require
the base ordering to be "path-like": the neighbors of each vertex v_j
among v_1..v_j must form a contiguous suffix v_{j-1}..v_{j-d}.  When the
ordering check fails the operations fall back to direct evaluation on
the built graph (small instances only).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, GraphError, make_graph, independent_sets
from .indpoly import eval_P
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


def build_first_kind(base: Graph, sizes) -> Graph:
    """Attach a clique K_{a_i} at each base vertex by vertex gluing; the
    base vertex is the marked vertex of its clique."""
    cliques = _clique_vertex_names(base, sizes)
    verts = [v for cl in cliques for v in cl]
    edges = set(base.edges)
    for cl in cliques:
        for i in range(len(cl)):
            for j in range(i + 1, len(cl)):
                edges.add((cl[i], cl[j]))
    return make_graph(verts, edges)


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
    verts = [v for cl in cliques for v in cl]
    edges = set()
    for cl in cliques:
        for i in range(len(cl)):
            for j in range(i + 1, len(cl)):
                edges.add((cl[i], cl[j]))
    used = [0] * len(base.vertices)
    for (u, v) in sorted(base.edges, key=lambda e: (index[e[0]], index[e[1]])):
        i, j = index[u], index[v]
        edges.add((cliques[i][used[i]], cliques[j][used[j]]))
        used[i] += 1
        used[j] += 1
    return make_graph(verts, edges)


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


# -- first kind: reduced polynomial and leading coefficient -----------


def reduced_P_first(base: Graph, sizes, x) -> Fraction:
    """Reduced independence polynomial of the first-kind extension at the
    per-clique point x, via the three-term recurrence."""
    sizes = list(sizes)
    x = [Fraction(v) for v in x]
    if len(x) != len(sizes):
        raise ExtensionError("one variable per clique is required")
    try:
        ds = _suffix_neighbor_counts(base)
    except ExtensionError:
        return _reduced_P_direct(build_first_kind(base, sizes), base, sizes, x)
    # t_i = x_i*(a_i - 1) + 1 packages the "skip clique i or take an
    # unmarked vertex of it" alternative
    t = [xi * (a - 1) + 1 for xi, a in zip(x, sizes)]
    P = [Fraction(1)]  # P[m] = reduced P of the first m cliques
    for m in range(1, len(sizes) + 1):
        d = ds[m - 1]
        val = t[m - 1] * P[m - 1]
        prod = x[m - 1]
        for j in range(1, d + 1):
            prod *= t[m - 1 - j]
        val += P[m - 1 - d] * prod
        P.append(val)
    return P[-1]


def _reduced_P_direct(built: Graph, base: Graph, sizes, x) -> Fraction:
    if len(built.vertices) > 24:
        raise ExtensionError("base ordering unmet and graph too large for fallback")
    cl = clique_of_vertex(base, sizes)
    return eval_P(built, {v: x[cl[v]] for v in built.vertices})


def leading_f(base: Graph, sizes):
    """Leading coefficient f_n of the reduced polynomial: the number of
    n-vertex independent sets when all sizes exceed 1.  Sizes may be
    numbers or polynomials (the recurrence has degree 1 in each size, so
    arbitrary ring values are legal)."""
    sizes = list(sizes)
    try:
        ds = _suffix_neighbor_counts(base)
    except ExtensionError:
        if any(not isinstance(a, int) or a <= 1 for a in sizes):
            raise ExtensionError(
                "base ordering unmet; fallback needs integer sizes > 1"
            )
        built = build_first_kind(base, sizes)
        if len(built.vertices) > 24:
            raise ExtensionError(
                "base ordering unmet and graph too large for fallback"
            )
        n = len(base.vertices)
        return sum(1 for s in independent_sets(built, 24) if len(s) == n)
    f = [1]
    for m in range(1, len(sizes) + 1):
        d = ds[m - 1]
        val = (sizes[m - 1] - 1) * f[m - 1]
        prod = 1
        for j in range(1, d + 1):
            prod = prod * (sizes[m - 1 - j] - 1)
        val = val + f[m - 1 - d] * prod
        f.append(val)
    return f[-1]


def U_from_f(base: Graph, sizes, kind: int = 1) -> UnivariatePoly:
    """U of the extension via U(x) = (-x)^n f_n(a_1 - 1/x, ..., a_n - 1/x).

    The recurrence is run over polynomials in y = 1/x; multiplying by
    (-x)^n then clears denominators.  Valid for degenerate sizes a_i = 1
    as well (the identity extension reduces to the base graph)."""
    sizes = list(sizes)
    n = len(sizes)
    y = UnivariatePoly.x()
    shifted = [UnivariatePoly.const(a) - y for a in sizes]
    if kind == 1:
        c = leading_f(base, shifted)
    elif kind == 2:
        c = leading_f_second(base, shifted)
    else:
        raise ExtensionError("kind must be 1 or 2")
    if not isinstance(c, UnivariatePoly):
        c = UnivariatePoly.const(c)
    sign = 1 if n % 2 == 0 else -1
    return UnivariatePoly.of(*[sign * c.coeff(n - m) for m in range(n + 1)])


# -- second kind -------------------------------------------------------


def _second_kind_f(ds, sizes, memo):
    """f_n for a second-kind extension with the given (possibly reduced)
    size vector; removing the last clique's bridge to neighbor j also
    removes the bridge endpoint, shrinking that clique by one."""
    key = tuple(sizes)
    got = memo.get(key)
    if got is not None:
        return got
    m = len(sizes)
    if m == 0:
        return 1
    d = ds[m - 1]
    val = (sizes[m - 1] - d) * _second_kind_f(ds, sizes[:-1], memo)
    for j in range(1, d + 1):
        reduced = list(sizes[:-1])
        reduced[m - 1 - j] = reduced[m - 1 - j] - 1
        val = val + _second_kind_f(ds, reduced, memo)
    memo[key] = val
    return val


def leading_f_second(base: Graph, sizes):
    """Leading coefficient f_n for a second-kind extension."""
    sizes = list(sizes)
    ds = _suffix_neighbor_counts(base)
    return _second_kind_f(ds, sizes, {})


def _second_kind_P(ds, sizes, x, memo):
    key = tuple(sizes)
    got = memo.get(key)
    if got is not None:
        return got
    m = len(sizes)
    if m == 0:
        return Fraction(1)
    d = ds[m - 1]
    val = (x[m - 1] * (sizes[m - 1] - d) + 1) * _second_kind_P(
        ds, sizes[:-1], x, memo
    )
    for j in range(1, d + 1):
        reduced = list(sizes[:-1])
        reduced[m - 1 - j] = reduced[m - 1 - j] - 1
        val = val + x[m - 1] * _second_kind_P(ds, reduced, x, memo)
    memo[key] = val
    return val


def reduced_P_second(base: Graph, sizes, x) -> Fraction:
    """Reduced independence polynomial of the second-kind extension."""
    sizes = list(sizes)
    x = [Fraction(v) for v in x]
    if len(x) != len(sizes):
        raise ExtensionError("one variable per clique is required")
    try:
        ds = _suffix_neighbor_counts(base)
    except ExtensionError:
        return _reduced_P_direct(build_second_kind(base, sizes), base, sizes, x)
    return _second_kind_P(ds, sizes, x, {})
