"""The tests' reference for rays of the independence polynomial, built on
Fractions and sharing no code with `hatlab.indpoly`."""

from hatlab.graphs import components
from hatlab.poly import UnivariatePoly


def fraction_ray(graph, r):
    """q(t) = Z_G(t r) by the vertex recurrence
    Z_S = Z_{S - v} - t r_v Z_{S - N[v]}, v of least degree in S, over
    polynomials with Fraction coefficients: multiplied over components
    and memoized on S.  At r = -1 everywhere it is the univariate P, and
    at r = 1 the univariate U."""
    t = UnivariatePoly.x()
    memo = {}

    def poly(sub):
        if not sub:
            return UnivariatePoly.of(1)
        if sub in memo:
            return memo[sub]
        first, *rest = components(graph.induced(sub))
        if rest:
            out = poly(frozenset(first)) * poly(sub - first)
        else:
            v = min(sub, key=lambda u: len(graph.neighbors(u) & sub))
            closed = (graph.neighbors(v) & sub) | {v}
            out = poly(sub - {v}) - r[v] * t * poly(sub - closed)
        memo[sub] = out
        return out

    return poly(frozenset(graph.vertices))
