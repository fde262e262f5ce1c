import random
from fractions import Fraction
from math import comb

import pytest

from hatlab.graphs import complete_graph, make_graph, path_graph
from hatlab.indpoly import (
    _Evaluator,
    eval_P,
    eval_P_brute,
    eval_Z,
    univariate_P,
    univariate_U,
    z_corner_evaluator,
    z_ray,
)
from hatlab.poly import UnivariatePoly

HALF = Fraction(1, 2)


def test_p_single_vertex():
    g = make_graph(["a"], set())
    assert eval_P(g, {"a": Fraction(3)}) == 4


def test_p_edge():
    g = complete_graph(["a", "b"])
    # P = 1 + x_a + x_b
    assert eval_P(g, {"a": Fraction(2), "b": Fraction(5)}) == 8


def test_p_two_isolated_vertices_factorizes():
    g = make_graph(["a", "b"], set())
    assert eval_P(g, {"a": Fraction(1), "b": Fraction(2)}) == 6


def test_p_p4_univariate():
    u = univariate_P(path_graph(["a", "b", "c", "d"]))
    # 8 independent sets: 1 + 4x + 3x^2
    assert u == UnivariatePoly.of(1, 4, 3)


def test_u_p4():
    u = univariate_U(path_graph(["a", "b", "c", "d"]))
    assert u == UnivariatePoly.of(1, -4, 3)


def test_z_is_p_at_negated_point():
    g = path_graph(["a", "b", "c"])
    x = {"a": HALF, "b": Fraction(1, 3), "c": HALF}
    assert eval_Z(g, x) == eval_P(g, {v: -xv for v, xv in x.items()})


def test_z_vanishes_at_precise_clique_point():
    g = complete_graph(["a", "b", "c"])
    r = {v: Fraction(1, 3) for v in "abc"}
    assert eval_Z(g, r) == 0


def test_recurrence_matches_brute_force():
    g = make_graph(
        ["a", "b", "c", "d", "e"],
        {("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a"), ("a", "c")},
    )
    x = {v: Fraction(i + 1, 3) for i, v in enumerate(g.vertices)}
    assert eval_P(g, x) == eval_P_brute(g, x)


def test_corner_evaluator_subsets():
    g = complete_graph(["a", "b"])
    r = {"a": HALF, "b": HALF}
    ev = z_corner_evaluator(g, r)
    # full set: Z = 1 - 1/2 - 1/2 = 0; singletons: 1/2 each
    assert ev.value(frozenset({0, 1})) == 0
    assert ev.value(frozenset({0})) == HALF
    assert ev.value(frozenset()) == 1


def test_missing_vertex_value_raises():
    g = complete_graph(["a", "b"])
    with pytest.raises(Exception):
        eval_P(g, {"a": Fraction(1)})


def test_z_of_5000_vertex_path_matches_recurrence():
    rng = random.Random(5000)
    g = path_graph([f"v{i}" for i in range(5000)])
    r = {v: Fraction(1, rng.randint(2, 5)) for v in g.vertices}
    # z_k = z_{k-1} - x_k z_{k-2} along the path, z_0 = z_{-1} = 1
    z, z_prev = Fraction(1), Fraction(1)
    for v in g.vertices:
        z, z_prev = z - r[v] * z_prev, z
    assert eval_Z(g, r) == z


@pytest.mark.parametrize("seed", range(12))
def test_every_corner_matches_brute_force(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 10)
    verts = [f"v{i}" for i in range(n)]
    p = rng.random()
    edges = {
        (u, w) for i, u in enumerate(verts) for w in verts[i + 1:] if rng.random() < p
    }
    g = make_graph(rng.sample(verts, n), edges)
    r = {v: Fraction(rng.randint(1, 4), rng.randint(2, 9)) for v in verts}
    ev = z_corner_evaluator(g, r)
    for bits in range(2 ** n):
        sub = frozenset(i for i in range(n) if bits >> i & 1)
        induced = g.induced(g.vertices[i] for i in sub)
        expect = eval_P_brute(induced, {v: -r[v] for v in induced.vertices})
        assert ev.value(sub) == expect


def test_univariate_p_of_cycles_counts_independent_sets():
    for n in range(3, 31):
        verts = [f"v{i}" for i in range(n)]
        g = make_graph(verts, {(verts[i], verts[(i + 1) % n]) for i in range(n)})
        # C_n has n/(n-k) * binom(n-k, k) independent k-sets
        counts = [n * comb(n - k, k) // (n - k) for k in range(n // 2 + 1)]
        assert univariate_P(g) == UnivariatePoly.of(*counts)


def _fraction_ray(graph, r):
    """q(t) = Z_G(t r) by the clique recurrence over polynomials with
    Fraction coefficients, the way z_ray built it before it ran over the
    integers."""
    t = UnivariatePoly.x()
    val = _Evaluator(graph, {v: -r[v] * t for v in graph.vertices}).full()
    return val if isinstance(val, UnivariatePoly) else UnivariatePoly.const(val)


def _ray_cases():
    from hatlab import gallery
    from hatlab.algebra import eval_expr
    from hatlab.games import fraction_vector

    rng = random.Random(2026)
    for n in (1, 2, 7, 40, 90):
        g = path_graph([f"v{i}" for i in range(n)])
        yield f"P{n}", g, {v: Fraction(1, rng.randint(2, 7)) for v in g.vertices}
    for n, l in ((2, 4), (5, 4), (3, 6)):
        g = gallery.build_chain_graph(n, l)
        yield f"H{n}^{l}", g, dict.fromkeys(g.vertices, Fraction(1, l))
    for name, expr in (("delta6", gallery.build_delta6_hg8()),
                       ("scary3", gallery.build_scary(3))):
        game = eval_expr(expr).game
        yield name, game.graph, fraction_vector(game)
    for i in range(20):
        n = rng.randint(1, 9)
        verts = [f"v{j}" for j in range(n)]
        edges = {(u, w) for j, u in enumerate(verts) for w in verts[j + 1:]
                 if rng.random() < 0.4}
        r = {v: Fraction(rng.randint(1, 5), rng.randint(1, 9)) for v in verts}
        yield f"random{i}", make_graph(rng.sample(verts, n), edges), r


def test_integer_ray_matches_fraction_build():
    cases = 0
    for name, g, r in _ray_cases():
        q = z_ray(g, r)
        assert q == _fraction_ray(g, r), name
        assert q(1) == eval_Z(g, r), name
        cases += 1
    assert cases == 30

