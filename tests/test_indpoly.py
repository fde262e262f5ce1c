import itertools
import random
from fractions import Fraction
from math import comb, lcm

import pytest

from hatlab import indpoly
from hatlab.graphs import (
    complete_graph,
    components,
    elimination_tree,
    independent_sets,
    make_graph,
    path_graph,
)
from hatlab.indpoly import (
    _Evaluator,
    _RayEvaluator,
    eval_P,
    eval_P_brute,
    eval_Z,
    univariate_P,
    univariate_U,
    z_corner_evaluator,
    z_prefix_chain,
)
from hatlab.poly import UnivariatePoly
from hatlab.verify import _corpus_graphs
from ray_reference import fraction_ray

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


def _point_cases():
    """Seeded graphs of at most 12 vertices, many of them disconnected,
    with coordinates that are zero, negative, or over mixed denominators
    (least common denominator up to 2520), and the empty graph."""
    rng = random.Random(1012)
    yield make_graph([], set()), {}
    for _ in range(120):
        n = rng.randint(1, 12)
        verts = [f"v{i}" for i in range(n)]
        p = rng.choice((0.0, 0.15, 0.3, 0.6, 1.0))
        edges = {(u, w) for i, u in enumerate(verts) for w in verts[i + 1:]
                 if rng.random() < p}
        x = {v: Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5, 7, 8, 9)))
             for v in verts}
        yield make_graph(rng.sample(verts, n), edges), x


def test_point_values_match_brute_force():
    disconnected = zeros = negatives = big = 0
    for g, x in _point_cases():
        assert eval_P(g, x) == eval_P_brute(g, x), (g, x)
        assert eval_Z(g, x) == eval_P_brute(g, {v: -q for v, q in x.items()}), (g, x)
        disconnected += len(components(g)) > 1
        zeros += 0 in x.values()
        negatives += any(q < 0 for q in x.values())
        big += lcm(*(q.denominator for q in x.values())) == 2520
    assert min(disconnected, zeros, negatives, big) >= 5


def _fraction_brute(graph, x):
    """The enumeration oracle as a Fraction product per independent set,
    the tests' reference for eval_P_brute's integer sums."""
    total = Fraction(0)
    for s in independent_sets(graph):
        term = Fraction(1)
        for v in s:
            term *= x[v]
        total += term
    return total


def test_brute_oracle_matches_fraction_enumeration():
    rng = random.Random(10)
    graphs = [make_graph([], set())] + [
        g for g in _corpus_graphs() if len(g.vertices) <= 15
    ]
    kinds = set()
    for g in graphs:
        for _ in range(12):
            x = {}
            for v in g.vertices:
                kind = rng.choice(("zero", "int", "integral", "fraction"))
                kinds.add(kind)
                if kind == "zero":
                    x[v] = rng.choice((0, Fraction(0)))
                elif kind == "int":
                    x[v] = rng.randint(-3, 3)
                elif kind == "integral":
                    x[v] = Fraction(rng.randint(-3, 3))
                else:
                    x[v] = Fraction(rng.randint(-9, 9), rng.choice((2, 3, 4, 5, 7, 9)))
            got = eval_P_brute(g, x)
            assert got == _fraction_brute(g, x), (g, x)
            assert isinstance(got, Fraction)
    assert kinds == {"zero", "int", "integral", "fraction"}


def test_corner_values_divide_by_the_subset_size():
    # L = 2520 and nonzero values, so a power of L too many or too few
    # shows at every subset size
    rng = random.Random(2520)
    verts = [f"v{i}" for i in range(9)]
    edges = {(u, w) for i, u in enumerate(verts) for w in verts[i + 1:]
             if rng.random() < 0.3}
    g = make_graph(verts, edges)
    r = {v: Fraction(1, d) for v, d in zip(verts, (5, 7, 8, 9, 10, 3, 4, 6, 2))}
    assert lcm(*(q.denominator for q in r.values())) == 2520
    ev = z_corner_evaluator(g, r)
    sizes = set()
    for bits in range(2**9):
        sub = frozenset(i for i in range(9) if bits >> i & 1)
        induced = g.induced(verts[i] for i in sub)
        expect = eval_P_brute(induced, {v: -r[v] for v in induced.vertices})
        assert ev.value(sub) == expect, sub
        if expect != 0:
            sizes.add(len(sub))
    assert sizes == set(range(10))


def test_univariate_p_of_cycles_counts_independent_sets():
    for n in range(3, 31):
        verts = [f"v{i}" for i in range(n)]
        g = make_graph(verts, {(verts[i], verts[(i + 1) % n]) for i in range(n)})
        # C_n has n/(n-k) * binom(n-k, k) independent k-sets
        counts = [n * comb(n - k, k) // (n - k) for k in range(n // 2 + 1)]
        assert univariate_P(g) == UnivariatePoly.of(*counts)


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
        assert univariate_P(g) == fraction_ray(g, dict.fromkeys(g.vertices, -1)), name
        assert univariate_U(g) == fraction_ray(g, dict.fromkeys(g.vertices, 1)), name
        assert fraction_ray(g, r)(1) == eval_Z(g, r), name
        cases += 1
    assert cases == 30


def _random_chordal(rng, n):
    """A chordal graph built from a random perfect elimination order,
    last vertex first: each new vertex joins part of a clique of the
    vertices so far (a vertex and some of its later neighbours), or
    nothing, which starts a new component."""
    later = []  # later[v]: the later neighbours of vertex v, a clique
    edges = set()
    for v in range(n):
        if v and rng.random() < 0.85:
            u = rng.randrange(v)
            joined = [u] + [w for w in later[u] if rng.random() < 0.7]
        else:
            joined = []
        later.append(joined)
        edges |= {(f"v{u}", f"v{v}") for u in joined}
    names = [f"v{v}" for v in range(n)]
    return make_graph(rng.sample(names, n), edges)


def _chordal_point_cases():
    """Random chordal graphs of at most 12 vertices with _point_cases'
    coordinates: zero, negative, over mixed denominators."""
    rng = random.Random(4711)
    for _ in range(200):
        g = _random_chordal(rng, rng.randint(0, 12))
        x = {v: Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 5, 7, 8, 9)))
             for v in g.vertices}
        yield g, x


def test_sum_product_matches_recurrence_and_brute_force():
    disconnected = zeros = negatives = big = 0
    for g, x in _chordal_point_cases():
        assert elimination_tree(g) is not None
        for sign in (1, -1):
            want = eval_P_brute(g, {v: sign * q for v, q in x.items()})
            assert _Evaluator(g, x, sign).full() == want, (g, x)
            assert (eval_P if sign == 1 else eval_Z)(g, x) == want, (g, x)
        disconnected += len(components(g)) > 1
        zeros += 0 in x.values()
        negatives += any(q < 0 for q in x.values())
        big += lcm(*(q.denominator for q in x.values())) == 2520
    assert min(disconnected, zeros, negatives, big) >= 10


def _chordal_ray_cases():
    rng = random.Random(2027)
    for i in range(60):
        g = _random_chordal(rng, rng.randint(0, 11))
        r = {v: Fraction(rng.randint(1, 5), rng.randint(1, 9)) for v in g.vertices}
        yield f"chordal{i}", g, r


def test_ray_by_sum_product_matches_fraction_build_and_recurrence():
    # P and U by the route the graph picks and by the recurrence, against
    # the Fraction build at -1 and at 1
    chordal = 0
    for name, g, r in itertools.chain(_ray_cases(), _chordal_ray_cases()):
        ones = dict.fromkeys(g.vertices, 1)
        for sign, ray in ((1, univariate_P), (-1, univariate_U)):
            want = fraction_ray(g, dict.fromkeys(g.vertices, -sign))
            assert ray(g) == want, name
            assert _RayEvaluator(g, ones, sign).full() == want, name
        assert fraction_ray(g, r)(1) == eval_Z(g, r), name
        chordal += elimination_tree(g) is not None
    # every gallery graph and every path is chordal
    assert chordal >= 70


def _grid(k):
    names = [f"{i},{j}" for i in range(k) for j in range(k)]
    return make_graph(names, {(f"{i},{j}", f"{i + di},{j + dj}")
                              for i in range(k) for j in range(k)
                              for di, dj in ((0, 1), (1, 0))
                              if i + di < k and j + dj < k})


def _cycle(n):
    names = [f"c{i}" for i in range(n)]
    return make_graph(names, {(names[i], names[i - 1]) for i in range(n)})


def _complete_bipartite(n):
    left, right = [f"a{i}" for i in range(n)], [f"b{i}" for i in range(n)]
    return make_graph(left + right, {(u, v) for u in left for v in right})


def _non_chordal():
    return ([_cycle(n) for n in (4, 5, 9)] + [_grid(3), _grid(4)]
            + [_complete_bipartite(n) for n in (2, 3, 5)])


def test_route_follows_the_elimination_order(monkeypatch):
    # graphs without a perfect elimination order never enter the
    # sum-product, and chordal graphs never enter the recurrence
    def refuse(*args):
        raise AssertionError("wrong route")

    others = _non_chordal()
    for g in others:
        assert elimination_tree(g) is None
    with monkeypatch.context() as m:
        m.setattr(indpoly, "_sum_product", refuse)
        for g in others:
            x = {v: Fraction(1, 2 + i % 3) for i, v in enumerate(g.vertices)}
            assert eval_P(g, x) == eval_P_brute(g, x)
            assert eval_Z(g, x) == z_prefix_chain(g, x).z
            assert eval_Z(g, x) == eval_P_brute(g, {v: -q for v, q in x.items()})
            assert univariate_P(g)(HALF) == eval_P_brute(g, dict.fromkeys(g.vertices, HALF))
            assert univariate_U(g)(HALF) == eval_P_brute(g, dict.fromkeys(g.vertices, -HALF))
    chordal = [path_graph("abcde"), complete_graph("abcd"), make_graph("ab", ())]
    with monkeypatch.context() as m:
        m.setattr(indpoly, "_Evaluator", refuse)
        m.setattr(indpoly, "_RayEvaluator", refuse)
        for g in chordal:
            x = dict.fromkeys(g.vertices, Fraction(1, 3))
            assert eval_P(g, x) == eval_P_brute(g, x)
            assert eval_Z(g, x) == z_prefix_chain(g, x).z
            assert eval_Z(g, x) == eval_P_brute(g, {v: -q for v, q in x.items()})
            assert univariate_P(g)(HALF) == eval_P_brute(g, dict.fromkeys(g.vertices, HALF))
            assert univariate_U(g)(HALF) == eval_P_brute(g, dict.fromkeys(g.vertices, -HALF))


def test_u_is_p_at_minus_x():
    graphs = [g for _, g, _ in itertools.chain(_ray_cases(), _chordal_ray_cases())]
    graphs += _non_chordal()
    for g in graphs:
        p = univariate_P(g)
        flipped = UnivariatePoly.of(*((-1) ** k * c for k, c in enumerate(p.coeffs)))
        assert univariate_U(g) == flipped, g.vertices
    assert len(graphs) == 98


def _gnp(n, p, seed):
    rng = random.Random(seed)
    names = [f"v{i}" for i in range(n)]
    return make_graph(names, {(u, w) for i, u in enumerate(names)
                              for w in names[i + 1:] if rng.random() < p})


def test_prefix_chain_matches_corner_values():
    # both routes, on graphs past brute force: the first prefix with
    # Z <= 0 and its value, against the corner evaluator on every prefix.
    # The sparse random graphs and C4 + C5 (disconnected) have no perfect
    # elimination order; x_v = 1/(3(deg v + 1)) lies inside Shearer's
    # region, so their chain runs to n, and x = 1/6 lies outside it on
    # the random ones, where it returns early
    cycles = {(f"a{i}", f"a{(i + 1) % 4}") for i in range(4)}
    cycles |= {(f"b{i}", f"b{(i + 1) % 5}") for i in range(5)}
    c4_c5 = make_graph(sorted({v for e in cycles for v in e}), cycles)
    sparse = [_gnp(30, 0.1, seed) for seed in range(3)]
    sparse += [_gnp(40, 0.07, seed) for seed in range(3)]
    graphs = _non_chordal() + sparse + [c4_c5] + [
        path_graph([f"p{i}" for i in range(40)]), complete_graph("abcde"),
        make_graph("abc", ())]
    firsts = set()
    sparse_firsts = set()
    for g in graphs:
        inside = {v: Fraction(1, 3 * (len(g.neighbors(v)) + 1)) for v in g.vertices}
        points = [dict.fromkeys(g.vertices, q) for q in (
            Fraction(1, 2), Fraction(1, 4), Fraction(1, 5), Fraction(1, 6),
            Fraction(1, 11))] + [inside]
        for x in points:
            chain = z_prefix_chain(g, x)
            ev = z_corner_evaluator(g, x)
            values = [ev.value(frozenset(g.index[v] for v in chain.order[:k]))
                      for k in range(1, len(g) + 1)]
            first = next((k + 1 for k, z in enumerate(values) if z <= 0), None)
            assert chain.first == first, (g.vertices, x)
            assert chain.value == (None if first is None else values[first - 1])
            assert chain.z == values[-1] == eval_Z(g, x)
            firsts.add(first is None)
            if any(g is h for h in sparse):
                sparse_firsts.add((x is inside, first is None))
    assert firsts == {True, False}
    assert {(True, True), (False, False)} <= sparse_firsts
    assert elimination_tree(c4_c5) is None and len(components(c4_c5)) == 2
