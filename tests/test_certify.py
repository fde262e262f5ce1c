import itertools
import math
import random
from fractions import Fraction

import pytest

from hatlab import algebra, gallery, graphs, indpoly
from hatlab.algebra import CliqueLeaf, ExprError, Product, SumLose, conclude_hg, eval_expr
from hatlab.certify import (
    CertifyError,
    Inconclusive,
    LosingCertificate,
    MaximalityCertificate,
    Refutation,
    check_maximal_compositional,
    check_maximal_direct,
    losing_by_Z_positive,
    mu_hat_chordal,
)
from hatlab.games import WINNING, fraction_vector, make_game, uniform_game
from hatlab.graphs import (
    complete_graph,
    components,
    diameter,
    make_graph,
    path_graph,
    stats,
)
from hatlab.indpoly import (
    eval_P,
    eval_Z,
    univariate_P,
    univariate_U,
    z_corner_evaluator,
    z_prefix_chain,
)
from hatlab.roots import sturm_roots
from hatlab.solver import search_game, verify_strategy
from ray_reference import fraction_ray


def test_precise_clique_is_maximal_direct():
    game = uniform_game(complete_graph(["a", "b", "c"]), 3)
    cert = check_maximal_direct(game)
    assert isinstance(cert, MaximalityCertificate)
    assert cert.z_at_r == 0
    assert cert.method == "chain"
    assert cert.corner_count == 7
    assert sorted(cert.chain) == ["a", "b", "c"]


def test_losing_clique_refuted():
    game = uniform_game(complete_graph(["a", "b"]), 3)
    out = check_maximal_direct(game)
    assert isinstance(out, Refutation)
    assert out.witness_value == Fraction(1, 3)


def test_h2_path_is_maximal_direct():
    # the product of two precise K2s: P3 with h = (2, 4, 2)
    game = make_game(path_graph(["a", "b", "c"]), {"a": 2, "b": 4, "c": 2})
    cert = check_maximal_direct(game)
    assert isinstance(cert, MaximalityCertificate)


def test_direct_check_has_no_size_cutoff():
    # a 23-vertex path and the 31-vertex delta6 both get verdicts
    game = uniform_game(path_graph([f"v{i}" for i in range(23)]), 2)
    assert isinstance(check_maximal_direct(game), Refutation)
    cert = check_maximal_direct(eval_expr(gallery.build_delta6_hg8()).game)
    assert isinstance(cert, MaximalityCertificate)
    assert cert.corner_count == 2**31 - 1


@pytest.mark.parametrize(
    "expr",
    [
        gallery.build_delta6_hg8,
        lambda: gallery.build_scary(3),
        lambda: gallery.build_scary(4),
        lambda: gallery.build_delta_plus_k(3).expr,
    ],
    ids=["delta6", "scary3", "scary4", "delta_plus_3"],
)
def test_gallery_games_are_maximal_direct(expr):
    cert = check_maximal_direct(eval_expr(expr()).game)
    assert isinstance(cert, MaximalityCertificate)
    assert cert.method == "chain"


@pytest.mark.parametrize("n", [2, 5, 10, 50])
def test_chain_diameter_grows_at_degree_three(n):
    # the diameter claim: H_n^4 keeps max degree 3 and HG = 4 while its
    # diameter is 2n - 1; maximal both directly and by composition
    chain = gallery.build_chain(n, 4)
    assert stats(chain.graph).max_degree == 3
    assert diameter(chain.graph) == 2 * n - 1
    assert conclude_hg(chain.expr).value == 4
    direct = check_maximal_direct(uniform_game(chain.graph, 4))
    assert isinstance(direct, MaximalityCertificate)
    assert direct.method == "chain"
    comp = check_maximal_compositional(chain.expr)
    assert isinstance(comp, MaximalityCertificate)


# -- differential against the corner sweep -----------------------------


def _sweep_is_maximal(game) -> bool:
    """The definition on a small game: Z(r) = 0 and Z > 0 at every other
    box corner."""
    n = len(game.vertices)
    ev = z_corner_evaluator(game.graph, fraction_vector(game))
    if ev.value(frozenset(range(n))) != 0:
        return False
    return all(
        ev.value(frozenset(sub)) > 0
        for k in range(n)
        for sub in itertools.combinations(range(n), k)
    )


def _random_graph(rng, names, p):
    edges = {(u, v) for u, v in itertools.combinations(names, 2) if rng.random() < p}
    if names and rng.random() < 0.8:
        # a random spanning tree keeps most of them connected
        for i in range(1, len(names)):
            edges.add((names[rng.randrange(i)], names[i]))
    return make_graph(names, edges)


def _boundary_game(rng, graph, hmin, hmax):
    """A game with Z(r) = 0 when one coordinate can be solved for it:
    Z = A - r_v B is affine in r_v, and r_v = A/B must lie in (0, 1]."""
    h = {v: rng.randint(hmin, hmax) for v in graph.vertices}
    v = rng.choice(graph.vertices)
    r = {u: Fraction(1, h[u]) for u in graph.vertices}
    rest = [u for u in graph.vertices if u != v]
    a = eval_Z(graph.induced(rest), r)
    b = eval_Z(graph.induced(u for u in rest if u not in graph.neighbors(v)), r)
    if b == 0 or not 0 < a / b <= 1:
        return make_game(graph, h)  # Z(r) != 0 in general
    rv = a / b
    h[v] = rv.denominator
    return make_game(graph, h, {v: rv.numerator})


def _ray_is_maximal(game) -> bool:
    """The ray lemma, the reference the chain replaced: a connected game
    with Z(r) = 0 is maximal exactly when Z(t r) has no root in (0, 1),
    counted here by the Sturm reference."""
    r = fraction_vector(game)
    if not stats(game.graph).connected or eval_Z(game.graph, r) != 0:
        return False
    q = fraction_ray(game.graph, r)
    return sturm_roots(q, Fraction(0), Fraction(1)) == 1  # the root at t = 1


def _ray_in_region(game) -> bool:
    """Shearer's region by the ray: Z_W(t r) > 0 for 0 <= t <= 1 on every
    component W."""
    r = fraction_vector(game)
    return all(
        sturm_roots(fraction_ray(game.graph.induced(comp), r), Fraction(0), Fraction(1)) == 0
        for comp in components(game.graph)
    )


def test_ray_agrees_with_corner_sweep():
    rng = random.Random(7)
    seen = {"maximal": 0, "Z(r) != 0": 0, "chain": 0, "disconnected": 0}
    for _ in range(500):
        n = rng.randint(1, 10)
        graph = _random_graph(rng, [f"v{i}" for i in range(n)], rng.choice((0.2, 0.4)))
        game = _boundary_game(rng, graph, *rng.choice(((2, 3), (2, 4), (3, 8), (6, 12))))
        out = check_maximal_direct(game)
        r = fraction_vector(game)
        assert isinstance(out, MaximalityCertificate) == _sweep_is_maximal(game)
        assert isinstance(out, MaximalityCertificate) == _ray_is_maximal(game)
        if isinstance(out, MaximalityCertificate):
            assert out.corner_count == 2**n - 1
            seen["maximal"] += 1
            continue
        assert isinstance(out, Refutation)
        if eval_Z(game.graph, r) != 0:
            assert (out.witness_point, out.witness_value) == (r, eval_Z(game.graph, r))
            seen["Z(r) != 0"] += 1
            continue
        point = out.witness_point
        assert all(point[v] in (0, r[v]) for v in game.vertices)
        keep = {i for i, v in enumerate(game.vertices) if point[v] != 0}
        assert len(keep) < n
        value = z_corner_evaluator(game.graph, r).value(frozenset(keep))
        assert value == out.witness_value <= 0
        connected = stats(game.graph).connected
        if connected:
            assert out.reason.startswith(
                f"Z = {value} on the first {len(keep)} of {n} vertices of the chain"
            )
        seen["chain" if connected else "disconnected"] += 1
    # every branch is exercised
    assert min(seen.values()) >= 10, seen


def _subset_values(game) -> dict:
    """Z_W(r) of every vertex set W, keyed by the frozenset of names."""
    r = fraction_vector(game)
    names = game.vertices
    ev = z_corner_evaluator(game.graph, r)
    return {
        frozenset(names[i] for i in sub): ev.value(frozenset(sub))
        for k in range(len(names) + 1)
        for sub in itertools.combinations(range(len(names)), k)
    }


def test_chain_lemma_against_every_subset():
    # both halves of the chain lemma, on the values of all 2^n subsets:
    # (a) every prefix positive iff every subset positive, on any graph;
    # (b) on a connected graph, every proper prefix positive and Z(r) = 0
    # iff maximal; and the chain reports the first non-positive prefix
    rng = random.Random(26)
    seen = dict.fromkeys(
        ["chordal", "not chordal", "disconnected", "inside", "outside",
         "maximal", "boundary, not maximal"], 0)
    for _ in range(1200):
        n = rng.randint(1, 8)
        graph = _random_graph(rng, [f"v{i}" for i in range(n)], rng.choice((0.2, 0.4, 0.6)))
        if rng.random() < 0.5:
            game = _boundary_game(rng, graph, *rng.choice(((2, 3), (2, 5), (4, 9))))
        else:
            h = {v: rng.randint(2, 9) for v in graph.vertices}
            game = make_game(graph, h, {v: rng.randint(1, 2) for v in graph.vertices if h[v] > 2})
        values = _subset_values(game)
        full = frozenset(game.vertices)
        chain = z_prefix_chain(game.graph, fraction_vector(game))
        assert sorted(chain.order) == sorted(game.vertices)
        prefixes = [values[frozenset(chain.order[:i])] for i in range(1, n + 1)]
        first = next((i + 1 for i, z in enumerate(prefixes) if z <= 0), None)
        assert chain.first == first
        assert chain.value == (None if first is None else prefixes[first - 1])
        assert chain.z == values[full]
        inside = all(z > 0 for z in values.values())
        assert (first is None) == inside  # (a)
        assert isinstance(losing_by_Z_positive(game), LosingCertificate) == inside
        maximal = values[full] == 0 and all(z > 0 for w, z in values.items() if w != full)
        connected = stats(game.graph).connected
        if connected:
            assert (chain.z == 0 and first == n) == maximal  # (b)
        assert isinstance(check_maximal_direct(game), MaximalityCertificate) == maximal
        seen["chordal" if graphs.is_chordal(game.graph) else "not chordal"] += 1
        seen["disconnected"] += not connected
        seen["inside" if inside else "outside"] += 1
        if values[full] == 0:
            seen["maximal" if maximal else "boundary, not maximal"] += 1
    assert min(seen.values()) >= 50, seen


def test_chain_on_a_disconnected_boundary_is_not_maximality():
    # K1 + K2 at r = (1/3, 1/2, 1/2): along a, b, c the proper prefixes
    # give 2/3 and 1/3 and Z(r) = 0, but Z vanishes on the corner that
    # keeps b and c, so half (b) of the chain lemma needs connectivity
    graph = make_graph(list("abc"), {("b", "c")})
    game = make_game(graph, {"a": 3, "b": 2, "c": 2})
    values = _subset_values(game)
    assert [values[frozenset(w)] for w in ("a", "ab", "abc")] == [
        Fraction(2, 3), Fraction(1, 3), 0]
    out = check_maximal_direct(game)
    assert isinstance(out, Refutation)
    assert out.reason.startswith("disconnected")
    assert out.witness_point == {"a": 0, "b": Fraction(1, 2), "c": Fraction(1, 2)}
    assert out.witness_value == 0


def test_deep_certificates_repr_and_compare():
    # H_2000^4 nests 4,000 joins; a certificate holds the composite game
    # and flat facts, not a tree, so repr and == do not recurse
    e = gallery.build_chain(2000, 4).expr
    for check in (eval_expr, check_maximal_compositional):
        a, b = check(e), check(e)
        assert repr(a).startswith(type(a).__name__)
        assert a == b


def test_compositional_maximality():
    k2 = CliqueLeaf(("a", "b"), {"a": 2, "b": 2}, {})
    e = Product(k2, "b", CliqueLeaf(("b", "c"), {"b": 2, "c": 2}, {}), "b")
    cert = check_maximal_compositional(e)
    assert isinstance(cert, MaximalityCertificate)
    assert cert.method == "compositional"
    assert cert.z_at_r == 0


@pytest.mark.parametrize("check", [conclude_hg, check_maximal_compositional])
def test_composite_z_is_rechecked(check, monkeypatch):
    # a composite Z(r) != 0 would contradict the constructor theorems
    monkeypatch.setattr(algebra, "eval_Z", lambda graph, r: Fraction(1, 7))
    with pytest.raises(ExprError, match=r"Z\(r\) = 1/7"):
        check(gallery.build_delta6_hg8())


def test_compositional_inconclusive_on_losing_rules():
    k3 = CliqueLeaf(("a", "b"), {"a": 3, "b": 3}, {})
    e = SumLose(k3, "a", CliqueLeaf(("v", "w"), {"v": 2, "w": 3}, {}), "v")
    out = check_maximal_compositional(e)
    assert isinstance(out, Inconclusive)


def test_compositional_raises_on_failed_sum_lose_hypothesis():
    # h2(v) = 3, not 2: the losing-sum theorem does not apply
    k3 = CliqueLeaf(("a", "b"), {"a": 3, "b": 3}, {})
    e = SumLose(k3, "a", CliqueLeaf(("v", "w"), {"v": 3, "w": 3}, {}), "v")
    with pytest.raises(ExprError, match="h2"):
        check_maximal_compositional(e)


def test_losing_by_Z_positive():
    game = make_game(complete_graph(["a", "b"]), {"a": 2, "b": 3})
    cert = losing_by_Z_positive(game)
    assert isinstance(cert, LosingCertificate)
    assert cert.z_at_r == Fraction(1, 6)


@pytest.mark.parametrize("n", [7, 8])
def test_losing_rule_needs_shearer_region(n):
    # Z(r) = 1/16 > 0 on P7 and P8 at h=2, but r lies outside Shearer's
    # region, and the sages win
    game = uniform_game(path_graph([f"p{i}" for i in range(n)]), 2)
    assert eval_Z(game.graph, fraction_vector(game)) == Fraction(1, 16)
    out = losing_by_Z_positive(game)
    assert isinstance(out, Inconclusive)
    assert "outside Shearer's region" in out.reason
    verdict = search_game(game)
    assert verdict.status == WINNING
    assert verify_strategy(game, verdict.strategy) is None


def test_losing_rule_outside_region_on_seeded_games():
    # games that the unsound rule "Z(r) > 0 implies losing" got wrong:
    # r lies outside Shearer's region on each, and each is winning
    rng = random.Random(7)
    outside = []
    for _ in range(1500):
        names = [f"v{j}" for j in range(rng.randint(1, 6))]
        edges = {e for e in itertools.combinations(names, 2) if rng.random() < 0.5}
        h = {v: rng.randint(1, 5) for v in names}
        g = {v: min(rng.randint(1, 2), h[v]) for v in names}
        game = make_game(make_graph(names, edges), h, g)
        if eval_Z(game.graph, fraction_vector(game)) > 0:
            out = losing_by_Z_positive(game)
            assert isinstance(out, LosingCertificate) == _ray_in_region(game)
            if isinstance(out, Inconclusive):
                outside.append(game)
    assert len(outside) == 39
    for game in outside:
        verdict = search_game(game)
        assert verdict.status == WINNING
        assert verify_strategy(game, verdict.strategy) is None


def test_losing_rule_tests_components_apart():
    # two copies of K2 at (2,3): each is inside the region, and Z(r) is
    # the product of the components' values
    graph = make_graph(list("abcd"), {("a", "b"), ("c", "d")})
    game = make_game(graph, {"a": 2, "b": 3, "c": 2, "d": 3})
    cert = losing_by_Z_positive(game)
    assert isinstance(cert, LosingCertificate)
    assert cert.z_at_r == Fraction(1, 36)


def test_losing_rule_silent_at_zero():
    game = uniform_game(complete_graph(["a", "b"]), 2)
    out = losing_by_Z_positive(game)
    assert isinstance(out, Inconclusive)


def test_values_at_r_settle_without_a_ray(monkeypatch):
    # neither check builds the ray Z(t r): the chain's prefix values
    # settle every case, including a connected game with Z(r) = 0
    def refuse(*args):
        raise AssertionError("ray built")

    monkeypatch.setattr(indpoly, "_ray", refuse)
    # C4 at h = 3: Z(r) = 1 - 4/3 + 2/9 = -1/9, which refutes maximality
    # and silences the region rule
    c4 = make_graph(list("abcd"), {("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")})
    game = uniform_game(c4, 3)
    out = check_maximal_direct(game)
    assert (out.reason, out.witness_value) == ("Z(r) != 0", Fraction(-1, 9))
    assert out.witness_point == fraction_vector(game)
    out = losing_by_Z_positive(game)
    # every proper prefix of C4 at 1/3 is positive: 2/3, 1/3 and 2/9 or 1/9
    assert out.reason == (
        "Z = -1/9 on the first 4 of 4 vertices of the chain (Z(r) = -1/9): "
        "r lies outside Shearer's region; the rule is silent"
    )
    # a component that vanishes at r beside one that does not
    two = make_graph(list("abcd"), {("a", "b"), ("c", "d")})
    out = check_maximal_direct(make_game(two, {"a": 2, "b": 2, "c": 2, "d": 3}))
    assert out.reason == "disconnected: Z vanishes on one component"
    # K3 at h = 3 is maximal; P4 at h = 1 has Z(r) = 1 - 4 + 3 = 0, and
    # its first prefix, one vertex, already has Z = 0
    k3 = uniform_game(complete_graph("abc"), 3)
    cert = check_maximal_direct(k3)
    assert isinstance(cert, MaximalityCertificate) and len(cert.chain) == 3
    out = check_maximal_direct(uniform_game(path_graph("abcd"), 1))
    assert out.reason == (
        "Z = 0 on the first 1 of 4 vertices of the chain, a corner other "
        "than r with Z <= 0"
    )
    assert sorted(out.witness_point.values()) == [0, 0, 0, 1]


def test_one_elimination_order_per_graph(monkeypatch):
    # the graph keeps its order: every evaluator, the chordality test and
    # the certificates on one graph object share one maximum cardinality
    # search, and an equal but fresh graph object gets its own
    calls = []
    search = graphs.elimination_tree

    def counted(graph):
        calls.append(graph)
        return search(graph)

    monkeypatch.setattr(graphs, "elimination_tree", counted)
    c4 = {("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")}
    cases = [
        # P4 at h = 4: Z(r) = 3/16, and r lies in Shearer's region
        (lambda: path_graph("abcd"), 4, 3, Refutation, LosingCertificate),
        (lambda: complete_graph("abc"), 3, 3, MaximalityCertificate, Inconclusive),
        # C4 is not chordal: the recurrence everywhere, and no mu-hat
        (lambda: make_graph("abcd", c4), 3, None, Refutation, Inconclusive),
    ]
    for make, h, muhat, direct, losing in cases:
        graph = make()
        game = uniform_game(graph, h)
        x = dict.fromkeys(graph.vertices, Fraction(1, 5))
        for _ in range(2):
            eval_P(graph, x)
            eval_Z(graph, x)
            univariate_P(graph)
            univariate_U(graph)
            graphs.is_chordal(graph)
            assert isinstance(check_maximal_direct(game), direct)
            assert isinstance(losing_by_Z_positive(game), losing)
            if muhat is None:
                with pytest.raises(CertifyError):
                    mu_hat_chordal(graph)
            else:
                assert mu_hat_chordal(graph).value == muhat
        assert calls == [graph]
        fresh = make()
        assert fresh == graph and fresh is not graph
        eval_Z(fresh, x)
        univariate_U(fresh)
        assert calls == [graph, fresh]
        calls.clear()


def test_mu_hat_chordal_p4():
    res = mu_hat_chordal(path_graph(["a", "b", "c", "d"]))
    assert res.value == 3
    assert res.interval is None
    assert sorted(res.elimination_ordering) == ["a", "b", "c", "d"]


def test_mu_hat_chordal_k3():
    res = mu_hat_chordal(complete_graph(["a", "b", "c"]))
    assert res.value == 3


def test_mu_hat_rejects_non_chordal():
    c4 = make_graph(
        ["a", "b", "c", "d"],
        {("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")},
    )
    with pytest.raises(CertifyError, match="chordal"):
        mu_hat_chordal(c4)


def test_mu_hat_candidate_speedup():
    res = mu_hat_chordal(path_graph(["a", "b", "c", "d"]), candidate=Fraction(1, 3))
    assert res.value == 3


def test_mu_hat_of_long_path():
    # U of P_n has its smallest root at 1/(4 cos^2(pi/(n+2)))
    res = mu_hat_chordal(path_graph([f"v{i}" for i in range(60)]))
    assert res.value is None
    assert res.interval.lower < 4 * math.cos(math.pi / 62) ** 2 < res.interval.upper
