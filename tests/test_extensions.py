import random
import sys
import time
from fractions import Fraction

import pytest

from hatlab.extensions import (
    ExtensionError,
    U_from_f,
    _suffix_neighbor_counts,
    build_first_kind,
    build_second_kind,
    leading_f,
    leading_f_second,
    reduced_P_first,
    reduced_P_second,
)
from hatlab.gallery import build_extension_example
from hatlab.graphs import independent_sets, make_graph, path_graph
from hatlab.indpoly import eval_P, univariate_U
from hatlab.poly import UnivariatePoly


def _path(n):
    return path_graph([f"p{i}" for i in range(n)])


def test_build_first_kind_sizes_and_edges():
    g = build_first_kind(_path(3), [2, 3, 2])
    assert len(g.vertices) == 7
    # the base vertex is glued into its clique
    assert g.has_edge("p0", "p0#1")
    assert g.has_edge("p0", "p1")
    assert not g.has_edge("p0#1", "p1")


def test_build_second_kind_bridges_marked_vertices():
    g = build_second_kind(_path(3), [2, 3, 2])
    assert len(g.vertices) == 7
    # each bridge uses a fresh marked vertex per clique
    assert g.has_edge("p0", "p1")
    assert g.has_edge("p1#1", "p2")


def test_build_second_kind_rejects_size_below_degree():
    with pytest.raises(ExtensionError, match="below its degree"):
        build_second_kind(_path(3), [1, 1, 1])


def test_reduced_P_first_matches_direct_evaluation():
    base = _path(4)
    sizes = [2, 3, 2, 4]
    x = [Fraction(1, 2), Fraction(1, 3), Fraction(2), Fraction(1, 5)]
    built = build_first_kind(base, sizes)
    point = {}
    for i, v in enumerate(base.vertices):
        point[v] = x[i]
        for t in range(1, sizes[i]):
            point[f"{v}#{t}"] = x[i]
    assert reduced_P_first(base, sizes, x) == eval_P(built, point)


def test_reduced_P_second_matches_direct_evaluation():
    base = _path(3)
    sizes = [2, 3, 2]
    x = [Fraction(1, 2), Fraction(1, 4), Fraction(3)]
    built = build_second_kind(base, sizes)
    point = {}
    for i, v in enumerate(base.vertices):
        point[v] = x[i]
        for t in range(1, sizes[i]):
            point[f"{v}#{t}"] = x[i]
    assert reduced_P_second(base, sizes, x) == eval_P(built, point)


def test_leading_f_counts_full_independent_sets():
    base = _path(3)
    sizes = [3, 3, 3]
    built = build_first_kind(base, sizes)
    n = len(base.vertices)
    expect = sum(1 for s in independent_sets(built, 24) if len(s) == n)
    assert leading_f(base, sizes) == expect


def test_leading_f_second_on_path():
    # P2 with sizes (a, b): independent pairs avoiding the single bridge
    assert leading_f_second(_path(2), [3, 3]) == 8


def test_U_from_f_identity_extension_is_base_U():
    base = _path(4)
    from hatlab.indpoly import univariate_U

    assert U_from_f(base, [1, 1, 1, 1]) == univariate_U(base)


def test_U_from_f_second_kind_below_degree_is_formal():
    # H(1, 0, 1) is example 3 at k = 0, n = 3.  The recurrence gives
    # U = (1 - 2x)(1 - x^2), least positive root 1/(k + 2) = 1/2, but a
    # clique of size 0 carries no bridge, so no graph has this U
    base = _path(3)
    assert U_from_f(base, [1, 0, 1], kind=2) == UnivariatePoly.of(1, -2, -1, 2)
    with pytest.raises(ExtensionError):
        build_second_kind(base, [1, 0, 1])


def test_U_from_f_single_clique():
    # K_a as an extension of K_1: U = 1 - a x
    base = _path(1)
    assert U_from_f(base, [4]) == UnivariatePoly.of(1, -4)


def _star():
    # a star ordered center-second is not suffix-contiguous at the leaves
    return make_graph(["a", "s", "b", "c"], {("a", "s"), ("b", "s"), ("c", "s")})


def test_non_pathlike_ordering_falls_back():
    star = _star()
    sizes = [2, 2, 2, 3]
    x = [Fraction(1, 2)] * 4
    built = build_first_kind(star, sizes)
    point = {}
    for i, v in enumerate(star.vertices):
        point[v] = x[i]
        for t in range(1, sizes[i]):
            point[f"{v}#{t}"] = x[i]
    assert reduced_P_first(star, sizes, x) == eval_P(built, point)


def test_sizes_must_match_the_base():
    p2, p4 = _path(2), _path(4)
    with pytest.raises(ExtensionError, match="one clique size per base vertex"):
        reduced_P_first(p4, [2, 2], [1, 1])
    with pytest.raises(ExtensionError, match="one clique size per base vertex"):
        reduced_P_second(p4, [2, 2], [1, 1])
    with pytest.raises(ExtensionError, match="one clique size per base vertex"):
        U_from_f(p4, [3, 3])
    with pytest.raises(ExtensionError, match="one clique size per base vertex"):
        U_from_f(p4, [3, 3], kind=2)
    with pytest.raises(ExtensionError, match="one clique size per base vertex"):
        leading_f(p2, [2, 2, 2])
    with pytest.raises(ExtensionError, match="one clique size per base vertex"):
        leading_f_second(p2, [2, 2, 2])
    with pytest.raises(ExtensionError, match="one variable per clique"):
        reduced_P_first(p2, [2, 2], [1])


# -- differential tests against the two-recurrences-per-kind originals ---


def _reference_reduced_P_first(ds, sizes, x):
    t = [xi * (a - 1) + 1 for xi, a in zip(x, sizes)]
    P = [Fraction(1)]
    for m in range(1, len(sizes) + 1):
        d = ds[m - 1]
        val = t[m - 1] * P[m - 1]
        prod = x[m - 1]
        for j in range(1, d + 1):
            prod *= t[m - 1 - j]
        val += P[m - 1 - d] * prod
        P.append(val)
    return P[-1]


def _reference_leading_f(ds, sizes):
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


def _reference_second_kind_f(ds, sizes, memo):
    key = tuple(sizes)
    got = memo.get(key)
    if got is not None:
        return got
    m = len(sizes)
    if m == 0:
        return 1
    d = ds[m - 1]
    val = (sizes[m - 1] - d) * _reference_second_kind_f(ds, sizes[:-1], memo)
    for j in range(1, d + 1):
        reduced = list(sizes[:-1])
        reduced[m - 1 - j] = reduced[m - 1 - j] - 1
        val = val + _reference_second_kind_f(ds, reduced, memo)
    memo[key] = val
    return val


def _reference_second_kind_P(ds, sizes, x, memo):
    key = tuple(sizes)
    got = memo.get(key)
    if got is not None:
        return got
    m = len(sizes)
    if m == 0:
        return Fraction(1)
    d = ds[m - 1]
    val = (x[m - 1] * (sizes[m - 1] - d) + 1) * _reference_second_kind_P(
        ds, sizes[:-1], x, memo
    )
    for j in range(1, d + 1):
        reduced = list(sizes[:-1])
        reduced[m - 1 - j] = reduced[m - 1 - j] - 1
        val = val + x[m - 1] * _reference_second_kind_P(ds, reduced, x, memo)
    memo[key] = val
    return val


def _suffix_ordered_base(rng, n):
    """A base whose vertex m has earlier neighbours v_{m-1}..v_{m-d}, with
    d drawn at random; returns the base and the ds."""
    names = [f"v{i}" for i in range(n)]
    ds = [rng.randint(0, min(m, 3)) for m in range(n)]
    edges = [(names[m - j], names[m]) for m, d in enumerate(ds) for j in range(1, d + 1)]
    return make_graph(names, edges), ds


def test_recurrences_match_reference_on_suffix_ordered_bases():
    rng = random.Random(17)
    y = UnivariatePoly.x()
    for _ in range(300):
        n = rng.randint(1, 6)
        base, ds = _suffix_ordered_base(rng, n)
        sizes = [rng.randint(1, 4) for _ in range(n)]
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 6)) for _ in range(n)]
        shifted = [UnivariatePoly.of(a) - y for a in sizes]
        assert reduced_P_first(base, sizes, x) == _reference_reduced_P_first(ds, sizes, x)
        assert reduced_P_second(base, sizes, x) == _reference_second_kind_P(ds, sizes, x, {})
        assert leading_f(base, sizes) == _reference_leading_f(ds, sizes)
        assert leading_f(base, shifted) == _reference_leading_f(ds, shifted)
        assert leading_f_second(base, sizes) == _reference_second_kind_f(ds, sizes, {})
        assert leading_f_second(base, shifted) == _reference_second_kind_f(
            ds, shifted, {}
        )


def _path_like(base):
    try:
        _suffix_neighbor_counts(base)
    except ExtensionError:
        return False
    return True


@pytest.mark.parametrize("kind", [1, 2])
def test_fallback_on_long_shuffled_path_matches_path_order(kind):
    rng = random.Random(kind)
    n = 32
    path = _path(n)
    # the second kind needs each clique at least as large as the degree
    sizes = [rng.randint(2, 3) for _ in range(n)]
    x = [Fraction(rng.randint(1, 5), rng.randint(1, 6)) for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    shuffled = make_graph([path.vertices[i] for i in order], path.edges)
    assert not _path_like(shuffled)
    s_sizes = [sizes[i] for i in order]
    s_x = [x[i] for i in order]
    P, f = (reduced_P_first, leading_f) if kind == 1 else (
        reduced_P_second, leading_f_second
    )
    assert P(shuffled, s_sizes, s_x) == P(path, sizes, x)
    assert f(shuffled, s_sizes) == f(path, sizes)


def test_fallback_leading_f_counts_independent_sets_with_unit_cliques():
    rng = random.Random(5)
    checked = 0
    while checked < 25:
        n = rng.randint(3, 6)
        names = [f"w{i}" for i in range(n)]
        edges = {
            (names[i], names[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        }
        base = make_graph(names, edges)
        if _path_like(base):
            continue
        sizes = [rng.choice((1, 2, 3)) for _ in range(n)]
        sizes[rng.randrange(n)] = 1
        for build, f in (
            (build_first_kind, leading_f),
            (build_second_kind, leading_f_second),
        ):
            try:
                built = build(base, sizes)
            except ExtensionError:
                continue  # a second-kind clique below its degree
            count = sum(1 for s in independent_sets(built, 30) if len(s) == n)
            assert f(base, sizes) == count
        checked += 1


def test_fallback_needs_integer_sizes():
    star = _star()
    assert not _path_like(star)
    with pytest.raises(ExtensionError, match="integer sizes"):
        U_from_f(star, [2, Fraction(3, 2), 3, 2])
    with pytest.raises(ExtensionError, match="integer sizes"):
        leading_f_second(star, [2, Fraction(3, 2), 3, 2])


@pytest.mark.parametrize("kind", [1, 2])
@pytest.mark.parametrize("sizes", [(2, 3, 2, 1, 4), (1,) * 5, (3,) * 5])
def test_U_from_f_on_a_listing_that_is_not_path_like(kind, sizes):
    # P5 listed v0 v2 v1 v3 v4: v1's earlier neighbors v0, v2 are no suffix
    path = path_graph([f"v{i}" for i in range(5)])
    listed = make_graph(["v0", "v2", "v1", "v3", "v4"], path.edges)
    assert not _path_like(listed)
    listed_sizes = [sizes[int(v[1:])] for v in listed.vertices]
    build = build_first_kind if kind == 1 else build_second_kind
    if kind == 2 and min(sizes) < 2:
        # a second-kind clique below its degree builds no graph
        with pytest.raises(ExtensionError, match="below its degree"):
            U_from_f(listed, listed_sizes, kind=2)
        return
    u = U_from_f(listed, listed_sizes, kind=kind)
    assert u == U_from_f(path, list(sizes), kind=kind)
    assert u == univariate_U(build(path, list(sizes)))
    assert u == univariate_U(build(listed, listed_sizes))


# -- U against the Fraction-coefficient route ----------------------------


def _reference_U(ds, sizes, kind):
    """U by f_n at the sizes a - y over Fraction-coefficient polynomials
    in y (the reference recurrences above, sharing no code with
    `hatlab.extensions`), then U(x) = (-x)^n f_n(a - 1/x)."""
    y = UnivariatePoly.x()
    shifted = [UnivariatePoly.of(a) - y for a in sizes]
    if kind == 1:
        f = _reference_leading_f(ds, shifted)
    else:
        f = _reference_second_kind_f(ds, shifted, {})
    n = len(sizes)
    return UnivariatePoly.of(*[(-1) ** n * f.coeff(n - m) for m in range(n + 1)])


def _path_ds(n):
    return [min(m, 1) for m in range(n)]


def test_U_from_f_matches_fraction_route_on_the_minimal_root_grid():
    built = formal = 0
    for which in (1, 2, 3):
        for n in range(2, 9):
            for k in range(4):
                ex = build_extension_example(which, n, k)
                u = U_from_f(_path(n), ex.sizes, kind=ex.kind)
                assert u.coeffs == _reference_U(_path_ds(n), ex.sizes, ex.kind).coeffs
                assert u == ex.u_poly
                if ex.graph is None:
                    formal += 1
                else:
                    assert u == univariate_U(ex.graph)
                    built += 1
    # ex3 has inner cliques below their degree at k = 0 and 1, n >= 3
    assert formal == 2 * 6 and built == 84 - formal


@pytest.mark.parametrize("k", [0, 1])
def test_U_from_f_matches_fraction_route_on_formal_ex3_sizes(k):
    for n in range(3, 9):
        sizes = (k + 1,) + (k,) * (n - 2) + (k + 1,)
        with pytest.raises(ExtensionError):  # size 0, or below the degree 2
            build_second_kind(_path(n), sizes)
        u = U_from_f(_path(n), sizes, kind=2)
        assert u.coeffs == _reference_U(_path_ds(n), sizes, 2).coeffs


def test_U_from_f_matches_fraction_route_on_fraction_sizes():
    rng = random.Random(30)
    for _ in range(150):
        n = rng.randint(1, 6)
        base, ds = _suffix_ordered_base(rng, n)
        sizes = [rng.choice((rng.randint(0, 5),
                             Fraction(rng.randint(-7, 9), rng.randint(1, 4))))
                 for _ in range(n)]
        for kind in (1, 2):
            u = U_from_f(base, sizes, kind=kind)
            assert u.coeffs == _reference_U(ds, sizes, kind).coeffs, (ds, sizes, kind)


def test_U_from_f_equals_U_of_the_built_graph():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 5)
        base, ds = _suffix_ordered_base(rng, n)
        sizes = [rng.randint(max(d, 1), 3) + 1 for d in ds]
        for kind, build in ((1, build_first_kind), (2, build_second_kind)):
            try:
                graph = build(base, sizes)
            except ExtensionError:
                continue  # a second-kind clique below its degree
            assert U_from_f(base, sizes, kind=kind) == univariate_U(graph)


def test_U_from_f_second_kind_on_a_long_path_is_quick():
    # the memo keys sizes by value; keyed otherwise, the bridges' two
    # branches per vertex would make the recurrence exponential in n
    n = 40
    sizes = [3] * n
    start = time.perf_counter()
    u = U_from_f(_path(n), sizes, kind=2)
    assert time.perf_counter() - start < 0.5
    assert u.coeffs == _reference_U(_path_ds(n), sizes, 2).coeffs


def test_U_from_f_second_kind_needs_no_deeper_stack_than_a_window():
    # the prefixes are memoized first, so a long path recurses no deeper
    # than one neighbour window
    sizes = [3] + [2] * 398 + [3]
    want = U_from_f(_path(400), sizes, kind=2)
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        got = U_from_f(_path(400), sizes, kind=2)
    finally:
        sys.setrecursionlimit(limit)
    assert got == want
