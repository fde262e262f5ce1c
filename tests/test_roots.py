import random
from fractions import Fraction

import pytest

from hatlab.gallery import build_chain_graph, build_extension_example
from hatlab.graphs import path_graph
from hatlab.indpoly import univariate_U
from hatlab.poly import UnivariatePoly
from hatlab.roots import (
    WIDTH,
    RootError,
    cauchy_bound,
    count_real_roots,
    family,
    smallest_positive_root,
    sturm_roots,
    sturm_sequence,
    unit_interval_root,
    verify_root_interval,
)

X = UnivariatePoly.x()


def test_sturm_sequence_ends_nonzero():
    seq = sturm_sequence((X - 1) * (X + 2))
    assert seq and not seq[-1].is_zero()


def test_sturm_roots_counts_distinct_roots():
    p = (X - 1) * (X - 2) * (X - 3)
    assert sturm_roots(p, Fraction(0), Fraction(10)) == 3
    assert sturm_roots(p, Fraction(0), Fraction(5, 2)) == 2
    # half-open (lo, hi]: lo itself is excluded, hi is included
    assert sturm_roots(p, Fraction(1), Fraction(2)) == 1


def test_sturm_roots_ignores_multiplicity():
    p = (X - 1) * (X - 1)
    assert sturm_roots(p, Fraction(0), Fraction(2)) == 1


def test_count_real_roots():
    assert count_real_roots(X * X + 1) == 0
    assert count_real_roots(X * X - 2) == 2


def test_cauchy_bound_contains_roots():
    p = (X - 3) * (X + 5)
    b = cauchy_bound(p)
    assert b > 5


def test_smallest_positive_root_exact_rational():
    p = UnivariatePoly.of(1, -4, 3)  # roots 1/3 and 1
    iso = smallest_positive_root(p)
    assert iso.exact_root == Fraction(1, 3)


def test_smallest_positive_root_candidate_confirmed():
    p = UnivariatePoly.of(1, -4, 3)
    iso = smallest_positive_root(p, candidate=Fraction(1, 3))
    assert iso.exact_root == Fraction(1, 3)
    assert iso.width() == 0


def test_smallest_positive_root_candidate_not_minimal():
    p = UnivariatePoly.of(1, -4, 3)
    with pytest.raises(RootError, match="not minimal"):
        smallest_positive_root(p, candidate=Fraction(1))


def test_smallest_positive_root_candidate_not_a_root():
    with pytest.raises(RootError, match="not a root"):
        smallest_positive_root(X - 1, candidate=Fraction(1, 2))


def test_smallest_positive_root_irrational_isolated():
    p = X * X - 2
    iso = smallest_positive_root(p)
    assert iso.exact_root is None
    assert iso.lower < iso.upper
    assert p(iso.lower) * p(iso.upper) < 0
    assert iso.width() <= Fraction(1, 10**12)


def test_smallest_positive_root_none_when_all_negative():
    assert smallest_positive_root(X + 1) is None


def test_smallest_positive_root_not_fooled_by_nearby_rational_root():
    # 8(x - 5)(x^2 - 23): the rational root 5 lies within 1/L^2 = 1 of the
    # smaller irrational root sqrt(23) ~ 4.796
    p = UnivariatePoly.of(920, -184, -40, 8)
    iso = smallest_positive_root(p)
    assert iso.exact_root is None
    assert iso.lower * iso.lower < 23 < iso.upper * iso.upper
    assert p(iso.lower) * p(iso.upper) < 0
    assert iso.width() <= WIDTH


def test_smallest_positive_root_exact_with_large_coefficients():
    p = (10**13 * X - 1) * (X + 1)
    assert smallest_positive_root(p).exact_root == Fraction(1, 10**13)
    q = (X * X - 2) * (12345678901 * X - 98765432109)
    iso = smallest_positive_root(q)
    assert iso.exact_root is None and iso.lower * iso.lower < 2 < iso.upper**2
    assert iso.width() <= WIDTH


@pytest.mark.parametrize("which, root_of_k", [(2, 4), (3, 2)])
def test_smallest_positive_root_finds_minimal_root_without_candidate(which, root_of_k):
    for k in range(4):
        for n in range(2, 9):
            u = build_extension_example(which, n, k).u_poly
            root = Fraction(1, k + root_of_k)
            plain = smallest_positive_root(u)
            assert plain.exact_root == root, (which, n, k)
            assert plain == smallest_positive_root(u, candidate=root)


# the chain graphs H_n^l of the benchmark's certify workload
_CHAINS = ((2, 4), (3, 4), (4, 4), (5, 4), (2, 6), (3, 6), (2, 5), (3, 5), (4, 5))


def _differential_corpus():
    """(p, rational roots of p known by construction): the extension
    examples, U of paths and of chain graphs, and 300 seeded products of
    integer polynomials, some of them linear with a known root; every
    tenth product is squared, so its roots are double."""
    corpus = [
        (build_extension_example(which, n, k).u_poly, [])
        for which in (1, 2, 3)
        for n in range(2, 9)
        for k in range(4)
    ]
    corpus += [
        (univariate_U(path_graph([f"v{i}" for i in range(n)])), [])
        for n in range(2, 25)
    ]
    corpus += [(univariate_U(build_chain_graph(n, l)), []) for n, l in _CHAINS]
    rng = random.Random(9)
    for i in range(300):
        p, known = UnivariatePoly.ONE, []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                a, b = rng.randint(-9, 9) or 1, rng.randint(1, 9)
                p = p * UnivariatePoly.of(-a, b)
                known.append(Fraction(a, b))
            else:
                low = [rng.randint(-9, 9) for _ in range(rng.randint(2, 4))]
                low[0] = low[0] or 1
                p = p * UnivariatePoly.of(*low, rng.randint(1, 9))
        corpus.append((p * p if i % 10 == 0 else p, known))
    return corpus


def test_smallest_positive_root_agrees_with_sturm_counts():
    seen = {"exact": 0, "interval": 0, "none": 0, "larger candidate": 0}
    for p, known in _differential_corpus():
        iso = smallest_positive_root(p)
        if iso is None:
            assert sturm_roots(p, Fraction(0), cauchy_bound(p)) == 0, p
            seen["none"] += 1
            continue
        if iso.exact_root is not None:
            c = iso.exact_root
            assert p(c) == 0 and sturm_roots(p, Fraction(0), c) == 1, p
            assert smallest_positive_root(p, candidate=c) == iso
            seen["exact"] += 1
        else:
            assert iso.lower == 0 or sturm_roots(p, Fraction(0), iso.lower) == 0, p
            assert sturm_roots(p, iso.lower, iso.upper) == 1, p
            assert iso.width() <= WIDTH
            seen["interval"] += 1
        for r in known:
            if r > iso.upper:
                with pytest.raises(RootError, match="not minimal"):
                    smallest_positive_root(p, candidate=r)
                seen["larger candidate"] += 1
    assert min(seen.values()) >= 50, seen


_INTERVALS = [
    (-4, 0), (-2, 2), (-1, 1), (-5, -3), (0, 3), (-1, -1), (-3, Fraction(-3, 2))
]


@pytest.mark.parametrize(
    "tag, first", [("A", 0), ("B", 0), ("L", 2), ("Phi", 0), ("E", 1)]
)
def test_verify_root_interval_agrees_with_sturm_counts(tag, first):
    verdicts = set()
    for n in range(first, 13):
        p = family(tag, n).poly
        total = count_real_roots(p)
        for lo, hi in _INTERVALS:
            lo, hi = Fraction(lo), Fraction(hi)
            inside = (p(lo) == 0) + (sturm_roots(p, lo, hi) if lo < hi else 0)
            verdict = verify_root_interval(tag, n, interval=(lo, hi))
            assert verdict == (inside == total), (tag, n, lo, hi)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_family_values():
    # A_0 = 1, A_1 = k+1, A_2 = k(k+2)
    assert family("A", 0).poly == UnivariatePoly.ONE
    assert family("A", 1).poly == X + 1
    assert family("A", 2).poly == X * (X + 2)
    assert family("A", 2, k=2) == 8
    # Phi is the Chebyshev-style recurrence Phi_n = k Phi_{n-1} - Phi_{n-2}
    assert family("Phi", 2).poly == X * X - 1
    assert family("E", 1).poly == X + 1


def test_family_unknown_tag():
    with pytest.raises(RootError, match="unknown family"):
        family("Q", 3)


def test_root_intervals_hold():
    for n in range(2, 8):
        assert verify_root_interval("A", n)
        assert verify_root_interval("Phi", n)


def test_root_interval_custom_fails_when_too_small():
    assert not verify_root_interval("Phi", 5, interval=(Fraction(-1), Fraction(1)))


def test_root_interval_rejects_reversed_interval():
    # [0, -4] is empty, so it cannot hold the roots of A_3 = k(k^2 + 3k + 1)
    with pytest.raises(RootError, match="empty interval"):
        verify_root_interval("A", 3, interval=(Fraction(0), Fraction(-4)))


_PAIR = UnivariatePoly.of(1, -3, 3)  # complex roots only


@pytest.mark.parametrize(
    "p",
    [
        UnivariatePoly.of(1, -1),  # root 1 is not inside
        UnivariatePoly.of(3),
        _PAIR,  # two sign variations and no real root
        _PAIR * UnivariatePoly.of(2, -1),  # root 2
        _PAIR * UnivariatePoly.of(2, 0, -1),  # root sqrt 2
    ],
)
def test_unit_interval_root_none(p):
    assert unit_interval_root(p) is None


@pytest.mark.parametrize(
    "p",
    [
        # the first root 1/sqrt(k) is irrational; for the second k it lies
        # within 1e-12 of 1
        UnivariatePoly.of(1, 0, Fraction(-6, 5)),
        UnivariatePoly.of(1, 0, Fraction(-(10**12 + 1), 10**12)),
        UnivariatePoly.of(1, -3) * UnivariatePoly.of(1, -2),
        UnivariatePoly.of(1, -3) * UnivariatePoly.of(5, -6),  # second root 5/6
        _PAIR * UnivariatePoly.of(2, -3) * UnivariatePoly.of(1, -1),
    ],
)
def test_unit_interval_root_is_past_a_sign_change(p):
    t = unit_interval_root(p)
    assert 0 < t < 1
    assert p(t) * p(0) <= 0


def test_unit_interval_root_hits_a_rational_midpoint():
    p = UnivariatePoly.of(1, -2) * UnivariatePoly.of(4, -5)
    assert unit_interval_root(p) == Fraction(1, 2)
