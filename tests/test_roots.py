import random
from fractions import Fraction

import pytest

from hatlab import roots
from hatlab.extensions import leading_f_second
from hatlab.gallery import build_chain_graph, build_extension_example
from hatlab.graphs import path_graph
from hatlab.indpoly import univariate_U
from hatlab.poly import UnivariatePoly
from hatlab.roots import (
    WIDTH,
    IsolatingInterval,
    RootError,
    count_real_roots,
    family,
    smallest_positive_root,
    sturm_roots,
    sturm_sequence,
    verify_root_interval,
)

X = UnivariatePoly.x()


def unit_interval_root(p: UnivariatePoly) -> Fraction | None:
    """The first root of p in (0, 1) by the library's Descartes
    bisection: the root itself when a midpoint hits it, else the upper end
    t of an interval (a, t) that holds exactly one root, simple, and no
    root in (0, a]; None when (0, 1) holds no root."""
    found = roots._first_root(p.integer_cleared(), Fraction(0), Fraction(1))
    return found[1] if isinstance(found, tuple) else found


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
    b = roots._cauchy_bound(p.integer_cleared())
    assert b > 5


def test_smallest_positive_root_exact_rational():
    p = UnivariatePoly.of(1, -4, 3)  # roots 1/3 and 1
    iso = smallest_positive_root(p)
    assert iso.exact_root == Fraction(1, 3)


def test_smallest_positive_root_candidate_confirmed():
    p = UnivariatePoly.of(1, -4, 3)
    iso = smallest_positive_root(p, candidate=Fraction(1, 3))
    assert iso.exact_root == Fraction(1, 3)
    assert iso.upper - iso.lower == 0


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
    assert iso.upper - iso.lower <= Fraction(1, 10**12)


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
    assert iso.upper - iso.lower <= WIDTH


def test_smallest_positive_root_exact_with_large_coefficients():
    p = (10**13 * X - 1) * (X + 1)
    assert smallest_positive_root(p).exact_root == Fraction(1, 10**13)
    q = (X * X - 2) * (12345678901 * X - 98765432109)
    iso = smallest_positive_root(q)
    assert iso.exact_root is None and iso.lower * iso.lower < 2 < iso.upper**2
    assert iso.upper - iso.lower <= WIDTH


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
            bound = roots._cauchy_bound(p.integer_cleared())
            assert sturm_roots(p, Fraction(0), bound) == 0, p
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
            assert iso.upper - iso.lower <= WIDTH
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
        p = family(tag, n)
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
    assert family("A", 0) == UnivariatePoly.ONE
    assert family("A", 1) == X + 1
    assert family("A", 2) == X * (X + 2)
    assert family("A", 2)(2) == 8
    # Phi is the Chebyshev-style recurrence Phi_n = k Phi_{n-1} - Phi_{n-2}
    assert family("Phi", 2) == X * X - 1
    assert family("E", 1) == X + 1


def test_family_E_is_a_second_kind_leading_coefficient():
    # E_n = f_n of H(k+1, k, ..., k, k+1), the sizes polynomials in k
    for n in range(2, 11):
        sizes = [X + 1] + [X] * (n - 2) + [X + 1]
        base = path_graph([f"v{i}" for i in range(n)])
        assert family("E", n) == leading_f_second(base, sizes), n


# The recurrences as they were on Fraction polynomials, the reference
# for the integer ones of `roots`.


def _reference_family_A(n):
    a, b = UnivariatePoly.ONE, X + 1
    if n == 0:
        return a
    for _ in range(n - 1):
        a, b = b, X * (a + b)
    return b


def _reference_family_B(n):
    if n == 0:
        return UnivariatePoly.ONE
    if n == 1:
        return X + 3
    return (X + 2) * _reference_family_A(n - 1) + X * _reference_family_A(n - 2)


def _reference_family_L(n):
    if n == 2:
        return (X + 2) * (X + 4)
    return (X + 2) * _reference_family_B(n - 1) + X * _reference_family_B(n - 2)


def _reference_family_Phi(n):
    a, b = UnivariatePoly.ONE, X
    if n == 0:
        return a
    for _ in range(n - 1):
        a, b = b, X * b - a
    return b


@pytest.mark.parametrize(
    "tag, first, reference",
    [
        ("A", 0, _reference_family_A),
        ("B", 0, _reference_family_B),
        ("L", 2, _reference_family_L),
        ("Phi", 0, _reference_family_Phi),
        # E has no second recurrence; criterion 07's identity, which holds
        # from n = 2 on, is its reference
        ("E", 2, lambda n: (X + 2) * _reference_family_Phi(n - 1)),
    ],
)
def test_family_matches_fraction_recurrence(tag, first, reference):
    for n in range(first, 31):
        assert family(tag, n) == reference(n), (tag, n)
        for k in range(-5, 6):
            assert family(tag, n)(k) == reference(n)(Fraction(k)), (tag, n, k)


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


def test_smallest_positive_root_divides_out_a_root_at_zero():
    p, half = X * (2 * X - 1), Fraction(1, 2)
    assert smallest_positive_root(p) == IsolatingInterval(half, half, half)
    assert smallest_positive_root(p, candidate=half).exact_root == half
    assert smallest_positive_root(X * X * (X + 1)) is None
    assert smallest_positive_root(X) is None


def test_smallest_positive_root_of_phi_5_against_sturm():
    # Phi_5 = k (k^2 - 1)(k^2 - 3): positive roots 1 and sqrt 3
    p = family("Phi", 5)
    b = roots._cauchy_bound(p.integer_cleared())
    assert sturm_roots(p, Fraction(0), b) == 2
    iso = smallest_positive_root(p)
    assert iso.exact_root == 1
    assert p(1) == 0 and sturm_roots(p, Fraction(0), iso.exact_root) == 1


# -- the Fraction route that integer isolation replaced, kept as the
# differential reference, with its own copies of the helpers it used


def _reference_sign_variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _reference_taylor_shift(a: list[int]) -> list[int]:
    a = list(a)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _reference_cauchy_bound(p: UnivariatePoly) -> Fraction:
    lc = abs(p.leading())
    b = max((abs(c) / lc for c in p.coeffs[:-1]), default=Fraction(0))
    return b + 1


def _reference_first_root(p: UnivariatePoly, a: Fraction, b: Fraction):
    if a == 0:
        n, m, c = b.numerator, b.denominator, p.integer_cleared()
        c = [ck * n**k * m ** (len(c) - 1 - k) for k, ck in enumerate(c)]
    else:
        line, q = UnivariatePoly.of(a, b - a), UnivariatePoly.ZERO
        for ck in reversed(p.coeffs):
            q = q * line + ck
        c = q.integer_cleared()
    stack = [(a, b, c)]
    while stack:
        lo, hi, c = stack.pop()
        if c is None:
            return lo
        variations = _reference_sign_variations(_reference_taylor_shift(c[::-1]))
        if variations == 0:
            continue
        if variations == 1 and hi < b:
            return lo, hi
        mid = (lo + hi) / 2
        d = len(c) - 1
        left = [ck << (d - k) for k, ck in enumerate(c)]
        right = _reference_taylor_shift(left)
        stack.append((mid, hi, right))
        if right[0] == 0:
            stack.append((mid, mid, None))
        stack.append((lo, mid, left))
    return None


def _reference_smallest_positive_root(p: UnivariatePoly, candidate=None):
    if p.is_zero():
        raise RootError("zero polynomial")
    if p(Fraction(0)) == 0:
        raise RootError("p(0) = 0; smallest positive root is ill-posed")
    s = p.square_free().normalized()
    if candidate is not None:
        candidate = Fraction(candidate)
        if candidate <= 0:
            raise RootError("candidate must be positive")
        if p(candidate) != 0:
            raise RootError(f"candidate {candidate} is not a root")
        if _reference_first_root(s, Fraction(0), candidate) is not None:
            raise RootError(f"candidate {candidate} is not minimal: a root lies below")
        return IsolatingInterval(candidate, candidate, candidate)
    found = _reference_first_root(s, Fraction(0), _reference_cauchy_bound(s))
    if not isinstance(found, tuple):
        return None if found is None else IsolatingInterval(found, found, found)
    lo, hi = found
    den = abs(int(s.leading()))
    separation = Fraction(1, den * den)
    positive_below = s(lo) > 0
    while True:
        c = ((lo + hi) / 2).limit_denominator(den)
        if lo < c < hi and s(c) == 0:
            return IsolatingInterval(c, c, c)
        if hi - lo < separation and hi - lo <= WIDTH and s(hi) != 0:
            return IsolatingInterval(lo, hi, None)
        mid = (lo + hi) / 2
        if (s(mid) > 0) == positive_below:
            lo = mid
        else:
            hi = mid


def _reference_verify_root_interval(tag: str, n: int, interval=None) -> bool:
    claimed = {"A": (Fraction(-4), Fraction(0)), "Phi": (Fraction(-2), Fraction(2))}
    if tag not in claimed and interval is None:
        raise RootError(f"no claimed interval for family {tag!r}")
    lo, hi = interval if interval is not None else claimed[tag]
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise RootError("empty interval")
    s = family(tag, n).square_free()
    b = _reference_cauchy_bound(s)
    outside = [(x, y) for x, y in ((-b, lo), (hi, b)) if x < y]
    return all(_reference_first_root(s, x, y) is None for x, y in outside)


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except RootError as exc:
        return "RootError", str(exc)


def _without_root_at_zero(p: UnivariatePoly) -> UnivariatePoly:
    """p / x^m for the largest m; the reference refuses p(0) = 0."""
    m = next(i for i, c in enumerate(p.coeffs) if c != 0)
    return UnivariatePoly(p.coeffs[m:])


def _same_smallest_positive_root(p, candidate=None):
    got = _outcome(smallest_positive_root, p, candidate)
    want = _outcome(_reference_smallest_positive_root, _without_root_at_zero(p), candidate)
    assert got == want, (str(p), candidate)
    return got


def test_differential_criterion_05():
    for k in range(4):
        for n in range(2, 9):
            for which, root in ((2, Fraction(1, k + 4)), (3, Fraction(1, k + 2))):
                u = build_extension_example(which, n, k).u_poly
                assert _same_smallest_positive_root(u, root).exact_root == root
                assert _same_smallest_positive_root(u).exact_root == root


def test_differential_certify_muhat():
    for n, l in _CHAINS:
        u = univariate_U(build_chain_graph(n, l))
        _same_smallest_positive_root(u, Fraction(1, l))
        _same_smallest_positive_root(u)
    seen = set()
    for n in range(4, 25):
        iso = _same_smallest_positive_root(univariate_U(path_graph([f"v{i}" for i in range(n)])))
        seen.add(iso.exact_root is None)
    assert seen == {True, False}  # P4 and P5 have rational roots 1/3 and 1
    _same_smallest_positive_root(univariate_U(path_graph(["a", "b", "c", "d"])), Fraction(1, 3))


@pytest.mark.parametrize(
    "tag, first", [("A", 0), ("B", 0), ("L", 2), ("Phi", 0), ("E", 1)]
)
def test_differential_families(tag, first):
    shifts = (0, -1, Fraction(-1, 3), Fraction(1, 2), 1)
    bases = ((-4, 0), (-2, 2)) if tag not in ("A", "Phi") else (
        roots._FAMILY_INTERVALS[tag],
    )
    verdicts = set()
    for n in range(first, 13):
        if tag in ("A", "Phi"):
            assert verify_root_interval(tag, n) == _reference_verify_root_interval(tag, n)
        for lo, hi in bases:
            for d in shifts:
                interval = (Fraction(lo) + d, Fraction(hi) + d)
                got = verify_root_interval(tag, n, interval)
                assert got == _reference_verify_root_interval(tag, n, interval)
                verdicts.add(got)
        _same_smallest_positive_root(family(tag, n))
    assert verdicts == {True, False}


def _random_products(count: int):
    """Seeded products of linear, quadratic and cubic integer factors,
    linear ones up to cubed and the others up to squared, with leading
    coefficients up to 1e14, some times a power of x, scaled by a
    rational so the content is not 1; each comes with the rational roots
    of its linear factors."""
    rng = random.Random(18)
    for _ in range(count):
        p, known = UnivariatePoly.ONE, []
        for _ in range(rng.randint(1, 3)):
            lead = rng.choice((rng.randint(1, 9), rng.randint(1, 10**14)))
            if rng.random() < 0.5:
                a = rng.randint(-3 * lead, 3 * lead) or 1
                factor = UnivariatePoly.of(-a, lead)
                known.append(Fraction(a, lead))
            else:
                low = [rng.randint(-9, 9) for _ in range(rng.randint(2, 3))]
                factor = UnivariatePoly.of(low[0] or 1, *low[1:], lead)
            powers = (1, 1, 2, 3) if len(factor.coeffs) == 2 else (1, 1, 2)
            for _ in range(rng.choice(powers)):
                p = p * factor
        if rng.random() < 0.2:
            p = p * X
        scale = Fraction(rng.randint(1, 10**7), rng.randint(1, 10**3))
        yield p * scale, known


def test_differential_random_products():
    seen = {"exact": 0, "interval": 0, "none": 0, "error": 0, "root at 0": 0}
    rng = random.Random(1)
    for p, known in _random_products(320):
        got = _same_smallest_positive_root(p)
        if got is None:
            seen["none"] += 1
        else:
            seen["exact" if got.exact_root is not None else "interval"] += 1
        seen["root at 0"] += p.coeffs[0] == 0
        for c in known[:1] + [Fraction(rng.randint(-5, 5), rng.randint(1, 5))]:
            if isinstance(_same_smallest_positive_root(p, c), tuple):
                seen["error"] += 1
        # bisection ends only when the first root is simple
        q = _without_root_at_zero(p).square_free()
        want = _reference_first_root(q, Fraction(0), Fraction(1))
        assert unit_interval_root(q) == (want[1] if isinstance(want, tuple) else want)
        a = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        b = a + Fraction(rng.randint(1, 20), rng.randint(1, 7))
        assert roots._first_root(q.integer_cleared(), a, b) == _reference_first_root(q, a, b)
    assert min(seen.values()) >= 20, seen


def test_roots_at_interval_ends():
    for n in range(2, 13):
        # 0 = hi is a root of A_n; the open interval (hi, B) excludes it
        assert verify_root_interval("A", n, (-4, 0)) is True
        assert verify_root_interval("A", n, (-4, Fraction(-1, 2))) is False
        s = family("A", n).square_free()
        got = roots._first_root(s.integer_cleared(), Fraction(-4), Fraction(0))
        assert got == _reference_first_root(s, Fraction(-4), Fraction(0)) is not None
    # a double root as candidate, and a larger candidate past it
    p = (3 * X - 1) * (3 * X - 1) * (X - 2) * (X + 1)
    assert _same_smallest_positive_root(p, Fraction(1, 3)).exact_root == Fraction(1, 3)
    assert _same_smallest_positive_root(p, 2)[1] == "candidate 2 is not minimal: a root lies below"
    assert _same_smallest_positive_root(p).exact_root == Fraction(1, 3)


def test_integer_square_free_part():
    cube = (3 * X - 1) * (3 * X - 1) * (3 * X - 1)
    square = (X * X - 2) * (X * X - 2)
    for p in (cube * square, cube * square * Fraction(5, 7), square * (3 * X - 5) * (3 * X - 5)):
        # (3x - 1)(x^2 - 2) or (x^2 - 2)(3x - 5), up to sign
        s = roots._square_free(p.integer_cleared())
        want = p.square_free().integer_cleared()
        assert len(s) == 4 and s in (want, [-c for c in want])
    assert _same_smallest_positive_root(cube * square).exact_root == Fraction(1, 3)
    iso = _same_smallest_positive_root(square * (3 * X - 5) * (3 * X - 5))
    assert iso.exact_root is None and iso.lower**2 < 2 < iso.upper**2
