"""Exact real-root isolation over the rationals, and the recurrence
polynomial families of the minimal-root theorems.

One Descartes bisection routine, _first_root, serves the Shearer ray
(unit_interval_root), the smallest positive root and the family root
intervals.  Sturm sequences (sturm_sequence, sturm_roots,
count_real_roots) are an independent reference the tests check it by.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import UnivariatePoly


class RootError(ValueError):
    pass


def _sign_variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _taylor_shift(a: list[int]) -> list[int]:
    """Coefficients of a(x + 1), low degree first, by integer additions."""
    a = list(a)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _first_root(p: UnivariatePoly, a: Fraction, b: Fraction):
    """The first root of p in the open interval (a, b) by Descartes
    bisection (Vincent-Collins-Akritas: Collins & Akritas, SYMSAC 1976;
    Rouillier & Zimmermann, J. Comput. Appl. Math. 2004).

    A subinterval (lo, hi) keeps integer coefficients c proportional to
    p(lo + (hi - lo) y).  Its roots in (0, 1) are the positive roots of
    (1 + x)^d c(1/(1 + x)), the reversed c shifted by x -> x + 1, and by
    Descartes' rule of signs number at most its sign variations, with
    the same parity.  Subintervals go left to right: one with no
    variations holds no root, one with two or more is halved (2^d c(y/2)
    and its shift), and one whose disk holds no root eventually shows
    none (the one-circle theorem).

    Returns None when (a, b) holds no root; else the first root itself
    when a midpoint hits it, or (lo, hi) with hi < b holding exactly one
    root, simple, and no root in (a, lo].  The search ends when that
    first root is simple."""
    if a == 0:  # p(b y): coefficient k scaled by b^k, O(d) products
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
            return lo  # p(lo) = 0, and no root lies below it
        variations = _sign_variations(_taylor_shift(c[::-1]))
        if variations == 0:
            continue
        if variations == 1 and hi < b:
            return lo, hi
        mid = (lo + hi) / 2
        d = len(c) - 1
        left = [ck << (d - k) for k, ck in enumerate(c)]
        right = _taylor_shift(left)
        stack.append((mid, hi, right))
        if right[0] == 0:
            stack.append((mid, mid, None))
        stack.append((lo, mid, left))
    return None


def unit_interval_root(p: UnivariatePoly) -> Fraction | None:
    """The first root of p in (0, 1), or None when there is none: the
    root itself when a bisection midpoint hits it, else the upper end t
    of an interval (a, t) that holds exactly one root, simple, and no
    root in (0, a].  The search ends when that first root is simple."""
    found = _first_root(p, Fraction(0), Fraction(1))
    return found[1] if isinstance(found, tuple) else found


def cauchy_bound(p: UnivariatePoly) -> Fraction:
    """All real roots lie in (-B, B)."""
    lc = abs(p.leading())
    b = max((abs(c) / lc for c in p.coeffs[:-1]), default=Fraction(0))
    return b + 1


@dataclass(frozen=True)
class IsolatingInterval:
    lower: Fraction
    upper: Fraction
    exact_root: Fraction | None = None

    def width(self) -> Fraction:
        return self.upper - self.lower


# an irrational root is isolated to an interval no wider than this
WIDTH = Fraction(1, 10**12)


def smallest_positive_root(p: UnivariatePoly, candidate: Fraction | None = None):
    """Isolate the smallest positive real root of p, or None when there
    is none, by _first_root on the square-free part s of p.  A rational
    candidate c passes when p(c) == 0 and (0, c) holds no root.  Without
    one, (0, B), B the Cauchy bound, gives the root or an interval
    (lo, hi) holding only it, which is bisected on the sign of s.

    Exact rational roots come from the denominator bound.  Let L be the
    leading coefficient of s scaled to coprime integers.  A rational root
    a/b in lowest terms has b | L, so two distinct rational roots lie at
    least 1/L^2 apart.  Once hi - lo < 1/L^2, the midpoint's closest
    fraction with denominator <= L is the root whenever the root is
    rational.  Otherwise the root is irrational and comes back as
    (lo, hi) with hi - lo <= WIDTH, s changing sign across it."""
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
        if _first_root(s, Fraction(0), candidate) is not None:
            raise RootError(f"candidate {candidate} is not minimal: a root lies below")
        return IsolatingInterval(candidate, candidate, candidate)

    found = _first_root(s, Fraction(0), cauchy_bound(s))
    if not isinstance(found, tuple):
        return None if found is None else IsolatingInterval(found, found, found)
    lo, hi = found
    den = abs(int(s.leading()))
    separation = Fraction(1, den * den)
    positive_below = s(lo) > 0  # the sign of s between lo and the root
    while True:
        c = ((lo + hi) / 2).limit_denominator(den)
        if lo < c < hi and s(c) == 0:
            return IsolatingInterval(c, c, c)
        if hi - lo < separation and hi - lo <= WIDTH and s(hi) != 0:
            return IsolatingInterval(lo, hi, None)
        # a root at the midpoint has denominator <= L and was caught as c
        mid = (lo + hi) / 2
        if (s(mid) > 0) == positive_below:
            lo = mid
        else:
            hi = mid


# -- Sturm sequences: the independent reference ------------------------


def sturm_sequence(p: UnivariatePoly) -> list[UnivariatePoly]:
    if p.is_zero():
        raise RootError("zero polynomial has no Sturm sequence")
    p = p.square_free().normalized()
    seq = [p, p.derivative().normalized()]
    while not seq[-1].is_zero():
        r = seq[-2].rem(seq[-1])
        seq.append((-r).normalized())
    seq.pop()
    return seq


def sturm_roots(p: UnivariatePoly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi]."""
    if p.is_zero():
        raise RootError("zero polynomial")
    if not lo < hi:
        raise RootError("empty interval")
    seq = sturm_sequence(p)
    at_lo, at_hi = ([q(x) for q in seq] for x in (lo, hi))
    return _sign_variations(at_lo) - _sign_variations(at_hi)


def count_real_roots(p: UnivariatePoly) -> int:
    """Number of distinct real roots over the whole real line."""
    seq = sturm_sequence(p)
    at_minus_inf = [q.leading() * (-1) ** q.degree() for q in seq]
    at_inf = [q.leading() for q in seq]
    return _sign_variations(at_minus_inf) - _sign_variations(at_inf)


# -- the recurrence families ------------------------------------------

_K = UnivariatePoly.x()  # the family variable


def _family_A(n: int) -> UnivariatePoly:
    a, b = UnivariatePoly.ONE, _K + 1  # A_0, A_1
    if n == 0:
        return a
    for _ in range(n - 1):
        a, b = b, _K * (a + b)
    return b


def _family_B(n: int) -> UnivariatePoly:
    # B_n = f_n(k+1, ..., k+1, k+3); forced base cases B_0 = 1, B_1 = k+3
    a, b = UnivariatePoly.ONE, _K + 3
    if n == 0:
        return a
    for m in range(2, n + 1):
        a, b = b, (_K + 2) * _family_A(m - 1) + _K * _family_A(m - 2)
    return b


def _family_L(n: int) -> UnivariatePoly:
    if n < 2:
        raise RootError("L_n is defined for n >= 2")
    if n == 2:
        return (_K + 2) * (_K + 4)
    return (_K + 2) * _family_B(n - 1) + _K * _family_B(n - 2)


def _family_Phi(n: int) -> UnivariatePoly:
    a, b = UnivariatePoly.ONE, _K  # Phi_0, Phi_1
    if n == 0:
        return a
    for _ in range(n - 1):
        a, b = b, _K * b - a
    return b


def _family_E(n: int) -> UnivariatePoly:
    if n < 1:
        raise RootError("E_n is defined for n >= 1")
    if n == 1:
        return _K + 1
    return (_K + 2) * _family_Phi(n - 1)


_FAMILIES = {
    "A": _family_A,
    "B": _family_B,
    "L": _family_L,
    "Phi": _family_Phi,
    "E": _family_E,
}


@dataclass(frozen=True)
class FamilyPoly:
    tag: str
    n: int
    poly: UnivariatePoly


def family(tag: str, n: int, k=None):
    """Polynomial of the named family at index n, as a polynomial in k,
    or its exact value when k is given."""
    if tag not in _FAMILIES:
        raise RootError(f"unknown family {tag!r}; choose from {sorted(_FAMILIES)}")
    if n < 0:
        raise RootError("family index must be nonnegative")
    p = _FAMILIES[tag](n)
    if k is not None:
        return p(Fraction(k))
    return FamilyPoly(tag, n, p)


_FAMILY_INTERVALS = {"A": (Fraction(-4), Fraction(0)), "Phi": (Fraction(-2), Fraction(2))}


def verify_root_interval(tag: str, n: int, interval=None) -> bool:
    """True iff all real roots of the family polynomial lie inside the
    closed interval [lo, hi] (default: the family's claimed interval).
    Every real root lies in (-B, B), B the Cauchy bound, so this holds
    when Descartes bisection finds no root in (-B, lo) or in (hi, B)."""
    if tag not in _FAMILY_INTERVALS and interval is None:
        raise RootError(f"no claimed interval for family {tag!r}")
    lo, hi = interval if interval is not None else _FAMILY_INTERVALS[tag]
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise RootError("empty interval")
    s = family(tag, n).poly.square_free()
    b = cauchy_bound(s)
    outside = [(x, y) for x, y in ((-b, lo), (hi, b)) if x < y]
    return all(_first_root(s, x, y) is None for x, y in outside)
