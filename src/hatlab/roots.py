"""Exact real-root counting (Sturm sequences), Descartes bisection on
(0, 1), and the recurrence-defined polynomial families used for the
minimal-root theorems.

All counting is over exact rationals.  Sequences are content-normalized
at every step to keep coefficients tractable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .poly import UnivariatePoly


class RootError(ValueError):
    pass


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


def unit_interval_root(p: UnivariatePoly) -> Fraction | None:
    """Locate the first root of p in (0, 1) by Descartes bisection
    (Vincent-Collins-Akritas: Collins & Akritas, SYMSAC 1976; Rouillier
    & Zimmermann, J. Comput. Appl. Math. 2004).

    Each interval (a, b) keeps integer coefficients c proportional to
    p(a + (b - a) y).  t = 1/(1 + x) maps x > 0 onto 0 < t < 1, so the
    roots of c in (0, 1) are the positive roots of (1 + x)^d c(1/(1 + x)),
    the reversed coefficients shifted by x -> x + 1, and by Descartes'
    rule of signs their number is at most its sign variations and of the
    same parity.  Intervals are searched left to right: one with no
    variations holds no root and is dropped, one with two or more is
    halved (2^d c(y/2) and its shift give the halves), and an interval
    whose disk holds no root eventually shows none (the one-circle
    theorem).

    Returns None when p has no root in (0, 1).  Otherwise returns t < 1:
    the first root itself when a midpoint hits it, or the upper end of an
    interval (a, t) that holds exactly one root, simple, and no root in
    (0, a].  The search ends when that first root is simple."""
    stack = [(Fraction(0), Fraction(1), p.integer_cleared())]
    while stack:
        a, b, c = stack.pop()
        if c is None:
            return a  # p(a) = 0, and no root lies below it
        variations = _sign_variations(_taylor_shift(c[::-1]))
        if variations == 0:
            continue
        if variations == 1 and b < 1:
            return b
        mid = (a + b) / 2
        d = len(c) - 1
        left = [ck << (d - k) for k, ck in enumerate(c)]
        right = _taylor_shift(left)
        stack.append((mid, b, right))
        if right[0] == 0:
            stack.append((mid, mid, None))
        stack.append((a, mid, left))
    return None


def _variations_at(seq, x) -> int:
    return _sign_variations([q(x) for q in seq])


def _variations_at_inf(seq, positive: bool) -> int:
    vals = []
    for q in seq:
        lc = q.leading()
        if not positive and q.degree() % 2 == 1:
            lc = -lc
        vals.append(lc)
    return _sign_variations(vals)


def sturm_roots(p: UnivariatePoly, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the half-open interval (lo, hi]."""
    if p.is_zero():
        raise RootError("zero polynomial")
    if not lo < hi:
        raise RootError("empty interval")
    seq = sturm_sequence(p)
    return _variations_at(seq, lo) - _variations_at(seq, hi)


def count_real_roots(p: UnivariatePoly) -> int:
    """Number of distinct real roots over the whole real line."""
    seq = sturm_sequence(p)
    return _variations_at_inf(seq, False) - _variations_at_inf(seq, True)


def cauchy_bound(p: UnivariatePoly) -> Fraction:
    """All real roots lie in (-B, B]."""
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
    """Isolate the smallest positive real root of p, or return None when
    there is none.

    Both routes build one Sturm sequence and count sign variations of it.
    With a rational candidate: confirm p(candidate) == 0 exactly and
    that no root lies strictly below it (the cheapest exact minimality
    proof).  Without one: bisect (lo, hi] around the smallest positive
    root, keeping (0, lo] root-free.

    Exact rational roots come from the denominator bound.  Let L be the
    leading coefficient of the square-free part of p scaled to coprime
    integers (the first polynomial of the Sturm sequence).  A rational
    root a/b in lowest terms has b | L, so two distinct rational roots
    lie at least 1/L^2 apart.  Once (lo, hi] holds exactly one root, any
    c in it with p(c) == 0 is that root; once also hi - lo < 1/L^2, the
    midpoint's closest fraction with denominator <= L is the root
    whenever the root is rational.  Otherwise the root is irrational and
    comes back as (lo, hi] with hi - lo <= WIDTH, the square-free part of
    p changing sign across it."""
    if p.is_zero():
        raise RootError("zero polynomial")
    if p(Fraction(0)) == 0:
        raise RootError("p(0) = 0; smallest positive root is ill-posed")
    seq = sturm_sequence(p)
    lo = Fraction(0)
    v_lo = _variations_at(seq, lo)
    if candidate is not None:
        candidate = Fraction(candidate)
        if candidate <= 0:
            raise RootError("candidate must be positive")
        if p(candidate) != 0:
            raise RootError(f"candidate {candidate} is not a root")
        below = v_lo - _variations_at(seq, candidate) - 1
        if below != 0:
            raise RootError(
                f"candidate {candidate} is not minimal: {below} roots below it"
            )
        return IsolatingInterval(candidate, candidate, candidate)

    hi = cauchy_bound(p)
    v_hi = _variations_at(seq, hi)
    if v_lo == v_hi:
        return None
    den = abs(int(seq[0].leading()))
    separation = Fraction(1, den * den)
    while True:
        if v_lo - v_hi == 1:
            c = ((lo + hi) / 2).limit_denominator(den)
            if lo < c <= hi and p(c) == 0:
                return IsolatingInterval(c, c, c)
            if hi - lo < separation and hi - lo <= WIDTH:
                return IsolatingInterval(lo, hi, None)
        mid = (lo + hi) / 2
        v_mid = _variations_at(seq, mid)
        if v_lo > v_mid:
            hi, v_hi = mid, v_mid
        else:
            lo, v_lo = mid, v_mid


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
    closed interval (default: the family's claimed interval)."""
    if tag not in _FAMILY_INTERVALS and interval is None:
        raise RootError(f"no claimed interval for family {tag!r}")
    lo, hi = interval if interval is not None else _FAMILY_INTERVALS[tag]
    lo, hi = Fraction(lo), Fraction(hi)
    p = family(tag, n).poly
    if p.degree() == 0:
        return True
    seq = sturm_sequence(p)
    inside = _variations_at(seq, lo) - _variations_at(seq, hi) + (p(lo) == 0)
    return inside == _variations_at_inf(seq, False) - _variations_at_inf(seq, True)
