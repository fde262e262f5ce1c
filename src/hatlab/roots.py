"""Exact real-root isolation on primitive integer coefficients, and the
recurrence polynomial families of the minimal-root theorems.

Each entry point (smallest_positive_root, verify_root_interval) clears
p once to coprime integers by `UnivariatePoly.integer_cleared`; from
there isolation runs on Python integers only.  The square-free part
comes from a primitive pseudo-remainder sequence and an exact division
over Z, a subinterval is reached by integer scaling and Taylor shifts,
and every sign test is a homogeneous Horner sum.  One Descartes
bisection routine, _first_root, serves the smallest positive root and
the family root intervals.

Sturm sequences (sturm_sequence, sturm_roots, count_real_roots) are an
independent reference the tests check it by.  They run on poly's
Fraction routines (square_free, gcd, divmod, normalized), which the
integer route never calls.

`family(tag, n)` returns the polynomial of a recurrence family in k.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .poly import UnivariatePoly, coeff_product, coeff_sum


class RootError(ValueError):
    pass


# -- integer polynomials: coefficient lists, low degree first ----------


def _content_free(c: list[int]) -> list[int]:
    g = gcd(*c)
    return [ck // g for ck in c] if g > 1 else c


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """The remainder of a by b times a nonzero integer: long division
    that scales the dividend by lc(b) before each step."""
    r, lb, db = list(a), b[-1], len(b) - 1
    while len(r) > db:
        lr, shift = r.pop(), len(r) - db
        r = [lb * x for x in r]
        for i, bi in enumerate(b[:-1]):
            r[shift + i] -= lr * bi
        while r and r[-1] == 0:
            r.pop()
    return r


def _gcd(a: list[int], b: list[int]) -> list[int]:
    """gcd(a, b) in Z[x], primitive, up to sign, for deg a >= deg b: the
    primitive pseudo-remainder sequence (Collins, J. ACM 1967)."""
    a, b = _content_free(a), _content_free(b)
    while b:
        a, b = b, _content_free(_pseudo_remainder(a, b))
    return a


def _divide_exact(a: list[int], b: list[int]) -> list[int]:
    """a / b when b divides a in Z[x]: every quotient digit is exact."""
    r, q, lb, db = list(a), [], b[-1], len(b) - 1
    for shift in range(len(a) - 1 - db, -1, -1):
        qk = r[shift + db] // lb
        for i, bi in enumerate(b):
            r[shift + i] -= qk * bi
        q.append(qk)
    return q[::-1]


def _square_free(c: list[int]) -> list[int]:
    """c / gcd(c, c') for primitive c, again primitive (Gauss's lemma)."""
    g = _gcd(c, [k * ck for k, ck in enumerate(c)][1:])
    return c if len(g) == 1 else _divide_exact(c, g)


def _value(c: list[int], n: int, m: int) -> int:
    """m^d c(n/m), d = deg c, by homogeneous Horner; for m > 0 it has
    the sign of c(n/m)."""
    acc, mk = 0, 1
    for ck in reversed(c):
        acc = acc * n + ck * mk
        mk *= m
    return acc


def _scaled(c: list[int], r: Fraction) -> list[int]:
    """Integer coefficients of m^d c((n/m) y), r = n/m in lowest terms."""
    n, m, d = r.numerator, r.denominator, len(c) - 1
    return [ck * n**k * m ** (d - k) for k, ck in enumerate(c)]


def _taylor_shift(a: list[int]) -> list[int]:
    """Coefficients of a(x + 1), low degree first, by integer additions."""
    a = list(a)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += a[j + 1]
    return a


def _variations(c: list[int]) -> int:
    signs = [ck > 0 for ck in c if ck]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _cauchy_bound(c: list[int]) -> Fraction:
    return Fraction(max(map(abs, c[:-1]), default=0), abs(c[-1])) + 1


# -- Descartes bisection -----------------------------------------------


def _first_root(c: list[int], a: Fraction, b: Fraction):
    """The first root of the integer polynomial c in the open interval
    (a, b) by Descartes bisection (Vincent-Collins-Akritas: Collins &
    Akritas, SYMSAC 1976; Rouillier & Zimmermann, J. Comput. Appl. Math.
    2004).

    The subinterval a + (b - a)[i, i + 1]/2^k keeps integer coefficients
    proportional to c(lo + (hi - lo) y); for the whole interval they come
    from c(a (1 + y (b - a)/a)), two scalings around a Taylor shift.  Its
    roots in (0, 1) are the positive roots of (1 + x)^d c(1/(1 + x)), the
    reversed coefficients shifted by x -> x + 1, and by Descartes' rule
    of signs number at most its sign variations, with the same parity.
    Subintervals go left to right: one with no variations holds no root,
    one with two or more is halved (2^d c(y/2) and its shift), and one
    whose disk holds no root eventually shows none (the one-circle
    theorem).

    Returns None when (a, b) holds no root; else the first root itself
    when a midpoint hits it, or (lo, hi) with hi < b holding exactly one
    root, simple, and no root in (a, lo].  The search ends when that
    first root is simple."""
    if a == 0:
        c = _scaled(c, b)
    else:
        c = _scaled(_taylor_shift(_scaled(c, a)), (b - a) / a)

    def at(i, k):
        return a + (b - a) * Fraction(i, 1 << k)

    stack = [(0, 0, c)]
    while stack:
        i, k, c = stack.pop()
        if c is None:
            return at(i, k)  # c(lo) = 0, and no root lies below it
        variations = _variations(_taylor_shift(c[::-1]))
        if variations == 0:
            continue
        if variations == 1 and i + 1 < 1 << k:  # hi < b
            return at(i, k), at(i + 1, k)
        d = len(c) - 1
        left = [ck << (d - j) for j, ck in enumerate(c)]
        right = _taylor_shift(left)
        stack.append((2 * i + 1, k + 1, right))
        if right[0] == 0:
            stack.append((2 * i + 1, k + 1, None))
        stack.append((2 * i, k + 1, left))
    return None


@dataclass(frozen=True)
class IsolatingInterval:
    lower: Fraction
    upper: Fraction
    exact_root: Fraction | None = None


# an irrational root is isolated to an interval no wider than this
WIDTH = Fraction(1, 10**12)


def smallest_positive_root(p: UnivariatePoly, candidate: Fraction | None = None):
    """Isolate the smallest positive real root of p, or None when there
    is none, by _first_root on the square-free part s of p over Z, after
    dividing out the power of x that a root at 0 contributes.  A rational
    candidate c passes when p(c) == 0 and (0, c) holds no root.  Without
    one, (0, B), B the Cauchy bound, gives the root or an interval
    (lo, hi) holding only it, which is bisected on the sign of s.

    Exact rational roots come from the denominator bound.  Let L be the
    leading coefficient of s, a primitive integer polynomial.  A rational
    root a/b in lowest terms has b | L, so two distinct rational roots lie
    at least 1/L^2 apart.  Once hi - lo < 1/L^2, the midpoint's closest
    fraction with denominator <= L is the root whenever the root is
    rational, so one exact evaluation there settles it; a root at a
    midpoint is caught on the way.  Otherwise the root is irrational and
    comes back as (lo, hi) with hi - lo <= WIDTH, s changing sign across
    it.  All of it runs on integers: lo = n_lo/m and hi = n_hi/m over one
    denominator."""
    if p.is_zero():
        raise RootError("zero polynomial")
    c = p.integer_cleared()
    while c[0] == 0:  # a root at 0 is not positive
        c.pop(0)
    s = _square_free(c)
    if candidate is not None:
        candidate = Fraction(candidate)
        if candidate <= 0:
            raise RootError("candidate must be positive")
        if _value(c, candidate.numerator, candidate.denominator) != 0:
            raise RootError(f"candidate {candidate} is not a root")
        if _first_root(s, Fraction(0), candidate) is not None:
            raise RootError(f"candidate {candidate} is not minimal: a root lies below")
        return IsolatingInterval(candidate, candidate, candidate)

    found = _first_root(s, Fraction(0), _cauchy_bound(s))
    if not isinstance(found, tuple):
        return None if found is None else IsolatingInterval(found, found, found)
    lo, hi = found
    m = lcm(lo.denominator, hi.denominator)
    n_lo, n_hi = (x.numerator * (m // x.denominator) for x in found)
    den = abs(s[-1])
    positive_below = _value(s, n_lo, m) > 0  # the sign of s between lo and the root
    rational_ruled_out = False
    while True:
        if (n_hi - n_lo) * den * den < m:  # hi - lo < 1/L^2
            if not rational_ruled_out:
                r = Fraction(n_lo + n_hi, 2 * m).limit_denominator(den)
                if n_lo * r.denominator < r.numerator * m < n_hi * r.denominator and (
                    _value(s, r.numerator, r.denominator) == 0
                ):
                    return IsolatingInterval(r, r, r)
                rational_ruled_out = True
            if (n_hi - n_lo) * WIDTH.denominator <= m * WIDTH.numerator and _value(
                s, n_hi, m
            ):
                return IsolatingInterval(Fraction(n_lo, m), Fraction(n_hi, m), None)
        n_mid, m = n_lo + n_hi, 2 * m
        at_mid = _value(s, n_mid, m)
        if at_mid == 0:
            r = Fraction(n_mid, m)
            return IsolatingInterval(r, r, r)
        if (at_mid > 0) == positive_below:
            n_lo, n_hi = n_mid, 2 * n_hi
        else:
            n_lo, n_hi = 2 * n_lo, n_mid


# -- Sturm sequences: the independent reference ------------------------


def _sign_variations(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


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
#
# Each family builds integer coefficient lists, low degree first, in k,
# with `poly.coeff_sum` and `coeff_product` (k + c is [c, 1]); `family`
# makes the polynomial once at the end.


def _family_A(n: int) -> list[int]:
    a, b = [1], [1, 1]  # A_0, A_1
    if n == 0:
        return a
    for _ in range(n - 1):
        a, b = b, [0, *coeff_sum([a, b])]  # A_m = k (A_{m-2} + A_{m-1})
    return b


def _family_B(n: int) -> list[int]:
    # B_n = f_n(k+1, ..., k+1, k+3) = (k+2) A_{n-1} + k A_{n-2} for
    # n >= 2; forced base cases B_0 = 1, B_1 = k+3
    if n == 0:
        return [1]
    if n == 1:
        return [3, 1]
    return coeff_sum([coeff_product([[2, 1], _family_A(n - 1)]),
                      [0, *_family_A(n - 2)]])


def _family_L(n: int) -> list[int]:
    if n < 2:
        raise RootError("L_n is defined for n >= 2")
    if n == 2:
        return [8, 6, 1]  # (k+2)(k+4)
    return coeff_sum([coeff_product([[2, 1], _family_B(n - 1)]),
                      [0, *_family_B(n - 2)]])


def _family_Phi(n: int) -> list[int]:
    a, b = [1], [0, 1]  # Phi_0, Phi_1
    if n == 0:
        return a
    for _ in range(n - 1):  # Phi_m = k Phi_{m-1} - Phi_{m-2}
        a, b = b, coeff_sum([[0, *b], [-x for x in a]])
    return b


def _family_E(n: int) -> list[int]:
    # E_n = f_n of the second-kind path extension H(k+1, k, ..., k, k+1)
    # (extensions.leading_f_second), built without Phi so that the
    # identity E_n = (k+2) Phi_{n-1} is a check.  On a path, with
    # F = f(a_1, ..., a_m) and G = f(a_1, ..., a_m - 1), adding clique m
    # gives G <- (a_m - 2) F + G and then F <- F + G, from F = a_1 and
    # G = a_1 - 1, where a_m - 2 = k - 2, or k - 1 at the last clique
    if n < 1:
        raise RootError("E_n is defined for n >= 1")
    f, g = [1, 1], [0, 1]  # k + 1, k
    for m in range(2, n + 1):
        g = coeff_sum([coeff_product([[-1 if m == n else -2, 1], f]), g])
        f = coeff_sum([f, g])
    return f


_FAMILIES = {
    "A": _family_A,
    "B": _family_B,
    "L": _family_L,
    "Phi": _family_Phi,
    "E": _family_E,
}


def family(tag: str, n: int) -> UnivariatePoly:
    """Polynomial of the named family at index n, in k."""
    if tag not in _FAMILIES:
        raise RootError(f"unknown family {tag!r}; choose from {sorted(_FAMILIES)}")
    if n < 0:
        raise RootError("family index must be nonnegative")
    return UnivariatePoly.of(*_FAMILIES[tag](n))


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
    s = _square_free(family(tag, n).integer_cleared())
    b = _cauchy_bound(s)
    outside = [(x, y) for x, y in ((-b, lo), (hi, b)) if x < y]
    return all(_first_root(s, x, y) is None for x, y in outside)
