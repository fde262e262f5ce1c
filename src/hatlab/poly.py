"""Univariate polynomials over exact rationals (low degree first).

`integer_cleared` is the one integer form of a polynomial: the coprime
integer coefficients of a positive multiple, computed on integers.  Root
isolation and the CLI's payloads start from it.  The Fraction routines
(divmod, gcd, normalized, square_free) serve the Sturm reference in
`roots`, which stays off the integer route.

Recurrences that build a polynomial run over plain coefficient lists
(low degree first) with `coeff_sum` and `coeff_product`, which only add
and multiply the entries: integers stay integers, and no `Fraction` is
made.  A result becomes a `UnivariatePoly` once, at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm


def coeff_sum(terms):
    """Sum of coefficient lists (low degree first)."""
    out = [0] * max(map(len, terms))
    for t in terms:
        for i, c in enumerate(t):
            out[i] += c
    return out


def coeff_product(factors):
    """Product of coefficient lists (low degree first); [1] for none."""
    if not factors:
        return [1]
    out = factors[0]
    for f in factors[1:]:
        acc = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            if a:
                for j, b in enumerate(f, i):
                    acc[j] += a * b
        out = acc
    return out


def _norm(coeffs) -> tuple[Fraction, ...]:
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True, eq=True)
class UnivariatePoly:
    coeffs: tuple[Fraction, ...]

    @staticmethod
    def of(*coeffs) -> "UnivariatePoly":
        return UnivariatePoly(_norm(coeffs))

    @staticmethod
    def x() -> "UnivariatePoly":
        return UnivariatePoly((Fraction(0), Fraction(1)))

    # -- structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return UnivariatePoly(
            _norm([self.coeff(i) + other.coeff(i) for i in range(n)])
        )

    __radd__ = __add__

    def __neg__(self):
        return UnivariatePoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) - self

    def __mul__(self, other):
        other = _as_poly(other)
        if self.is_zero() or other.is_zero():
            return UnivariatePoly(())
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UnivariatePoly(_norm(out))

    __rmul__ = __mul__

    def __call__(self, x):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "UnivariatePoly":
        return UnivariatePoly(
            _norm([i * c for i, c in enumerate(self.coeffs)][1:])
        )

    def divmod(self, other):
        other = _as_poly(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        d = other.degree()
        lc = other.leading()
        while len(rem) - 1 >= d and any(c != 0 for c in rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) - 1 < d:
                break
            shift = len(rem) - 1 - d
            factor = rem[-1] / lc
            q[shift] = factor
            for i, c in enumerate(other.coeffs):
                rem[shift + i] -= factor * c
            rem.pop()
        return UnivariatePoly(_norm(q)), UnivariatePoly(_norm(rem))

    def rem(self, other) -> "UnivariatePoly":
        return self.divmod(other)[1]

    def gcd(self, other) -> "UnivariatePoly":
        a, b = self, _as_poly(other)
        while not b.is_zero():
            a, b = b, a.rem(b).normalized()
        return a.normalized()

    def normalized(self) -> "UnivariatePoly":
        """Divide out the content, keeping the sign of the leading
        coefficient; controls coefficient growth in remainder chains."""
        if self.is_zero():
            return self
        num = gcd(*(abs(c.numerator) for c in self.coeffs), 0)
        den = 1
        for c in self.coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        scale = Fraction(den, num) if num else Fraction(1)
        return UnivariatePoly(tuple(c * scale for c in self.coeffs))

    def square_free(self) -> "UnivariatePoly":
        if self.degree() <= 0:
            return self
        g = self.gcd(self.derivative())
        if g.degree() <= 0:
            return self
        return self.divmod(g)[0]

    def integer_cleared(self) -> list[int]:
        """The coefficients times a positive rational, coprime integers
        (low degree first): times the lcm of the denominators, then
        divided by the gcd of the results."""
        den = lcm(*(c.denominator for c in self.coeffs))
        ints = [c.numerator * (den // c.denominator) for c in self.coeffs]
        g = gcd(*ints)
        return [c // g for c in ints] if g > 1 else ints

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{i}")
        return " + ".join(parts)


def _as_poly(v) -> UnivariatePoly:
    if isinstance(v, UnivariatePoly):
        return v
    return UnivariatePoly(_norm([v]))


UnivariatePoly.ZERO = UnivariatePoly(())
UnivariatePoly.ONE = UnivariatePoly((Fraction(1),))
