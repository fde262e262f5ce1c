import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from hatlab.poly import UnivariatePoly

X = UnivariatePoly.x()


def test_of_normalizes_trailing_zeros():
    p = UnivariatePoly.of(1, 2, 0, 0)
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert p.degree() == 1


def test_zero_and_one():
    assert UnivariatePoly.ZERO.is_zero()
    assert UnivariatePoly.ONE(Fraction(7)) == 1


def test_arithmetic():
    p = (X + 1) * (X - 1)
    assert p == X * X - 1
    assert (p - p).is_zero()
    assert (-p)(Fraction(2)) == -3


def test_evaluation_horner():
    p = UnivariatePoly.of(1, -4, 3)  # 1 - 4x + 3x^2
    assert p(Fraction(1, 3)) == 0
    assert p(Fraction(1)) == 0
    assert p(Fraction(0)) == 1


def test_derivative():
    p = UnivariatePoly.of(5, 0, 3)  # 5 + 3x^2
    assert p.derivative() == UnivariatePoly.of(0, 6)


def test_divmod_and_rem():
    p = X * X * X - 1
    d = X - 1
    q, r = p.divmod(d)
    assert r.is_zero()
    assert q == X * X + X + 1
    assert (X * X + 1).rem(X) == UnivariatePoly.ONE


def test_gcd_of_common_factor():
    p = (X - 1) * (X - 2)
    q = (X - 1) * (X - 3)
    g = p.gcd(q)
    # gcd is the common root factor up to a constant
    assert g.degree() == 1
    assert g(Fraction(1)) == 0


def test_square_free_drops_multiplicity():
    p = (X - 1) * (X - 1) * (X + 2)
    sf = p.square_free()
    assert sf.degree() == 2
    assert sf(Fraction(1)) == 0 and sf(Fraction(-2)) == 0


def test_integer_cleared():
    p = UnivariatePoly.of(Fraction(1, 2), Fraction(1, 3))
    assert p.integer_cleared() == [3, 2]


def test_integer_cleared_matches_the_fraction_route():
    # the reference divides the content out over Fractions
    rng = random.Random(25)
    dens = [3**i * 2**j for i in range(8) for j in range(11)]
    polys = [UnivariatePoly.ZERO, UnivariatePoly.of(-6, 4, -10),
             UnivariatePoly.of(Fraction(-5, 3**7 * 2**10))]
    for _ in range(1200):
        content = rng.choice((1, 1, 6, 35))
        polys.append(UnivariatePoly.of(*(
            Fraction(content * rng.randint(-40, 40), rng.choice(dens))
            for _ in range(rng.randint(1, 9))
        )))
    seen = {"zero": 0, "negative": 0, "content": 0, "big": 0}
    for p in polys:
        got = p.integer_cleared()
        assert got == [int(c) for c in p.normalized().coeffs], p
        if p.is_zero():
            seen["zero"] += 1
            continue
        assert gcd(*got) == 1 and (got[-1] > 0) == (p.leading() > 0), p
        den = lcm(*(c.denominator for c in p.coeffs))
        seen["negative"] += p.leading() < 0
        seen["content"] += gcd(*(c.numerator * (den // c.denominator) for c in p.coeffs)) > 1
        seen["big"] += den == 3**7 * 2**10
    assert len(polys) >= 1000
    assert seen["zero"] >= 1 and min(seen.values()) >= 1, seen
    assert min(seen["negative"], seen["content"], seen["big"]) >= 20, seen


def test_divmod_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        (X + 1).divmod(UnivariatePoly.ZERO)
