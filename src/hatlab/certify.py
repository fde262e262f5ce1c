"""Certification: maximal games, losing-by-positivity, and the
fractional hat chromatic number of chordal graphs.

A game is maximal when Z vanishes at r = (g/h) and is strictly positive
on the box below r minus the corner r.  Box positivity is decided by
corner enumeration: Z is multilinear (each vertex occurs at most once
per independent set), a multilinear function on a box attains its
minimum at a corner, and an interior zero minimizer would force a zero
corner other than r by repeated affine-restriction descent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from . import algebra
from .games import HatGame, fraction_vector
from .graphs import Graph, is_chordal
from .indpoly import eval_Z, univariate_U, z_corner_evaluator
from .poly import UnivariatePoly
from .roots import IsolatingInterval, smallest_positive_root

CORNER_JUSTIFICATION = (
    "Z is multilinear, so its minimum over the box [0, r] is attained at a "
    "corner; positivity at every corner except r, together with Z(r) = 0, "
    "gives strict positivity on the box minus {r}."
)

# the corner sweep doubles with each vertex; larger games go compositional
CORNER_GUARD = 22


class CertifyError(ValueError):
    pass


@dataclass
class MaximalityCertificate:
    game: HatGame
    z_at_r: Fraction
    method: str  # "corner-check" | "compositional"
    corner_count: int = 0
    derivation: Optional[dict] = None
    justification: str = CORNER_JUSTIFICATION


@dataclass
class Refutation:
    reason: str
    witness_point: Optional[dict] = None
    witness_value: Optional[Fraction] = None


@dataclass
class LosingCertificate:
    game: HatGame
    z_at_r: Fraction
    rule: str = "Z(r) > 0 implies losing"


@dataclass
class Inconclusive:
    reason: str


def check_maximal_direct(game: HatGame):
    """Decide maximality from the definition: Z(r) = 0 exactly and Z > 0
    at every box corner except r itself."""
    n = len(game.vertices)
    if n > CORNER_GUARD:
        raise CertifyError(
            f"{n} vertices exceed the corner cutoff {CORNER_GUARD}; "
            "use the compositional route"
        )
    r = fraction_vector(game)
    ev = z_corner_evaluator(game.graph, r)
    full = frozenset(range(n))
    z_at_r = Fraction(ev.value(full))
    if z_at_r != 0:
        return Refutation("Z(r) != 0", witness_point=r, witness_value=z_at_r)
    corners = 0
    for bits in itertools.product((False, True), repeat=n):
        sub = frozenset(i for i, b in enumerate(bits) if b)
        if sub == full:
            continue
        corners += 1
        val = Fraction(ev.value(sub))
        if val <= 0:
            point = {
                v: (r[v] if i in sub else Fraction(0))
                for i, v in enumerate(game.vertices)
            }
            return Refutation(
                "nonpositive corner value", witness_point=point, witness_value=val
            )
    return MaximalityCertificate(
        game, z_at_r, method="corner-check", corner_count=corners
    )


def check_maximal_compositional(e: "algebra.GameExpr"):
    """Maximality by induction: precise cliques are maximal and the sum
    constructor preserves maximality."""
    cert = algebra.eval_expr(e)
    if cert.obstacle:
        return Inconclusive(cert.obstacle)
    return maximality_from_composition(cert)


def maximality_from_composition(cert: algebra.Certificate) -> MaximalityCertificate:
    """Certificate of an evaluated composition of precise cliques; the
    composite Z(r) = 0 is re-verified by exact evaluation as a
    consistency check."""
    z_at_r = eval_Z(cert.game.graph, fraction_vector(cert.game))
    if z_at_r != 0:
        raise CertifyError(
            f"inconsistency: compositional maximality but Z(r) = {z_at_r}"
        )
    return MaximalityCertificate(
        cert.game,
        z_at_r,
        method="compositional",
        derivation=cert.derivation,
        justification="precise clique leaves are maximal; the sum "
        "constructor preserves maximality",
    )


def losing_by_Z_positive(game: HatGame):
    """Losing certificate whenever Z(r) > 0; inconclusive otherwise."""
    r = fraction_vector(game)
    z = eval_Z(game.graph, r)
    if z > 0:
        return LosingCertificate(game, z)
    return Inconclusive(f"Z(r) = {z} is not positive; the rule is silent")


@dataclass
class MuHatResult:
    value: Optional[Fraction]
    interval: Optional[IsolatingInterval]
    poly: UnivariatePoly
    elimination_ordering: list[str]
    note: str = "HG(G) <= mu-hat(G)"


def mu_hat_chordal(
    graph: Graph,
    max_n: int = 40,
    candidate: Optional[Fraction] = None,
) -> MuHatResult:
    """mu-hat of a chordal graph: 1/r for the smallest positive root r
    of U_G.  Exact rational when the root is rational, else an isolating
    interval; comparisons downstream must use Sturm counts."""
    ordering = is_chordal(graph)
    if ordering is None:
        raise CertifyError("graph is not chordal; the corollary does not apply")
    u = univariate_U(graph, max_n=max_n)
    iso = smallest_positive_root(u, candidate=candidate)
    if iso is None:
        raise CertifyError("U_G has no positive real root")
    if iso.exact_root is not None:
        return MuHatResult(1 / iso.exact_root, None, u, ordering)
    interval = IsolatingInterval(1 / iso.upper, 1 / iso.lower)
    return MuHatResult(None, interval, u, ordering)
