"""Certification: maximal games, losing games in Shearer's region, and
the fractional hat chromatic number of chordal graphs.

A game is maximal when Z vanishes at r = (g/h) and is strictly positive
on the box [0, r] minus the corner r.  Write Z_W for Z of the subgraph
induced by W.  Each vertex occurs at most once per independent set, so
for v in W

    Z_W(p) = Z_{W-v}(p) - p_v * Z_{W-N[v]}(p),                        (1)

Z_W is affine in each coordinate, and dZ_W/dp_v = -Z_{W-N[v]}.

Ray lemma (Shearer, Combinatorica 1985; Scott & Sokal, J. Stat. Phys.
2005, section 2).  Let G = (V, E) be connected, r > 0 and Z_V(r) = 0.
Then the game is maximal exactly when q(t) = Z_V(t r) has no root in
(0, 1).

Proof.  A root t in (0, 1) is a zero t r of Z in the box minus r.
Conversely, let t1 be the least t > 0 at which some Z_W(t r) vanishes;
every Z_W is 1 at t = 0, and t1 <= 1 because Z_V(r) = 0.

(a) t1 is the first positive root of q.  For t < t1 every Z_U(t r) is
    positive, so (1) gives Z_W <= Z_{W-v} at t r, and deleting the
    vertices of V - W one at a time gives Z_V <= Z_W.  In the limit
    0 <= Z_V(t1 r) <= Z_W(t1 r) = 0 for the W that vanishes.
(b) At p = t1 r, Z_W(p) > 0 for every proper subset W.  All Z_U(p) >= 0
    by continuity.  Take a nonempty proper W with Z_W(p) = 0 of least
    size.  G is connected, so a vertex v outside W has a neighbour in W,
    and (1) on W + v gives 0 <= Z_{W+v}(p) = -p_v Z_{W-N(v)}(p) <= 0.  So
    Z_{W-N(v)}(p) = 0 on a smaller set, which is impossible: it is
    either empty (Z = 1) or contradicts the choice of W.
(c) q'(t1) = -sum_v r_v Z_{V-N[v]}(t1 r) < 0 by (b), so t1 is a simple
    root and q changes sign there.

If q has no root in (0, 1), then t1 = 1 and (b) says Z > 0 at every
corner other than r.  Suppose Z(p) <= 0 at some other p in the box.
Fix the coordinates one at a time, starting with one where p_u < r_u,
to the end of their interval where the affine restriction is smaller,
0 on a tie.  Z never grows, and the first step either sets p_u = 0 or
makes Z negative, so this ends at a corner other than r with Z <= 0: a
contradiction.  The same descent, started at t0 r with t0 < 1 and
q(t0) <= 0, gives the witness corner of a refutation.

Deciding the ray.  q has degree at most the independence number of G.
Its roots in (0, 1) number at most the sign variations of
(1 + x)^d q(1/(1 + x)) (Descartes' rule of signs), which integer Taylor
shifts compute; zero variations prove maximality, and a root of q at
t = 1 does not count.  Otherwise Descartes bisection searches (0, 1)
from the left (roots.unit_interval_root).  It ends, because by (c) a
first root there is simple, at that root or at the upper end t0 of an
interval (a, t0) that holds exactly one root, simple, with q(a) > 0;
q changes sign once between them, so q(t0) <= 0.

A disconnected graph is never maximal: Z is the product of Z over the
components, so Z(r) = 0 makes it vanish on some component W, and the
corner that keeps only W is a zero other than r.

Losing rule.  r lies in Shearer's region when Z_W(r) > 0 for every W.
Then the sages lose.  Colour at random, uniformly.  Given the colours
of all other sages, sage v guesses right with probability r_v, and
whether a non-neighbour of v guesses right depends on those colours
alone; so v's success is independent of the successes of its
non-neighbours together, and G is a dependency graph of the events.  By
Shearer's lemma (Shearer, Combinatorica 1985; Scott & Sokal, J. Stat.
Phys. 2005) every sage misses with probability at least Z_V(r) > 0, so
some colouring beats every strategy.  Z(r) > 0 alone is not enough:
P_7 and P_8 at h = 2 have Z(r) > 0 and are winning.

Deciding the region.  If q(t) = Z_V(t r) > 0 for every t in [0, 1],
then r lies in the region: were some Z_W(t r) to vanish for a t in
(0, 1], the least such t would be a root of q by (a), whose proof uses
neither connectivity nor Z_V(r) = 0.  The converse holds because the
region is closed downwards (Scott & Sokal, section 2), so the test
misses no point of it.  Z factors over the components, and so does the
region, so each component W is tested on its own: q_W(1) > 0, and no
root in (0, 1) by Descartes' rule and bisection as above.  On a
component the bisection ends because a first root is simple by (c); a
product of components can have a double root, on which it need not
end.

The region contains the counting bound sum_v r_v < 1.  For p >= 0 with
sum_V p < 1, every W has 1 - sum_W p <= Z_W(p) <= 1, by induction on |W|
from Z_{} = 1: in (1), Z_{W-N[v]}(p) lies in [0, 1], so
Z_{W-v}(p) - p_v <= Z_W(p) <= Z_{W-v}(p).  Hence Z_W(r) > 0 for every
W, and the region test needs no separate counting route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Optional

from . import algebra
from .games import HatGame, fraction_vector
from .graphs import Graph, components, is_chordal
from .indpoly import eval_Z, univariate_U, z_ray
from .poly import UnivariatePoly
from .roots import IsolatingInterval, smallest_positive_root, unit_interval_root

JUSTIFICATIONS = {
    "ray": "G is connected and Z(t r) has no root for 0 < t < 1, so by the "
    "ray lemma (Shearer; Scott & Sokal) Z > 0 at every box corner except r; "
    "Z is multilinear, so with Z(r) = 0 it is strictly positive on the box "
    "minus {r}.",
    "compositional": "precise clique leaves are maximal; the sum "
    "constructor preserves maximality",
}


class CertifyError(ValueError):
    pass


@dataclass
class MaximalityCertificate:
    game: HatGame
    z_at_r: Fraction
    method: str  # "ray" | "compositional"
    corner_count: int = 0

    @property
    def justification(self) -> str:
        return JUSTIFICATIONS[self.method]


@dataclass
class Refutation:
    reason: str
    witness_point: dict
    witness_value: Fraction


@dataclass
class LosingCertificate:
    game: HatGame
    z_at_r: Fraction
    rule: ClassVar[str] = (
        "r in Shearer's region (Z(t r) > 0 for 0 <= t <= 1 on every "
        "component) implies losing"
    )


@dataclass
class Inconclusive:
    reason: str


def check_maximal_direct(game: HatGame):
    """Decide maximality from the definition: Z(r) = 0 exactly and Z > 0
    on the box below r minus r, by the ray lemma of the module docstring.
    A maximal game certifies the 2^n - 1 corners other than r.  The ray
    is built only when the values at r leave the question open: for a
    connected graph with Z(r) = 0."""
    r, parts, z_at_r = _component_values(game)
    if z_at_r != 0:
        return Refutation("Z(r) != 0", witness_point=r, witness_value=z_at_r)
    if len(parts) > 1:
        for sub, at_r in parts:
            if at_r == 0:
                point = {v: (r[v] if v in sub.index else Fraction(0)) for v in r}
                return Refutation(
                    "disconnected: Z vanishes on one component",
                    witness_point=point,
                    witness_value=Fraction(0),
                )
    ((sub, _),) = parts  # connected: sub is game.graph
    t0 = unit_interval_root(z_ray(sub, r))
    if t0 is None:
        return MaximalityCertificate(
            game, z_at_r, method="ray", corner_count=2 ** len(r) - 1
        )
    point, value = _descend(game.graph, r, t0)
    return Refutation(
        f"Z(t r) <= 0 at t = {t0} < 1; nonpositive corner value",
        witness_point=point,
        witness_value=value,
    )


def _component_values(game: HatGame):
    """r; the (graph, Z_W(r)) pairs of the components W, whose graphs
    keep the elimination order that their rays reuse; and Z(r), the
    product of the Z_W(r), since Z factors over the components."""
    r = fraction_vector(game)
    parts = []
    z = Fraction(1)
    for comp in components(game.graph):
        sub = game.graph.induced(comp)
        at_r = eval_Z(sub, r)
        z *= at_r
        parts.append((sub, at_r))
    return r, parts, z


def _descend(graph: Graph, r: dict, t0: Fraction):
    """A corner other than r with Z <= 0, by affine descent from t0 r,
    where Z <= 0 and every coordinate lies strictly inside its interval;
    returns the corner and its Z value."""
    p = {v: t0 * rv for v, rv in r.items()}
    value = eval_Z(graph, p)
    for v in graph.vertices:
        # Z = a - p_v * b, with b = Z of G - N[v] at p
        gone = graph.neighbors(v) | {v}
        b = eval_Z(graph.induced(u for u in graph.vertices if u not in gone), p)
        a = value + p[v] * b
        p[v] = r[v] if b > 0 else Fraction(0)
        value = a - p[v] * b
    return p, value


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
    return MaximalityCertificate(cert.game, z_at_r, method="compositional")


def losing_by_Z_positive(game: HatGame):
    """Losing certificate when r lies in Shearer's region, decided one
    component at a time by the ray (module docstring); inconclusive
    otherwise.  A component with Z_W(r) <= 0 settles it without rays.
    Z(r) is the product of the components' Z_W(r)."""
    r, parts, z = _component_values(game)
    if all(at_r > 0 for _, at_r in parts) and all(
        unit_interval_root(z_ray(sub, r)) is None for sub, _ in parts
    ):
        return LosingCertificate(game, z)
    if z <= 0:
        return Inconclusive(f"Z(r) = {z} is not positive; the rule is silent")
    return Inconclusive(
        f"Z(r) = {z} > 0, but Z(t r) vanishes for some 0 < t <= 1 on a "
        "component: r lies outside Shearer's region; the rule is silent"
    )


@dataclass
class MuHatResult:
    value: Optional[Fraction]
    interval: Optional[IsolatingInterval]
    poly: UnivariatePoly
    elimination_ordering: list[str]
    note: ClassVar[str] = "HG(G) <= mu-hat(G)"


def mu_hat_chordal(
    graph: Graph, candidate: Optional[Fraction] = None
) -> MuHatResult:
    """mu-hat of a chordal graph: 1/r for the smallest positive root r
    of U_G.  Exact rational when the root is rational, else the open
    interval (1/upper, 1/lower) that holds mu-hat and no other reciprocal
    of a root of U_G; compare against it by exact rationals, never by a
    rounded value."""
    ordering = is_chordal(graph)
    if ordering is None:
        raise CertifyError("graph is not chordal; the corollary does not apply")
    u = univariate_U(graph)
    iso = smallest_positive_root(u, candidate=candidate)
    if iso is None:
        raise CertifyError("U_G has no positive real root")
    if iso.exact_root is not None:
        return MuHatResult(1 / iso.exact_root, None, u, ordering)
    interval = IsolatingInterval(1 / iso.upper, 1 / iso.lower)
    return MuHatResult(None, interval, u, ordering)
