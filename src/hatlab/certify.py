"""Certification: maximal games, losing games in Shearer's region, and
the fractional hat chromatic number of chordal graphs.

A game is maximal when Z vanishes at r = (g/h) and is strictly positive
on the box [0, r] minus the corner r.  Write Z_W for Z of the subgraph
induced by W.  Each vertex occurs at most once per independent set, so
for v in W

    Z_W(p) = Z_{W-v}(p) - p_v * Z_{W-N[v]}(p),                        (1)

Z_W is affine in each coordinate, and dZ_W/dp_v = -Z_{W-N[v]}.

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

Ratio lemma (Shearer 1985; Scott & Sokal, section 2).  Let p >= 0 and
Z_U(p) > 0 for every subset U of Y.  Then for every subset X of Y and
every vertex set A

    Z_{X-A}(p) / Z_X(p) <= Z_{Y-A}(p) / Z_Y(p).                       (2)

Proof, by induction on |Y|.  Both sides are 1 when A misses Y.  Else let
w_1, ..., w_k be the vertices of A in Y, and X_j, Y_j what is left of X
and Y once w_1, ..., w_j are gone; each side of (2) is the product over
j of Z_{X_j} / Z_{X_(j-1)}, resp. Z_{Y_j} / Z_{Y_(j-1)}.  By (1) at
w = w_j,

    Z_{Y_(j-1)} / Z_{Y_j} = 1 - p_w * Z_{Y_j-N(w)} / Z_{Y_j},

a ratio of positive values, and at most 1, so the factor of Y is at
least 1.  The factor of X is 1 when w is not in X.  Else the same
identity holds for X, and (2) on the smaller set Y_j, which contains
X_j, with A = N(w) gives Z_{X_j-N(w)} / Z_{X_j} <= Z_{Y_j-N(w)} / Z_{Y_j};
so Z_{X_(j-1)} / Z_{X_j} >= Z_{Y_(j-1)} / Z_{Y_j} > 0, and the factor of
X is at most that of Y.  The factors are positive, so the products
compare alike.

Chain lemma.  Fix any order v_1, ..., v_n of V, let W_i = {v_1, ...,
v_i}, and p >= 0.

(a) Z_W(p) > 0 for every subset W of V exactly when Z_{W_i}(p) > 0 for
    every i <= n.
(b) If G is connected and p > 0: the game at p is maximal (Z_V(p) = 0,
    and Z > 0 on the box [0, p] minus p) exactly when Z_{W_i}(p) > 0
    for every i < n and Z_V(p) = 0.

Proof of (a).  The W_i are among the W.  Conversely, by induction on n,
with nothing to show at n = 0 (Z of the empty set is 1).  Let v = v_n
and V' = W_(n-1).  The order v_1, ..., v_(n-1) of G - v meets the
hypothesis, so Z_U(p) > 0 for every subset U of V'.  Any other set S
contains v and has S - v in V', and (1), then (2) with X = S - v, Y = V',
A = N(v), give

    Z_S = Z_{S-v} * (1 - p_v * Z_{S-v-N(v)} / Z_{S-v})
       >= Z_{S-v} * (1 - p_v * Z_{V'-N(v)} / Z_{V'})
        = Z_{S-v} * Z_V / Z_{V'},                                     (3)

which is positive because Z_V = Z_{W_n} > 0.

Proof of (b).  Only if: Z_V(p) = 0, and for i < n the corner that is p
on W_i and 0 off it is not p, so Z_{W_i}(p) > 0.  If: by (a) on G - v_n,
Z_U(p) > 0 for every subset U of V', and (3) with Z_V = 0 gives
Z_S >= 0 for every S that contains v_n; so Z_U(p) >= 0 for every U.
Strictness:
suppose some nonempty proper W has Z_W(p) = 0, and take one of least
size.  G is connected, so a vertex u outside W has a neighbour in W, and
(1) on W + u gives 0 <= Z_{W+u}(p) = -p_u * Z_{W-N(u)}(p) <= 0.  As
p_u > 0, Z_{W-N(u)}(p) = 0, on a set smaller than W since u has a
neighbour in W: it is either empty, where Z = 1, or contradicts the
choice of W.  The corner that is p on W and 0 off it has the value
Z_W(p), so Z > 0 at every corner of the box other than p.  Now suppose
Z(q) <= 0 at some q in the box other than p.  Fix the coordinates one
at a time, starting with one where q_u < p_u, to the end of their
interval where the affine restriction is smaller, 0 on a tie.  Z never
grows, and the first step either sets q_u = 0 or makes Z negative, so
this ends at a corner other than p with Z <= 0: a contradiction.

Without connectivity (b) is false.  Take K1 + K2, vertices a and b - c,
r = (1/3, 1/2, 1/2) and the order a, b, c: the proper prefixes give
Z = 2/3 and 1/3, and Z(r) = 2/3 * 0 = 0, but Z vanishes on the corner
that keeps b and c.  A disconnected graph is never maximal: Z is the
product of Z over the components, so Z(r) = 0 makes it vanish on some
component W, and the corner that keeps only W is a zero other than r.

Deciding.  `indpoly.z_prefix_chain` gives Z(r) and the first prefix of
its vertex order on which Z is not positive: by one sum-product on a
chordal graph, and otherwise by (1) from each prefix to the next.
Maximality: Z(r) != 0 refutes it with the witness r; a disconnected
graph is refuted by the component rule; a connected one is maximal by
(b) exactly when that first prefix is V itself, and otherwise the
prefix W_i, i < n, is the witness: the corner that is r on W_i and 0 off
it, where Z = Z_{W_i}(r) <= 0.  The losing rule holds by (a) exactly
when no prefix is non-positive, on any graph.  Both certificates record
the order, so a checker can recompute the prefix values.

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

from .algebra import GameExpr, composite_z_at_r, eval_expr
from .games import HatGame, fraction_vector
from .graphs import Graph, components, is_chordal
from .indpoly import eval_Z, univariate_U, z_prefix_chain
from .poly import UnivariatePoly
from .roots import IsolatingInterval, smallest_positive_root

JUSTIFICATIONS = {
    "chain": "G is connected, Z(r) = 0, and Z > 0 on every proper prefix "
    "of the recorded vertex order, so by the chain lemma (Shearer; Scott & "
    "Sokal) Z is strictly positive on the box minus {r}.",
    "compositional": "precise clique leaves are maximal; the sum "
    "constructor preserves maximality",
}


class CertifyError(ValueError):
    pass


@dataclass
class MaximalityCertificate:
    game: HatGame
    z_at_r: Fraction
    method: str  # "chain" | "compositional"
    corner_count: int = 0
    chain: Optional[list[str]] = None  # the vertex order, for "chain"

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
    chain: list[str]  # the vertex order whose prefixes all have Z > 0
    rule: ClassVar[str] = (
        "r in Shearer's region (Z_W(r) > 0 on every prefix W of a vertex "
        "order, by the chain lemma) implies losing"
    )


@dataclass
class Inconclusive:
    reason: str


def _first_prefix(chain) -> str:
    return (f"Z = {chain.value} on the first {chain.first} of "
            f"{len(chain.order)} vertices of the chain")


def check_maximal_direct(game: HatGame):
    """Decide maximality from the definition: Z(r) = 0 exactly and Z > 0
    on the box below r minus r, by the chain lemma of the module
    docstring.  A maximal game certifies the 2^n - 1 corners other than
    r."""
    r = fraction_vector(game)
    chain = z_prefix_chain(game.graph, r)
    if chain.z != 0:
        return Refutation("Z(r) != 0", witness_point=r, witness_value=chain.z)
    parts = components(game.graph)
    if len(parts) > 1:
        for comp in parts:
            if eval_Z(game.graph.induced(comp), r) == 0:
                point = {v: (r[v] if v in comp else Fraction(0)) for v in r}
                return Refutation(
                    "disconnected: Z vanishes on one component",
                    witness_point=point,
                    witness_value=Fraction(0),
                )
    if chain.first == len(r):
        return MaximalityCertificate(game, chain.z, method="chain",
                                     corner_count=2 ** len(r) - 1,
                                     chain=chain.order)
    keep = set(chain.order[: chain.first])
    return Refutation(
        f"{_first_prefix(chain)}, a corner other than r with Z <= 0",
        witness_point={v: (r[v] if v in keep else Fraction(0)) for v in r},
        witness_value=chain.value,
    )


def check_maximal_compositional(e: GameExpr):
    """Maximality by induction: precise cliques are maximal and the sum
    constructor preserves maximality; the composite's Z(r) = 0 is
    re-verified by exact evaluation."""
    cert = eval_expr(e)
    if cert.obstacle:
        return Inconclusive(cert.obstacle)
    return MaximalityCertificate(cert.game, composite_z_at_r(cert),
                                 method="compositional")


def losing_by_Z_positive(game: HatGame):
    """Losing certificate when r lies in Shearer's region, decided by the
    chain lemma (a) of the module docstring; inconclusive otherwise,
    naming the first prefix of the chain on which Z is not positive."""
    chain = z_prefix_chain(game.graph, fraction_vector(game))
    if chain.first is None:
        return LosingCertificate(game, chain.z, chain.order)
    return Inconclusive(
        f"{_first_prefix(chain)} (Z(r) = {chain.z}): r lies outside "
        "Shearer's region; the rule is silent"
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
