"""Theorem-constructors as a certificate-producing expression language.

An expression tree combines clique games by the sum / product /
substitution constructors (winning side) or by the losing-sum and
pendant-attachment theorems (losing side).  Evaluating it builds the
composite game and derives its status; Unknown is a first-class result
for mixtures the rules do not cover.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from . import graphs
from .games import (
    LOSING,
    UNKNOWN,
    WINNING,
    HatGame,
    clique_criterion,
    glue_hatness,
    make_game,
)
from .graphs import complete_graph


class ExprError(ValueError):
    """Violated constructor-rule hypothesis or malformed expression."""


@dataclass(frozen=True)
class CliqueLeaf:
    vertices: tuple[str, ...]
    h: dict[str, int]
    g: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Sum:
    left: GameExpr
    S: tuple[str, ...]
    right: GameExpr
    v: str


@dataclass(frozen=True)
class Product:
    left: GameExpr
    A: str
    right: GameExpr
    v: str


@dataclass(frozen=True)
class Substitute:
    inner: CliqueLeaf
    outer: GameExpr
    at: str


@dataclass(frozen=True)
class SumLose:
    left: GameExpr
    A: str
    right: GameExpr
    v: str


@dataclass(frozen=True)
class PendantLose:
    base: GameExpr
    B: str
    A: str  # name of the new pendant vertex


GameExpr = Union[CliqueLeaf, Sum, Product, Substitute, SumLose, PendantLose]

LOSING_RULES = "expression uses constructors other than sum/product/substitute"


@dataclass
class Certificate:
    game: HatGame
    status: str
    # why the expression is not a sum/product/substitute composition of
    # precise cliques; "" when it is
    obstacle: str
    derivation: dict

    @property
    def maximal(self) -> bool:
        """Precise cliques are maximal and the winning constructors
        preserve maximality."""
        return not self.obstacle


def _leaf_cert(leaf: CliqueLeaf) -> Certificate:
    game = make_game(complete_graph(leaf.vertices), leaf.h, leaf.g)
    crit = clique_criterion(game)
    status = WINNING if crit.winning else LOSING
    return Certificate(
        game,
        status,
        "" if crit.precise else f"non-precise clique leaf on {list(leaf.vertices)}",
        derivation={
            "rule": "clique-criterion",
            "sum": str(crit.total),
            "precise": crit.precise,
            "status": status,
        },
    )


def _winning_join(rule, cl, S, cr, v) -> Certificate:
    if not S:
        raise ExprError(f"{rule}: the glued clique S must not be empty")
    for s in S:
        if s not in cl.game.graph._adj:
            raise ExprError(f"{rule}: vertex {s!r} missing from left operand")
    if v not in cr.game.graph._adj:
        raise ExprError(f"{rule}: vertex {v!r} missing from right operand")
    graph = graphs.clique_join(cl.game.graph, S, cr.game.graph, v)
    h = glue_hatness(cl.game.h, S, cr.game.h, v)
    g = glue_hatness(cl.game.g, S, cr.game.g, v)
    # clamp products back (gluing may push g above the new h)
    game = make_game(graph, h, g)
    if cl.status == WINNING and cr.status == WINNING:
        status = WINNING
    else:
        status = UNKNOWN
    return Certificate(
        game,
        status,
        cl.obstacle or cr.obstacle,
        derivation={
            "rule": rule,
            "S": list(S),
            "v": v,
            "left": cl.derivation,
            "right": cr.derivation,
            "status": status,
        },
    )


def eval_expr(e: GameExpr) -> Certificate:
    """Build the composite game of an expression and derive its status."""
    if isinstance(e, CliqueLeaf):
        return _leaf_cert(e)

    if isinstance(e, Sum):
        return _winning_join("sum", eval_expr(e.left), e.S, eval_expr(e.right), e.v)

    if isinstance(e, Product):
        return _winning_join(
            "product", eval_expr(e.left), (e.A,), eval_expr(e.right), e.v
        )

    if isinstance(e, Substitute):
        # substitution of a complete graph is the S = V(inner) clique join
        inner = eval_expr(e.inner)
        outer = eval_expr(e.outer)
        return _winning_join(
            "substitute", inner, inner.game.graph.vertices, outer, e.at
        )

    if isinstance(e, SumLose):
        cl, cr = eval_expr(e.left), eval_expr(e.right)
        if cl.status != LOSING or cr.status != LOSING:
            raise ExprError("sum_lose: both operands must carry Losing status")
        if not (cl.game.is_classic() and cr.game.is_classic()):
            raise ExprError("sum_lose: the losing-sum theorem covers classic games")
        if e.A not in cl.game.h:
            raise ExprError(f"sum_lose: vertex {e.A!r} missing from left operand")
        if e.v not in cr.game.h:
            raise ExprError(f"sum_lose: vertex {e.v!r} missing from right operand")
        if cr.game.h[e.v] != 2:
            raise ExprError(
                f"sum_lose: failed hypothesis h2(A) = 2 (got {cr.game.h[e.v]})"
            )
        if cl.game.h[e.A] < 2:
            raise ExprError("sum_lose: failed hypothesis h1(A) >= h2(A) = 2")
        graph = graphs.vertex_glue(cl.game.graph, e.A, cr.game.graph, e.v)
        h = {"L/" + u: val for u, val in cl.game.h.items()}
        h.update(
            ("R/" + u, val) for u, val in cr.game.h.items() if u != e.v
        )
        game = make_game(graph, h)
        return Certificate(
            game,
            LOSING,
            LOSING_RULES,
            derivation={
                "rule": "sum_lose",
                "A": e.A,
                "v": e.v,
                "left": cl.derivation,
                "right": cr.derivation,
                "status": LOSING,
            },
        )

    if isinstance(e, PendantLose):
        base = eval_expr(e.base)
        if base.status != LOSING:
            raise ExprError("pendant_lose: the base game must carry Losing status")
        if not base.game.is_classic():
            raise ExprError("pendant_lose: the pendant theorem covers classic games")
        if e.B not in base.game.h:
            raise ExprError(f"pendant_lose: vertex {e.B!r} missing from base")
        if e.A in base.game.h:
            raise ExprError(f"pendant_lose: pendant name {e.A!r} already in base")
        bg = base.game.graph
        graph = graphs.make_graph(
            tuple(bg.vertices) + (e.A,), set(bg.edges) | {(e.A, e.B)}
        )
        h = dict(base.game.h)
        h[e.B] = 2 * h[e.B] - 1
        h[e.A] = 2
        game = make_game(graph, h)
        return Certificate(
            game,
            LOSING,
            LOSING_RULES,
            derivation={
                "rule": "pendant_lose",
                "B": e.B,
                "A": e.A,
                "base": base.derivation,
                "status": LOSING,
            },
        )

    raise ExprError(f"not a game expression: {e!r}")


@dataclass(frozen=True)
class Conclusion:
    value: Optional[Fraction]
    reason: str = ""

    @property
    def applicable(self) -> bool:
        return self.value is not None


def conclude_hg(e: GameExpr) -> Conclusion:
    """Hat guessing number of a sum-composed game of precise classic
    clique bricks with constant resulting hatness."""
    cert = eval_expr(e)
    if cert.obstacle:
        return Conclusion(None, cert.obstacle)
    # gluing multiplies g on the nonempty S by g(v), and h with it, so
    # the composite is classic exactly when every leaf is
    if not cert.game.is_classic():
        return Conclusion(None, "a leaf uses multiple guesses (g != 1)")
    values = set(cert.game.h.values())
    if len(values) != 1:
        return Conclusion(None, f"resulting hatness is not constant: {sorted(values)}")
    # maximality backs the upper bound HG <= mu-hat = h
    from .certify import maximality_from_composition

    maximality_from_composition(cert)
    return Conclusion(Fraction(values.pop()))


def conclude_muhat(e: GameExpr) -> Conclusion:
    """Fractional hat chromatic number of a sum-composed game of precise
    clique bricks with constant h/g ratio."""
    cert = eval_expr(e)
    if cert.obstacle:
        return Conclusion(None, cert.obstacle)
    ratios = {
        Fraction(cert.game.h[v], cert.game.g[v]) for v in cert.game.vertices
    }
    if len(ratios) != 1:
        return Conclusion(None, "h/g is not a constant function")
    return Conclusion(ratios.pop())
