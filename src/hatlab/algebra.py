"""Theorem-constructors as a certificate-producing expression language.

An expression tree combines clique games by the sum / product /
substitution constructors (winning side) or by the losing-sum and
pendant-attachment theorems (losing side).  Evaluating it builds the
composite game and derives its status; Unknown is a first-class result
for mixtures the rules do not cover.  The expression itself records how
the status was reached, so the certificate holds only the composite
game, its status and the obstacle to maximality.

Names.  A composite vertex is named by the path from the root down to
the node that made it, "L/" for each left operand (a substitution's
inner clique is its left) and "R/" for each right one, followed by its
name there: a leaf's vertex name, or a pendant's name, which lives at
its own node's level (pendant_lose adds no prefix).  A glued vertex
keeps its left name; the right operand's v is gone.  These are the
names graphs.clique_join and games.glue_hatness give, one node at a
time.

Evaluation.  eval_expr makes one post-order pass over an explicit
stack, so nesting depth is bounded by memory alone.  Every leaf vertex
and pendant gets an integer id in the order the pass meets it, which is
also the composite's vertex order.  All nodes share one table of
adjacency, h and g by id, and each constructor updates it in place:
join S to N(v), delete v, and for the winning joins multiply h and g on
S by v's values and clamp g to h.  An operand's vertex name is resolved
by walking its prefixes down the evaluated tree.  The names, the Graph
and the HatGame are built once at the end, so an evaluation costs
O(n + m + name length), name length being the total length of the names
it resolves and of the name prefixes it writes, one per node.
Rebuilding the composite at every node costs O(depth * (n + m)).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .games import (
    LOSING,
    UNKNOWN,
    WINNING,
    HatGame,
    checked_counts,
    criterion_of_counts,
    fraction_vector,
)
from .graphs import Graph, GraphError
from .indpoly import eval_Z


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


# a union type, not typing.Union, whose cache would keep these classes,
# and with them this module's namespace, alive after a fresh re-import
GameExpr = CliqueLeaf | Sum | Product | Substitute | SumLose | PendantLose

LOSING_RULES = "expression uses constructors other than sum/product/substitute"


@dataclass
class Certificate:
    game: HatGame
    status: str
    # why the expression is not a sum/product/substitute composition of
    # precise cliques; "" when it is
    obstacle: str

    @property
    def maximal(self) -> bool:
        """Precise cliques are maximal and the winning constructors
        preserve maximality."""
        return not self.obstacle


# -- evaluation --------------------------------------------------------


_LEAF, _JOIN, _PENDANT = "leaf", "join", "pendant"


@dataclass(eq=False, slots=True)
class _Node:
    """An evaluated subtree.  `local` resolves the names it introduces:
    a leaf's name -> id, a pendant's (name, id); joins introduce none."""

    kind: str
    kids: tuple
    local: object
    status: str
    obstacle: str
    classic: bool  # g == 1 on the whole composite


class _Table:
    """The vertex table one evaluation shares: adjacency, h, g and
    liveness, indexed by vertex id.  Every constructor updates it in
    place."""

    def __init__(self):
        self.adj: list[set[int]] = []
        self.h: list[int] = []
        self.g: list[int] = []
        self.alive: list[bool] = []

    def resolve(self, node: _Node, name) -> Optional[int]:
        """Id of the live vertex `name` of node's composite, or None: walk
        down by the name's "L/" and "R/" prefixes, past pendants not
        called by the rest of the name, to a leaf."""
        pos = 0
        while True:
            if node.kind is _LEAF:
                i = node.local.get(name[pos:] if pos else name)
                break
            if node.kind is _PENDANT:
                pendant, i = node.local
                if pos == 0 and name == pendant or pos and (
                    len(name) - pos == len(pendant) and name.startswith(pendant, pos)
                ):
                    break
                node = node.kids[0]
            elif not isinstance(name, str):
                return None
            elif name.startswith("L/", pos):
                node = node.kids[0]
                pos += 2
            elif name.startswith("R/", pos):
                node = node.kids[1]
                pos += 2
            else:
                return None
        return i if i is not None and self.alive[i] else None

    def names(self, node: _Node) -> dict:
        """Names of the live vertices of node's composite, by id."""
        alive = self.alive
        out = {}
        todo = [(node, "")]
        while todo:
            node, prefix = todo.pop()
            if node.kind is _JOIN:
                todo.append((node.kids[1], prefix + "R/"))
                todo.append((node.kids[0], prefix + "L/"))
                continue
            if node.kind is _LEAF:
                named = node.local.items()
            else:
                named = (node.local,)
                todo.append((node.kids[0], prefix))
            for name, i in named:
                if alive[i]:
                    out[i] = prefix + name if prefix else name
        return out

    def leaf(self, leaf: CliqueLeaf) -> _Node:
        """A clique leaf, checked as complete_graph and make_game check
        it."""
        verts = tuple(leaf.vertices)
        known = set()
        for v in verts:
            if v in known:
                raise GraphError(f"duplicate vertex {v!r}")
            known.add(v)
        h, g = checked_counts(verts, known, leaf.h, leaf.g)
        crit = criterion_of_counts(h, g)
        status = WINNING if crit.winning else LOSING
        obstacle = "" if crit.precise else f"non-precise clique leaf on {list(verts)}"
        ids = range(len(self.h), len(self.h) + len(verts))
        members = set(ids)
        self.adj.extend(members - {i} for i in ids)
        self.h.extend(h.values())
        self.g.extend(g.values())
        self.alive.extend(True for _ in ids)
        classic = all(gv == 1 for gv in g.values())
        return _Node(_LEAF, (), dict(zip(verts, ids)), status, obstacle, classic)

    def _glue(self, S: list[int], v: int, multiply: bool):
        """Join S to N(v) and delete v; with `multiply`, h and g on S
        take the factors h(v) and g(v), g clamped to h."""
        adj, h, g = self.adj, self.h, self.g
        nb = adj[v]
        for u in nb:
            au = adj[u]
            au.discard(v)
            au.update(S)
        for s in S:
            adj[s] |= nb
            if multiply:
                h[s] *= h[v]
                g[s] = min(g[s] * g[v], h[s])
        nb.clear()
        self.alive[v] = False

    def join(self, rule: str, left: _Node, S, right: _Node, v) -> _Node:
        """The winning clique join of sum, product and substitute."""
        if not S:
            raise ExprError(f"{rule}: the glued clique S must not be empty")
        ids = []
        for s in S:
            i = self.resolve(left, s)
            if i is None:
                raise ExprError(f"{rule}: vertex {s!r} missing from left operand")
            ids.append(i)
        vi = self.resolve(right, v)
        if vi is None:
            raise ExprError(f"{rule}: vertex {v!r} missing from right operand")
        ids = list(dict.fromkeys(ids))
        for a, b in itertools.combinations(ids, 2):
            if b not in self.adj[a]:
                unique = list(dict.fromkeys(S))
                raise GraphError(f"S={unique!r} is not a clique in the left operand")
        self._glue(ids, vi, multiply=True)
        if left.status == WINNING and right.status == WINNING:
            status = WINNING
        else:
            status = UNKNOWN
        return _Node(_JOIN, (left, right), None, status,
                     left.obstacle or right.obstacle,
                     left.classic and right.classic)

    def sum_lose(self, left: _Node, A, right: _Node, v) -> _Node:
        if left.status != LOSING or right.status != LOSING:
            raise ExprError("sum_lose: both operands must carry Losing status")
        if not (left.classic and right.classic):
            raise ExprError("sum_lose: the losing-sum theorem covers classic games")
        ai = self.resolve(left, A)
        if ai is None:
            raise ExprError(f"sum_lose: vertex {A!r} missing from left operand")
        vi = self.resolve(right, v)
        if vi is None:
            raise ExprError(f"sum_lose: vertex {v!r} missing from right operand")
        if self.h[vi] != 2:
            raise ExprError(
                f"sum_lose: failed hypothesis h2(A) = 2 (got {self.h[vi]})"
            )
        if self.h[ai] < 2:
            raise ExprError("sum_lose: failed hypothesis h1(A) >= h2(A) = 2")
        self._glue([ai], vi, multiply=False)
        return _Node(_JOIN, (left, right), None, LOSING, LOSING_RULES, True)

    def pendant_lose(self, base: _Node, B, A) -> _Node:
        if base.status != LOSING:
            raise ExprError("pendant_lose: the base game must carry Losing status")
        if not base.classic:
            raise ExprError("pendant_lose: the pendant theorem covers classic games")
        bi = self.resolve(base, B)
        if bi is None:
            raise ExprError(f"pendant_lose: vertex {B!r} missing from base")
        if self.resolve(base, A) is not None:
            raise ExprError(f"pendant_lose: pendant name {A!r} already in base")
        ai = len(self.h)
        self.adj[bi].add(ai)
        self.adj.append({bi})
        self.h[bi] = 2 * self.h[bi] - 1
        self.h.append(2)
        self.g.append(1)
        self.alive.append(True)
        return _Node(_PENDANT, (base,), (A, ai), LOSING, LOSING_RULES, True)

    def combine(self, e: GameExpr, done: list[_Node]) -> _Node:
        """Evaluate the inner node e; its children are the last entries
        of `done`, which it pops."""
        if isinstance(e, PendantLose):
            return self.pendant_lose(done.pop(), e.B, e.A)
        right = done.pop()
        left = done.pop()
        if isinstance(e, Sum):
            return self.join("sum", left, e.S, right, e.v)
        if isinstance(e, Product):
            return self.join("product", left, (e.A,), right, e.v)
        if isinstance(e, Substitute):
            # substitution of a complete graph is the S = V(inner) clique join
            names = self.names(left)
            S = tuple(names[i] for i in sorted(names))
            return self.join("substitute", left, S, right, e.at)
        return self.sum_lose(left, e.A, right, e.v)

    def certificate(self, root: _Node) -> Certificate:
        names = self.names(root)
        order = [i for i in range(len(self.alive)) if self.alive[i]]
        # the leaves were checked and every step keeps the table valid, so
        # the graph and the game are built trusted, each live id renumbered
        # to its rank among the live ones
        rank = dict(zip(order, range(len(order))))
        graph = Graph(
            tuple(names[i] for i in order),
            [frozenset(map(rank.__getitem__, self.adj[i])) for i in order],
        )
        h = {names[i]: self.h[i] for i in order}
        g = {names[i]: self.g[i] for i in order}
        return Certificate(HatGame(graph, h, g), root.status, root.obstacle)


def _children(e) -> tuple:
    if isinstance(e, (Sum, Product, SumLose)):
        return (e.left, e.right)
    if isinstance(e, Substitute):
        return (e.inner, e.outer)
    if isinstance(e, PendantLose):
        return (e.base,)
    raise ExprError(f"not a game expression: {e!r}")


def eval_expr(e: GameExpr) -> Certificate:
    """Build the composite game of an expression and derive its status,
    in one pass over an explicit stack (module docstring)."""
    table = _Table()
    todo = [(e, False)]
    done: list[_Node] = []  # evaluated subtrees, children before parents
    while todo:
        e, children_done = todo.pop()
        if isinstance(e, CliqueLeaf):
            done.append(table.leaf(e))
        elif children_done:
            done.append(table.combine(e, done))
        else:
            todo.append((e, True))
            todo.extend((c, False) for c in reversed(_children(e)))
    return table.certificate(done.pop())


def composite_z_at_r(cert: Certificate) -> Fraction:
    """Z(r) of a composition of precise cliques, which the constructor
    theorems make 0; exact evaluation re-verifies it as a consistency
    check."""
    z_at_r = eval_Z(cert.game.graph, fraction_vector(cert.game))
    if z_at_r != 0:
        raise ExprError(
            f"inconsistency: compositional maximality but Z(r) = {z_at_r}"
        )
    return z_at_r


@dataclass(frozen=True)
class Conclusion:
    value: Optional[Fraction]
    reason: str = ""
    game: Optional[HatGame] = None  # conclude_hg: the evaluated composite game


def conclude_hg(e: GameExpr) -> Conclusion:
    """Hat guessing number of a sum-composed game of precise classic
    clique bricks with constant resulting hatness."""
    cert = eval_expr(e)
    if cert.obstacle:
        return Conclusion(None, cert.obstacle, cert.game)
    # gluing multiplies g on the nonempty S by g(v), and h with it, so
    # the composite is classic exactly when every leaf is
    if not cert.game.is_classic():
        return Conclusion(None, "a leaf uses multiple guesses (g != 1)", cert.game)
    values = set(cert.game.h.values())
    if len(values) != 1:
        return Conclusion(
            None, f"resulting hatness is not constant: {sorted(values)}", cert.game
        )
    # maximality backs the upper bound HG <= mu-hat = h
    composite_z_at_r(cert)
    return Conclusion(Fraction(values.pop()), game=cert.game)


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
