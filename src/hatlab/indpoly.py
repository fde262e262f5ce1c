"""Exact evaluation of independence polynomials.

P_G(x) sums the products of variables over independent sets.  Evaluation
uses the clique recurrence

    P_G = P_{G\\K} + sum_{u in K} x_u * P_{G\\N+(u)}

with factorization over connected components and memoization on vertex
subsets.  A point is evaluated over the integers: with L the least
common denominator of the point and x_v = a_v / L, the memo holds the
integer W(S) = L^|S| * P_S(x) of each subset S, and the recurrence reads

    W(S) = L^|K| * W(S - K) + sum_{u in K} a_u * L^|N(u) & S| * W(S - N[u])

(components multiply, since their sizes add up to |S|).  The value is
W(S) / L^|S|, one division at the end; no Fraction enters the loop.
Subsets are int bitmasks, and each step does Python-level work in
proportion to the vertices it removes, not to the size of the subset:

* Pivot.  The vertices are relabelled once per evaluator by an
  elimination order: repeatedly remove a vertex of minimum (degree,
  index) from what is left of the whole graph.  The pivot of a subset is
  its first vertex in that order (its lowest bit), and K is the greedy
  maximal clique of the pivot with its neighbours taken in the same
  order.  The pivot's neighbours in the subset come later in the order,
  so there are at most degeneracy(G) of them.  On a path the order runs
  from one end, and the recurrence stays linear on tree-of-cliques
  graphs, which is what makes the large gallery graphs feasible.
* Connectivity.  A child C - X of a connected subset C is searched for
  components only when the removed set X borders two or more of the
  remaining vertices.  Every component D of C - X contains a neighbour
  of X: C is connected, so a path in C runs from D to X, and it can
  leave D only into X.  With at most one such neighbour, C - X is
  therefore connected (or empty).  Otherwise the search grows a
  component from one neighbour at a time, and once a single neighbour
  is left unplaced, the rest is its component.

There is no recursion: the recurrence runs on an explicit stack of
tasks, so its depth is bounded only by memory.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import lcm

from .graphs import Graph, independent_sets
from .poly import UnivariatePoly

# stack tasks: evaluate a subset, or combine the values of its children
_EVAL, _PRODUCT, _CLIQUE = range(3)


def _elimination_order(adj: list[list[int]]) -> list[int]:
    """Vertex indices in the order of repeatedly removing a vertex of
    minimum (degree, index) from the rest of the graph."""
    deg = [len(a) for a in adj]
    heap = [(d, i) for i, d in enumerate(deg)]
    heapq.heapify(heap)
    gone = [False] * len(deg)
    order = []
    while heap:
        d, i = heapq.heappop(heap)
        if gone[i] or d != deg[i]:
            continue  # stale entry
        gone[i] = True
        order.append(i)
        for w in adj[i]:
            if not gone[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return order


class _Evaluator:
    """Evaluates P of induced subgraphs of one graph at a fixed point x,
    or at -x when sign is -1.

    x_v = a_v / L over the least common denominator L; the memo holds
    the integers W(S) = L^|S| * P_S(x), keyed by the vertex subset S (a
    bitmask), so one evaluator serves many induced-subgraph queries, and
    `full` and `value` divide by L^|S| once.  The recurrence itself only
    needs ring operations: `one`, `_product` and `_clique` are all it
    uses, and `_RayEvaluator` replaces them."""

    one = 1

    def __init__(self, graph: Graph, x, sign: int = 1):
        names = graph.vertices
        xs = [x[v] for v in names]
        order = _elimination_order(graph.adj)
        # bit[i]: the bit of vertex index i; adj and a are by bit position
        self.bit = [0] * len(names)
        for pos, i in enumerate(order):
            self.bit[i] = 1 << pos
        self.adj = [sum(self.bit[u] for u in graph.adj[i]) for i in order]
        self.scale = lcm(*(q.denominator for q in xs))
        self.a = [sign * xs[i].numerator * (self.scale // xs[i].denominator)
                  for i in order]
        # L^k for every k that _clique needs: |K| and |N(u) & S| are at
        # most the maximum degree plus one
        self.powers = [1]
        for _ in range(max(map(len, graph.adj), default=0) + 1):
            self.powers.append(self.powers[-1] * self.scale)
        self.memo: dict[int, object] = {}

    def full(self) -> Fraction:
        n = len(self.a)
        return Fraction(self._eval((1 << n) - 1), self.scale**n)

    def value(self, sub: frozenset) -> Fraction:
        """P of the subgraph induced by a set of vertex indices."""
        mask = 0
        for i in sub:
            mask |= self.bit[i]
        return Fraction(self._eval(mask), self.scale ** mask.bit_count())

    def _eval(self, root: int):
        adj, memo = self.adj, self.memo
        vals = []
        # (_EVAL, sub, gone): sub is a connected subset less the vertices
        # gone, or any subset when gone is None
        stack = [(_EVAL, root, None)]
        while stack:
            kind, sub, arg = stack.pop()
            if kind == _EVAL:
                if not sub:
                    vals.append(self.one)
                    continue
                got = memo.get(sub)
                if got is not None:
                    vals.append(got)
                    continue
                # every component of sub holds a vertex of seeds
                seeds = sub if arg is None else self._border(arg) & sub
                if seeds & (seeds - 1):
                    comps = self._components(sub, seeds)
                    if len(comps) > 1:
                        stack.append((_PRODUCT, sub, len(comps)))
                        # a component is connected: nothing gone, no search
                        stack.extend((_EVAL, c, 0) for c in comps)
                        continue
                # sub is connected; the pivot is its lowest bit, and K its
                # greedy maximal clique among the later neighbours
                kmask = sub & -sub
                clique = [kmask.bit_length() - 1]
                cand = adj[clique[0]] & sub
                while cand:
                    b = cand & -cand
                    clique.append(b.bit_length() - 1)
                    kmask |= b
                    cand &= adj[clique[-1]]
                stack.append((_CLIQUE, sub, clique))
                # P(sub - K) is evaluated first, then P(sub - N[u]) for u in K
                removed = [kmask] + [(adj[u] & sub) | (1 << u) for u in clique]
                for gone in reversed(removed):
                    stack.append((_EVAL, sub & ~gone, gone))
            else:
                # _PRODUCT: arg counts the factors; _CLIQUE: arg is K
                n = arg if kind == _PRODUCT else len(arg) + 1
                args = vals[-n:]
                del vals[-n:]
                if kind == _PRODUCT:
                    out = self._product(args)
                else:
                    out = self._clique(args[0], arg, args[1:], sub)
                memo[sub] = out
                vals.append(out)
        return vals[0]

    @staticmethod
    def _product(factors):
        out = factors[0]
        for f in factors[1:]:
            out = out * f
        return out

    def _clique(self, rest, clique, values, sub):
        """W(sub) = L^|K| * W(sub - K) + sum over u in K of
        a_u * L^|N(u) & sub| * W(sub - N[u])."""
        adj, a, pw = self.adj, self.a, self.powers
        out = pw[len(clique)] * rest
        for u, v in zip(clique, values):
            out += a[u] * pw[(adj[u] & sub).bit_count()] * v
        return out

    def _border(self, mask: int) -> int:
        """Union of the neighbourhoods of the vertices in mask."""
        adj = self.adj
        out = 0
        while mask:
            b = mask & -mask
            out |= adj[b.bit_length() - 1]
            mask ^= b
        return out

    def _components(self, sub: int, seeds: int) -> list[int]:
        """Components of sub, each of which holds a vertex of seeds."""
        comps = []
        while seeds & (seeds - 1):
            comp = frontier = seeds & -seeds
            while frontier:
                frontier = self._border(frontier) & sub & ~comp
                comp |= frontier
            comps.append(comp)
            sub &= ~comp
            seeds &= ~comp
        if sub:
            comps.append(sub)
        return comps


def eval_P(graph: Graph, x: dict[str, Fraction]) -> Fraction:
    """Exact value of the independence polynomial at the given point."""
    return _Evaluator(graph, x).full()


def eval_Z(graph: Graph, x: dict[str, Fraction]) -> Fraction:
    """Signed independence polynomial Z_G(x) = P_G(-x)."""
    return _Evaluator(graph, x, -1).full()


def z_corner_evaluator(graph: Graph, r: dict[str, Fraction]) -> _Evaluator:
    """Evaluator whose value(sub) is Z of the induced subgraph at r
    (vertices outside sub set to zero, i.e. deleted)."""
    return _Evaluator(graph, r, -1)


def eval_P_brute(graph: Graph, x: dict[str, Fraction], max_n: int = 20) -> Fraction:
    """Independent-set enumeration oracle for eval_P."""
    total = Fraction(0)
    for s in independent_sets(graph, max_n=max_n):
        term = Fraction(1)
        for v in s:
            term *= x[v]
        total += term
    return total


class _RayEvaluator(_Evaluator):
    """P at sign * t * x as a polynomial in t.  With t = L * s, the
    recurrence runs at x_v = a_v * s over the integer coefficients of
    polynomials in s, low degree first, and coefficient k in t is that
    of s^k over L^k."""

    one = [1]  # shared, never mutated: every combination builds a new list

    def full(self) -> UnivariatePoly:
        coeffs = self._eval((1 << len(self.a)) - 1)
        return UnivariatePoly.of(
            *(Fraction(c, self.scale**k) for k, c in enumerate(coeffs))
        )

    @staticmethod
    def _product(factors):
        out = factors[0]
        for f in factors[1:]:
            prod = [0] * (len(out) + len(f) - 1)
            for i, a in enumerate(out):
                if a:
                    for j, b in enumerate(f, i):
                        prod[j] += a * b
            out = prod
        return out

    def _clique(self, rest, clique, values, sub):
        out = list(rest)
        for u, v in zip(clique, values):
            a = self.a[u]
            n = len(v) + 1
            if len(out) < n:
                out += [0] * (n - len(out))
            out[1:n] = [o + a * c for o, c in zip(out[1:n], v)]
        return out


def univariate_P(graph: Graph) -> UnivariatePoly:
    """P_G with all variables identified: coefficient k counts the
    independent k-sets."""
    return _RayEvaluator(graph, dict.fromkeys(graph.vertices, 1)).full()


def univariate_U(graph: Graph) -> UnivariatePoly:
    """Monovariate signed independence polynomial U_G(x): coefficient k
    is (-1)^k times the number of independent k-sets."""
    return univariate_P(graph).compose_neg_x()


def z_ray(graph: Graph, r: dict[str, Fraction]) -> UnivariatePoly:
    """q(t) = Z_G(t * r) as a polynomial in t, of degree at most the
    independence number of G, by the recurrence over integers."""
    return _RayEvaluator(graph, r, -1).full()
