"""Exact evaluation of independence polynomials.

P_G(x) sums the products of variables over independent sets.  A point is
evaluated over the integers: with L the least common denominator of the
point and x_v = a_v / L, both routes below compute W(S) = L^|S| * P_S(x)
for vertex sets S and divide by L^n once, at the end; no Fraction enters
the loop.  The univariate P and U, P(t, ..., t) and P(-t, ..., -t) as
polynomials in t, run the same routes over integer coefficient lists
(`poly.coeff_product`), at L = 1.

Each public function picks its route from the graph, which keeps the
elimination tree of its perfect elimination order or None
(`Graph.elimination_tree`, found once per graph object), so callers
pass graphs and points, never orders.  `z_prefix_chain` reads Z at -x
along the prefixes of the route's own vertex order, for the chain lemma
of `certify`.

Chordal graphs: one sum-product over the elimination tree that the
graph keeps, read as the maximum cardinality search left it: the
perfect elimination order (PEO), each vertex's later neighbours C(v) and
its parent.  C(v) is a clique, and the earliest of its vertices is v's
parent; the parents make the elimination tree, in which every later
neighbour of v is an ancestor.  So a vertex of the subtree T(v) has no
neighbour outside T(v) but in C(v), and an independent set meets the
clique C(v) at most once: the state of T(v) is "no vertex of C(v) is in
the set" or "exactly c is", |C(v)| + 1 states.  With the children's
tables f_k,

    f_v[none] = L * prod_k f_k[none] + a_v * prod_k f_k[v]
    f_v[c]    = L * prod_k f_k[c or none, as c is in C(k) or not]

(v is never in the set with a neighbour c), and W(G) is the product of
f_root[none] over the roots, one per component.  The pass visits the
vertices in the order, children first, with O(|C(v)| * children) ring
operations each.

Other graphs: the clique recurrence

    P_G = P_{G\\K} + sum_{u in K} x_u * P_{G\\N+(u)}

with factorization over connected components and memoization on vertex
subsets, which over the integers reads

    W(S) = L^|K| * W(S - K) + sum_{u in K} a_u * L^|N(u) & S| * W(S - N[u])

(components multiply, since their sizes add up to |S|).  It stays for
graphs without a PEO because the PEO route would need a chordal
completion, whose fill-in cliques make it exponential where the
recurrence is not: K_{14,14} takes about 1 ms by the recurrence and took
0.3 s by a fill-in sum-product.  It also serves every induced subgraph
of one graph from one memo (`z_corner_evaluator`, and the prefix
chain).  Subsets are int bitmasks, and each step does Python-level work
in proportion to the vertices it removes, not to the size of the
subset:

* Pivot.  The vertices are relabelled once per evaluator by an
  elimination order: repeatedly remove a vertex of minimum (degree,
  index) from what is left of the whole graph.  The pivot of a subset is
  its first vertex in that order (its lowest bit), and K is the greedy
  maximal clique of the pivot with its neighbours taken in the same
  order.  The pivot's neighbours in the subset come later in the order,
  so there are at most degeneracy(G) of them.
* Connectivity.  A child C - X of a connected subset C is searched for
  components only when the removed set X borders two or more of the
  remaining vertices.  Every component D of C - X contains a neighbour
  of X: C is connected, so a path in C runs from D to X, and it can
  leave D only into X.  With at most one such neighbour, C - X is
  therefore connected (or empty).  Otherwise the search grows a
  component from one neighbour at a time, and once a single neighbour
  is left unplaced, the rest is its component.

Neither route recurses: the sum-product is one loop, and the recurrence
runs on an explicit stack of tasks, so depth is bounded only by memory.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import lcm, prod
from typing import NamedTuple, Optional

from .graphs import Graph, independent_sets
from .poly import UnivariatePoly, coeff_product

# stack tasks: evaluate a subset, or combine the values of its children
_EVAL, _PRODUCT, _CLIQUE = range(3)


def _elimination_order(adj: list[list[int]]) -> list[int]:
    """Vertex indices in the order of repeatedly removing a vertex of
    minimum (degree, index) from the rest of the graph."""
    n = len(adj)
    deg = [len(a) for a in adj]
    # the key degree * n + index orders as (degree, index), as one int; a
    # vertex's newest entry has its least degree and comes out first, so
    # an entry is stale exactly when its vertex is gone
    heap = [d * n + i for i, d in enumerate(deg)]
    heapq.heapify(heap)
    gone = [False] * n
    order = []
    while heap:
        i = heapq.heappop(heap) % n
        if gone[i]:
            continue
        gone[i] = True
        order.append(i)
        for w in adj[i]:
            if not gone[w]:
                deg[w] -= 1
                heapq.heappush(heap, deg[w] * n + w)
    return order


def _scaled(graph: Graph, x, sign: int):
    """The least common denominator L of the point and the numerators
    a_v = sign * x_v * L, by vertex position."""
    xs = [x[v] for v in graph.vertices]
    scale = lcm(*(q.denominator for q in xs))
    return scale, [sign * q.numerator * (scale // q.denominator) for q in xs]


def _sum_product(tree, a, product, node, lift):
    """The sum-product over the elimination tree `tree` that the graph
    keeps (module docstring).  The value domain comes as three functions:
    `product` of a list of values (the one, for an empty list);
    `node(out, inn, a_v)`, f_v[none] from the children's products with v
    out of the set and with v in it; and `lift`, which puts v out of the
    set into f_v[c]."""
    order, later_of, parent = tree
    # kids[v]: the (f[none], {c: f[c]}) tables of v's children, filled in
    # before v's turn and dropped at it
    kids = [[] for _ in order]
    roots = []
    for v in order:
        later = later_of[v]
        tables = kids[v]
        kids[v] = None
        if len(tables) == 1:
            (none, f), = tables
            out = node(none, f[v], a[v])
            table = {c: lift(f.get(c, none)) for c in later}
        else:
            out = node(product([none for none, _ in tables]),
                       product([f[v] for _, f in tables]), a[v])
            table = {c: lift(product([f.get(c, none) for none, f in tables]))
                     for c in later}
        if later:
            kids[parent[v]].append((out, table))
        else:
            roots.append(out)
    return product(roots)


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
        self.scale, a = _scaled(graph, x, sign)
        # order[pos]: the vertex index at bit position pos
        self.order = order = _elimination_order(graph.adj)
        # bit[i]: the bit of vertex index i; adj and a are by bit position
        self.bit = [0] * len(graph)
        for pos, i in enumerate(order):
            self.bit[i] = 1 << pos
        self.adj = [sum(self.bit[u] for u in graph.adj[i]) for i in order]
        self.a = [a[i] for i in order]
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
        """W(root), for any subset root."""
        adj, memo, one = self.adj, self.memo, self.one
        vals = []
        emit = vals.append
        # (_EVAL, sub, gone): sub is a connected subset less the vertices
        # gone, or any subset when gone is None
        stack = [(_EVAL, root, None)]
        pop, push = stack.pop, stack.append
        while stack:
            kind, sub, arg = pop()
            if kind == _EVAL:
                if not sub:
                    emit(one)
                    continue
                got = memo.get(sub)
                if got is not None:
                    emit(got)
                    continue
                # every component of sub holds a vertex of seeds
                seeds = sub if arg is None else self._border(arg) & sub
                if seeds & (seeds - 1):
                    comps = self._components(sub, seeds)
                    if len(comps) > 1:
                        push((_PRODUCT, sub, len(comps)))
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
                push((_CLIQUE, sub, clique))
                # P(sub - K) is evaluated first, then P(sub - N[u]) for u in K
                for u in reversed(clique):
                    gone = (adj[u] & sub) | (1 << u)
                    push((_EVAL, sub & ~gone, gone))
                push((_EVAL, sub & ~kmask, kmask))
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
                emit(out)
        return vals[0]

    _product = staticmethod(prod)

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


def _point(graph: Graph, x, sign: int) -> Fraction:
    """P_G(sign * x), by the route the graph allows (module docstring)."""
    tree = graph.elimination_tree
    if tree is None:
        return _Evaluator(graph, x, sign).full()
    scale, a = _scaled(graph, x, sign)
    w = _sum_product(tree, a, prod,
                     lambda out, inn, av: scale * out + av * inn,
                     lambda w: scale * w)
    return Fraction(w, scale ** len(a))


def eval_P(graph: Graph, x: dict[str, Fraction]) -> Fraction:
    """Exact value of the independence polynomial at the given point."""
    return _point(graph, x, 1)


def eval_Z(graph: Graph, x: dict[str, Fraction]) -> Fraction:
    """Signed independence polynomial Z_G(x) = P_G(-x)."""
    return _point(graph, x, -1)


def z_corner_evaluator(graph: Graph, r: dict[str, Fraction]) -> _Evaluator:
    """Evaluator whose value(sub) is Z of the induced subgraph at r
    (vertices outside sub set to zero, i.e. deleted)."""
    return _Evaluator(graph, r, -1)


class PrefixChain(NamedTuple):
    """Z along the prefixes W_i = {v_1, ..., v_i} of a vertex order."""

    order: list[str]  # v_1, ..., v_n
    first: Optional[int]  # the least i with Z_{W_i}(x) <= 0, or None
    value: Optional[Fraction]  # Z_{W_first}(x)
    z: Fraction  # Z_V(x)


def z_prefix_chain(graph: Graph, x: dict[str, Fraction]) -> PrefixChain:
    """Z of the prefixes of a vertex order that the route picks, up to the
    first that is not positive, and Z(x) itself:

    * chordal: the sum-product over the perfect elimination order, in one
      pass.  After step i the processed vertices are W_i, the union of
      the subtrees T(u) of the processed u whose parent is not; no edge
      joins two of them, so Z_{W_i} is the product of their
      Z_{T(u)} = f_u[none].  So the first prefix that is not positive is
      the one at the first f_v[none] <= 0.
    * otherwise: identity (1) of `certify` along the prefixes of the
      highest bits, Z_{W_k} = Z_{W_(k-1)} - x_v * Z_{W_(k-1) - N(v)} for
      the new vertex v, in the recurrence's integers

          W(W_k) = L * W(W_(k-1))
                   + a_v * L^|N(v) & W_(k-1)| * W(W_(k-1) - N(v)),

      the last factor from the evaluator's memo, which also keeps each
      W(W_k).  Z(x) is W(W_n), or one full evaluation in the same memo
      after a prefix fails."""
    tree = graph.elimination_tree
    if tree is None:
        return _recurrence_chain(graph, x)
    order = tree.order
    scale, a = _scaled(graph, x, -1)
    tops = []  # f_v[none] = W(T(v)), in the order

    def node(out, inn, av):
        tops.append(scale * out + av * inn)
        return tops[-1]

    w = _sum_product(tree, a, prod, node, lambda w: scale * w)
    names = [graph.vertices[v] for v in order]
    z = Fraction(w, scale ** len(order))
    i = next((i for i, f in enumerate(tops) if f <= 0), None)
    if i is None:
        return PrefixChain(names, None, None, z)
    done = set(order[: i + 1])
    # the processed u with no processed later neighbour: their parent,
    # the first later neighbour in the order, is not processed
    value = prod(f for u, f in zip(order, tops[: i + 1])
                 if tree.parent[u] not in done)
    return PrefixChain(names, i + 1, Fraction(value, scale ** (i + 1)), z)


def _recurrence_chain(graph: Graph, x) -> PrefixChain:
    ev = _Evaluator(graph, x, -1)
    n = len(ev.a)
    names = [graph.vertices[i] for i in reversed(ev.order)]
    prefix, w = 0, 1
    for k in range(1, n + 1):
        pos = n - k
        nb = ev.adj[pos] & prefix
        w = (ev.scale * w
             + ev.a[pos] * ev.powers[nb.bit_count()] * ev._eval(prefix & ~nb))
        prefix |= 1 << pos
        ev.memo[prefix] = w  # later steps' recursions reach earlier prefixes
        if w <= 0:
            return PrefixChain(names, k, Fraction(w, ev.scale**k), ev.full())
    return PrefixChain(names, None, None, Fraction(w, ev.scale**n))


def eval_P_brute(graph: Graph, x: dict[str, Fraction]) -> Fraction:
    """Independent-set enumeration oracle for eval_P.  With L the least
    common denominator of the point and a_v = x_v * L, it sums
    prod_{v in S} a_v * L^(n - |S|) over the independent sets S of
    `graphs.independent_sets`, in integers, and divides by L^n once.  It
    shares no code with the evaluators above, so a check of one against
    the other compares two routines."""
    names = graph.vertices
    n = len(names)
    scale = lcm(*(x[v].denominator for v in names))
    a = {v: x[v].numerator * (scale // x[v].denominator) for v in names}
    powers = [scale**k for k in range(n + 1)]
    total = sum(prod(a[v] for v in s) * powers[n - len(s)]
                for s in independent_sets(graph))
    return Fraction(total, powers[n])


def _shift_add(out, inn, a):
    """out + a * t * inn over integer coefficient lists in t."""
    n = len(inn) + 1
    out = out + [0] * (n - len(out))
    out[1:n] = [o + a * c for o, c in zip(out[1:n], inn)]
    return out


class _RayEvaluator(_Evaluator):
    """The clique recurrence at the all-ones point times sign * t, as a
    polynomial in t over integer coefficient lists."""

    one = [1]  # shared, never mutated: every combination builds a new list
    _product = staticmethod(coeff_product)

    def full(self) -> UnivariatePoly:
        return UnivariatePoly.of(*self._eval((1 << len(self.a)) - 1))

    def _clique(self, rest, clique, values, sub):
        for u, v in zip(clique, values):
            rest = _shift_add(rest, v, self.a[u])
        return rest


def _ray(graph: Graph, sign: int) -> UnivariatePoly:
    """P_G(sign * t, ..., sign * t) as a polynomial in t, by the route the
    graph allows (module docstring)."""
    tree = graph.elimination_tree
    if tree is None:
        return _RayEvaluator(graph, dict.fromkeys(graph.vertices, 1), sign).full()
    coeffs = _sum_product(tree, [sign] * len(graph), coeff_product, _shift_add,
                          lambda q: q)
    return UnivariatePoly.of(*coeffs)


def univariate_P(graph: Graph) -> UnivariatePoly:
    """P_G with all variables identified: coefficient k counts the
    independent k-sets."""
    return _ray(graph, 1)


def univariate_U(graph: Graph) -> UnivariatePoly:
    """Monovariate signed independence polynomial U_G(x) = P_G(-x):
    coefficient k is (-1)^k times the number of independent k-sets."""
    return _ray(graph, -1)
