"""Simple undirected graphs with named vertices, plus the composition
operations (clique join, vertex gluing, substitution) on whole graphs.

Names live only at the edges of the program.  A `Graph` keeps its names
in order, one `index` from name to position, and one integer adjacency:
`adj[i]` is the frozenset of the positions of vertex i's neighbours.
Both are built once.  The algorithms here, the solver's tables, the
independence-polynomial evaluator and the extension recurrences read
positions; `edges` and `neighbors` translate back to names on demand.
A graph also keeps its elimination tree, or None when it is not
chordal: `elimination_tree` runs the maximum cardinality search on first
use and keeps what the search finds on the way, the perfect elimination
order, each vertex's later neighbours C(v) and its parent.
`elimination_order` reads the order off the kept tree, `is_chordal`
reads the order, and the sum-product of `indpoly` reads the whole tree,
so each graph object is searched at most once.
== and hash compare the vertex order and the edge set.

`make_graph` is the one validator of input from outside the program.
Its errors name the input element at fault (`GraphError.where`), which
`io` turns into a JSON pointer.
Code that builds from data it already holds calls the trusted
constructor `Graph(names, adj)`, which checks nothing: the joins below,
`Graph.induced`, `algebra.eval_expr`, and `bridged_cliques`, which
builds the extensions of `extensions` and the chain graphs of
`gallery` from their cliques and bridges.

Graphs are immutable values: every operation returns a new graph.  Under
composition the operands are namespaced by their position ("L/" and "R/"
prefixes) so that results are deterministic and collision-free; a glued
vertex keeps the left operand's (prefixed) name.  algebra.eval_expr
gives the same names and edges without building the graph of each
node; these operations are the reference its tests compare it with.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple, Optional


class GraphError(ValueError):
    """Invalid graph construction or operation input.  `where` names the
    input element at fault, as (argument, index) of `make_graph`, or is
    empty."""

    def __init__(self, message: str, where: tuple = ()):
        super().__init__(message)
        self.where = where


def _canon_edge(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Names, their positions and the integer adjacency (module
    docstring).  The constructor trusts `adj`: symmetric, loop-free and
    in range, one entry per name, the names distinct."""

    vertices: tuple[str, ...]
    adj: tuple[frozenset[int], ...]
    index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "adj", tuple(map(frozenset, self.adj)))
        object.__setattr__(self, "index", {v: i for i, v in enumerate(self.vertices)})

    # -- basic queries -------------------------------------------------

    def __len__(self) -> int:
        return len(self.vertices)

    @cached_property
    def elimination_tree(self):
        """`elimination_tree(self)`, found on first use and kept: a derived
        attribute, like `index`."""
        return elimination_tree(self)

    @property
    def elimination_order(self):
        """The perfect elimination order of the kept tree, as positions,
        or None if the graph is not chordal."""
        tree = self.elimination_tree
        return None if tree is None else tree.order

    @property
    def edges(self) -> frozenset[tuple[str, str]]:
        """The edges as name pairs (u, v) with u <= v."""
        names = self.vertices
        return frozenset(
            _canon_edge(names[i], names[j])
            for i, nb in enumerate(self.adj) for j in nb if i < j
        )

    def neighbors(self, v: str) -> set[str]:
        return {self.vertices[j] for j in self.adj[self.index[v]]}

    def degree(self, v: str) -> int:
        return len(self.adj[self.index[v]])

    def has_edge(self, u: str, v: str) -> bool:
        i, j = self.index.get(u), self.index.get(v)
        return i is not None and j in self.adj[i]

    def is_clique(self, S) -> bool:
        return all(self.has_edge(u, v) for u, v in itertools.combinations(S, 2))

    def is_complete(self) -> bool:
        return all(len(nb) == len(self.adj) - 1 for nb in self.adj)

    def induced(self, keep) -> "Graph":
        keep = set(keep)
        old = [i for i, v in enumerate(self.vertices) if v in keep]
        if len(old) == len(self.vertices):
            return self  # immutable, so the whole graph serves as is
        new = {i: k for k, i in enumerate(old)}
        return Graph(
            tuple(self.vertices[i] for i in old),
            [[new[j] for j in self.adj[i] if j in new] for i in old],
        )


def make_graph(vertices, edges) -> Graph:
    """Validate and build a graph. Rejects duplicate vertices, self-loops
    and edges with undeclared endpoints."""
    verts = tuple(vertices)
    index = {}
    for i, v in enumerate(verts):
        if v in index:
            raise GraphError(f"duplicate vertex {v!r}", ("vertices", i))
        index[v] = i
    adj = [set() for _ in verts]
    for i, (u, v) in enumerate(edges):
        if u == v:
            raise GraphError(f"self-loop {u!r}", ("edges", i))
        for w in (u, v):
            if w not in index:
                raise GraphError(f"unknown endpoint {w!r}", ("edges", i))
        adj[index[u]].add(index[v])
        adj[index[v]].add(index[u])
    return Graph(verts, adj)


def bridged_cliques(cliques, bridges) -> Graph:
    """The graph on the names of `cliques` in order, each clique complete,
    plus the bridges ((i, s), (j, t)), each joining member s of clique i
    to member t of clique j.  Rejects a repeated name."""
    off = list(itertools.accumulate(map(len, cliques), initial=0))
    adj = [set(range(a, b)) - {k} for a, b in zip(off, off[1:]) for k in range(a, b)]
    for (i, s), (j, t) in bridges:
        adj[off[i] + s].add(off[j] + t)
        adj[off[j] + t].add(off[i] + s)
    graph = Graph(tuple(v for cl in cliques for v in cl), adj)
    if len(graph.index) < len(graph):
        make_graph(graph.vertices, ())  # raises on the first repeated name
    return graph


def complete_graph(names) -> Graph:
    return bridged_cliques([tuple(names)], ())


def path_graph(names) -> Graph:
    names = tuple(names)
    return make_graph(names, zip(names, names[1:]))


# -- composition operations -------------------------------------------


def _join(g1: Graph, S, g2: Graph, v: str) -> Graph:
    """g1 and g2 - v side by side, with every vertex of S joined to every
    former neighbor of v; "L/" and "R/" prefix the names."""
    n1, cut = len(g1), g2.index[v]
    verts = ["L/" + u for u in g1.vertices]
    verts += ["R/" + u for u in g2.vertices if u != v]
    at = lambda j: n1 + j - (j > cut)  # g2's vertex j in the result
    adj = [set(nb) for nb in g1.adj]
    adj += [{at(j) for j in nb if j != cut} for i, nb in enumerate(g2.adj) if i != cut]
    S = [g1.index[s] for s in S]
    N = [at(j) for j in g2.adj[cut]]
    for s in S:
        adj[s].update(N)
    for u in N:
        adj[u].update(S)
    return Graph(tuple(verts), adj)


def clique_join(g1: Graph, S, g2: Graph, v: str) -> Graph:
    """Sum of graphs with respect to a clique S of g1 and a vertex v of g2:
    g2 loses v, and every former neighbor of v becomes adjacent to all of S.

    Result names: left vertices get an "L/" prefix, right ones "R/"."""
    S = list(dict.fromkeys(S))
    for s in S:
        if s not in g1.index:
            raise GraphError(f"unknown vertex {s!r} in left operand")
    if not g1.is_clique(S):
        raise GraphError(f"S={S!r} is not a clique in the left operand")
    if v not in g2.index:
        raise GraphError(f"unknown vertex {v!r} in right operand")
    return _join(g1, S, g2, v)


def vertex_glue(g1: Graph, a1: str, g2: Graph, a2: str) -> Graph:
    """Product gluing: identify a1 of g1 with a2 of g2 (the |S|=1 clique join)."""
    return clique_join(g1, [a1], g2, a2)


def substitute(inner: Graph, outer: Graph, at: str) -> Graph:
    """Replace vertex `at` of `outer` by the whole graph `inner`; every
    inner vertex becomes adjacent to every former neighbor of `at`."""
    if at not in outer.index:
        raise GraphError(f"unknown vertex {at!r} in outer graph")
    return _join(inner, inner.vertices, outer, at)


# -- stats -------------------------------------------------------------


@dataclass(frozen=True)
class GraphStats:
    degrees: dict[str, int] = field(compare=False)
    max_degree: int = 0
    connected: bool = False


def _bfs_dist(adj, src: int) -> dict[int, int]:
    dist = {src: 0}
    q = deque([src])
    while q:
        u = q.popleft()
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def stats(g: Graph) -> GraphStats:
    degrees = {v: len(nb) for v, nb in zip(g.vertices, g.adj)}
    max_degree = max(degrees.values(), default=0)
    return GraphStats(degrees, max_degree, len(components(g)) <= 1)


def components(g: Graph) -> list[set[str]]:
    """Vertex sets of the connected components, in declaration order of
    their first vertices."""
    names = g.vertices
    seen: set[int] = set()
    comps = []
    for i in range(len(names)):
        if i not in seen:
            comp = _bfs_dist(g.adj, i)
            seen.update(comp)
            comps.append({names[j] for j in comp})
    return comps


def diameter(g: Graph) -> int:
    if len(components(g)) > 1:
        raise GraphError("diameter is undefined for a disconnected graph")
    return max((max(_bfs_dist(g.adj, i).values()) for i in range(len(g))), default=0)


# -- chordality --------------------------------------------------------


class EliminationTree(NamedTuple):
    """A perfect elimination order and its elimination tree, by vertex
    position: later[v] is C(v), the neighbours of v after it in the
    order, and parent[v] the first of them in the order, or None when
    C(v) is empty (v is a root).  A graph shares its kept tree with every
    reader, so no reader changes it."""

    order: list[int]
    later: list[list[int]]
    parent: list[Optional[int]]


def elimination_tree(g: Graph) -> Optional[EliminationTree]:
    """The positions in a perfect elimination ordering (eliminate the
    first element first) with each vertex's later neighbours and parent,
    or None if g is not chordal.

    The order is the reverse of a maximum cardinality search, which finds
    one exactly when g is chordal (Tarjan & Yannakakis, SIAM J. Comput.
    1984).  It is checked by their parent rule as the search goes: the
    later neighbours of v in the order are those visited before it, and
    the earliest of them, p, is the last one visited.  The order is
    perfect iff every later neighbour of v other than p is adjacent to p,
    for every v.  (Take the vertices from the last: each later neighbour
    other than p is a later neighbour of p, and those form a clique
    already.)  That is one adjacency test per edge, where testing every
    pair of later neighbours costs their number squared, and a graph that
    is not chordal is rejected at the first vertex that breaks the rule.
    The search finds C(v) and the parent on the way, so they are kept."""
    adj = g.adj
    n = len(adj)
    weight = [0] * n
    when = [-1] * n  # visit number, -1 while unvisited
    later_of = [None] * n
    parent = [None] * n
    # max (weight, -position) first, so ties go by declaration order: the
    # key -weight * n + position orders as that pair and compares as one
    # int.  The heap holds the vertices of positive weight.  A vertex's
    # newest entry has its largest weight and comes out first, so an entry
    # is stale exactly when its vertex is visited.  With no live entry
    # every unvisited vertex has weight 0, and the first of them in
    # declaration order goes next
    heap = []
    first = 0  # no vertex before this position is unvisited
    order = []  # MCS visit order
    while len(order) < n:
        while heap:
            best = heapq.heappop(heap) % n
            if when[best] < 0:
                break
        else:
            while when[first] >= 0:
                first += 1
            best = first
        later = []
        for u in adj[best]:
            if when[u] >= 0:
                later.append(u)
            else:
                weight[u] += 1
                heapq.heappush(heap, u - weight[u] * n)
        if len(later) > 1:
            p = max(later, key=when.__getitem__)
            near = adj[p]
            if not all(u in near for u in later if u != p):
                return None
            parent[best] = p
        elif later:
            parent[best] = later[0]
        later_of[best] = later
        when[best] = len(order)
        order.append(best)
    order.reverse()
    return EliminationTree(order, later_of, parent)


def is_chordal(g: Graph):
    """A perfect elimination ordering by name (eliminate the first element
    first) if the graph is chordal, else None."""
    order = g.elimination_order
    return None if order is None else [g.vertices[v] for v in order]


# -- cliques -----------------------------------------------------------


def maximal_cliques(g: Graph):
    """Yield every maximal clique once, as a list in vertex order, by
    Bron-Kerbosch with Tomita pivoting (Tomita, Tanaka & Takahashi, Theoret.
    Comput. Sci. 2006): the pivot has the most neighbours among the
    candidates, ties to the first vertex, and branches go in vertex order,
    so the sequence is fixed by the vertex order.  Recursion depth is the
    clique number."""
    adj, names = g.adj, g.vertices

    def expand(clique, cand, done):
        if not cand and not done:
            yield [names[i] for i in sorted(clique)]
            return
        pivot = min(cand | done, key=lambda u: (-len(cand & adj[u]), u))
        for v in sorted(cand - adj[pivot]):
            yield from expand(clique + [v], cand & adj[v], done & adj[v])
            cand = cand - {v}
            done = done | {v}

    yield from expand([], set(range(len(names))), set())


# -- independent set oracle -------------------------------------------


def independent_sets(g: Graph, max_n: int = 20) -> list[frozenset]:
    """All independent sets of g, including the empty set.  This is the
    brute-force oracle behind every polynomial identity; guarded by size."""
    if len(g.vertices) > max_n:
        raise GraphError(
            f"graph has {len(g.vertices)} vertices, oracle guard is {max_n}"
        )
    sets = [frozenset()]
    for v in g.vertices:
        nb = g.neighbors(v)
        sets.extend([s | {v} for s in sets if not nb & s])
    return sets
