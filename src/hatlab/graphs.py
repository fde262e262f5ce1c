"""Simple undirected graphs with named vertices, plus the composition
operations (clique join, vertex gluing, substitution) on whole graphs.

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


class GraphError(ValueError):
    """Invalid graph construction or operation input."""


def _canon_edge(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True, eq=True)
class Graph:
    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        adj: dict[str, set[str]] = {v: set() for v in self.vertices}
        for (u, v) in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "_adj", adj)

    # -- basic queries -------------------------------------------------

    def __len__(self) -> int:
        return len(self.vertices)

    def neighbors(self, v: str) -> set[str]:
        return self._adj[v]

    def degree(self, v: str) -> int:
        return len(self._adj[v])

    def has_edge(self, u: str, v: str) -> bool:
        return _canon_edge(u, v) in self.edges

    def is_clique(self, S) -> bool:
        S = list(S)
        return all(self.has_edge(u, v) for u, v in itertools.combinations(S, 2))

    def is_complete(self) -> bool:
        return self.is_clique(self.vertices)

    def induced(self, keep) -> "Graph":
        keep = set(keep)
        verts = tuple(v for v in self.vertices if v in keep)
        edges = frozenset(e for e in self.edges if e[0] in keep and e[1] in keep)
        return Graph(verts, edges)


def make_graph(vertices, edges) -> Graph:
    """Validate and build a graph. Rejects duplicate vertices, self-loops
    and edges with undeclared endpoints."""
    verts = tuple(vertices)
    seen = set()
    for v in verts:
        if v in seen:
            raise GraphError(f"duplicate vertex {v!r}")
        seen.add(v)
    canon = set()
    for e in edges:
        u, v = e
        if u == v:
            raise GraphError(f"self-loop {u!r}")
        if u not in seen:
            raise GraphError(f"unknown endpoint {u!r}")
        if v not in seen:
            raise GraphError(f"unknown endpoint {v!r}")
        canon.add(_canon_edge(u, v))
    return Graph(verts, frozenset(canon))


def complete_graph(names) -> Graph:
    names = tuple(names)
    return make_graph(names, itertools.combinations(names, 2))


def path_graph(names) -> Graph:
    names = tuple(names)
    return make_graph(names, zip(names, names[1:]))


# -- composition operations -------------------------------------------


def _join(g1: Graph, S, g2: Graph, v: str) -> Graph:
    """g1 and g2 - v side by side, with every vertex of S joined to every
    former neighbor of v; "L/" and "R/" prefix the names."""
    verts = ["L/" + u for u in g1.vertices]
    verts += ["R/" + u for u in g2.vertices if u != v]
    edges = {_canon_edge("L/" + a, "L/" + b) for (a, b) in g1.edges}
    edges |= {
        _canon_edge("R/" + a, "R/" + b)
        for (a, b) in g2.edges
        if a != v and b != v
    }
    for s in S:
        for u in g2.neighbors(v):
            edges.add(_canon_edge("L/" + s, "R/" + u))
    return Graph(tuple(verts), frozenset(edges))


def clique_join(g1: Graph, S, g2: Graph, v: str) -> Graph:
    """Sum of graphs with respect to a clique S of g1 and a vertex v of g2:
    g2 loses v, and every former neighbor of v becomes adjacent to all of S.

    Result names: left vertices get an "L/" prefix, right ones "R/"."""
    S = list(dict.fromkeys(S))
    for s in S:
        if s not in g1._adj:
            raise GraphError(f"unknown vertex {s!r} in left operand")
    if not g1.is_clique(S):
        raise GraphError(f"S={S!r} is not a clique in the left operand")
    if v not in g2._adj:
        raise GraphError(f"unknown vertex {v!r} in right operand")
    return _join(g1, S, g2, v)


def vertex_glue(g1: Graph, a1: str, g2: Graph, a2: str) -> Graph:
    """Product gluing: identify a1 of g1 with a2 of g2 (the |S|=1 clique join)."""
    return clique_join(g1, [a1], g2, a2)


def substitute(inner: Graph, outer: Graph, at: str) -> Graph:
    """Replace vertex `at` of `outer` by the whole graph `inner`; every
    inner vertex becomes adjacent to every former neighbor of `at`."""
    if at not in outer._adj:
        raise GraphError(f"unknown vertex {at!r} in outer graph")
    return _join(inner, inner.vertices, outer, at)


# -- stats -------------------------------------------------------------


@dataclass(frozen=True)
class GraphStats:
    degrees: dict[str, int] = field(compare=False)
    max_degree: int = 0
    connected: bool = False


def _bfs_dist(g: Graph, src: str) -> dict[str, int]:
    dist = {src: 0}
    q = deque([src])
    while q:
        u = q.popleft()
        for w in g.neighbors(u):
            if w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def stats(g: Graph) -> GraphStats:
    degrees = {v: g.degree(v) for v in g.vertices}
    max_degree = max(degrees.values(), default=0)
    return GraphStats(degrees, max_degree, len(components(g)) <= 1)


def components(g: Graph) -> list[set[str]]:
    """Vertex sets of the connected components, in declaration order of
    their first vertices."""
    seen: set[str] = set()
    comps = []
    for v in g.vertices:
        if v not in seen:
            comp = set(_bfs_dist(g, v))
            seen |= comp
            comps.append(comp)
    return comps


def diameter(g: Graph) -> int:
    if len(components(g)) > 1:
        raise GraphError("diameter is undefined for a disconnected graph")
    return max((max(_bfs_dist(g, v).values()) for v in g.vertices), default=0)


# -- chordality --------------------------------------------------------


def is_chordal(g: Graph):
    """Maximum cardinality search.  Returns a perfect elimination ordering
    (eliminate first element first) if the graph is chordal, else None."""
    if not g.vertices:
        return []
    weight = {v: 0 for v in g.vertices}
    position = {v: i for i, v in enumerate(g.vertices)}
    # max (weight, -position) first, so ties go by declaration order; an
    # entry is stale once its vertex is visited or its weight has grown
    heap = [(0, i, v) for i, v in enumerate(g.vertices)]
    order = []  # MCS visit order
    visited = set()
    while heap:
        w, _, best = heapq.heappop(heap)
        if best in visited or -w != weight[best]:
            continue
        visited.add(best)
        order.append(best)
        for u in g.neighbors(best):
            if u not in visited:
                weight[u] += 1
                heapq.heappush(heap, (-weight[u], position[u], u))
    elim = list(reversed(order))
    # verify: each vertex's not-yet-eliminated neighborhood is a clique
    remaining = set(g.vertices)
    for v in elim:
        remaining.discard(v)
        nb = [u for u in g.neighbors(v) if u in remaining]
        if not g.is_clique(nb):
            return None
    return elim


# -- cliques -----------------------------------------------------------


def maximal_cliques(g: Graph):
    """Yield every maximal clique once, as a list in vertex order, by
    Bron-Kerbosch with Tomita pivoting (Tomita, Tanaka & Takahashi, Theoret.
    Comput. Sci. 2006): the pivot has the most neighbours among the
    candidates, ties to the first vertex, and branches go in vertex order,
    so the sequence is fixed by the vertex order.  Recursion depth is the
    clique number."""
    order = {v: i for i, v in enumerate(g.vertices)}

    def expand(clique, cand, done):
        if not cand and not done:
            yield sorted(clique, key=order.get)
            return
        pivot = min(
            cand | done, key=lambda u: (-len(cand & g.neighbors(u)), order[u])
        )
        for v in sorted(cand - g.neighbors(pivot), key=order.get):
            nb = g.neighbors(v)
            yield from expand(clique + [v], cand & nb, done & nb)
            cand = cand - {v}
            done = done | {v}

    yield from expand([], set(g.vertices), set())


# -- independent set oracle -------------------------------------------


def independent_sets(g: Graph, max_n: int = 20) -> list[frozenset]:
    """All independent sets of g, including the empty set.  This is the
    brute-force oracle behind every polynomial identity; guarded by size."""
    if len(g.vertices) > max_n:
        raise GraphError(
            f"graph has {len(g.vertices)} vertices, oracle guard is {max_n}"
        )
    sets = [frozenset()]
    verts = g.vertices
    for i, v in enumerate(verts):
        new = []
        for s in sets:
            if not (g.neighbors(v) & s):
                new.append(s | {v})
        sets.extend(new)
    return sets
