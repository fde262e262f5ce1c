import collections
import heapq
import itertools
import random

import pytest

from hatlab.graphs import (
    Graph,
    GraphError,
    clique_join,
    complete_graph,
    components,
    diameter,
    elimination_tree,
    independent_sets,
    is_chordal,
    make_graph,
    maximal_cliques,
    path_graph,
    stats,
    substitute,
    vertex_glue,
)


def test_make_graph_basic():
    g = make_graph(["a", "b"], {("a", "b")})
    assert g.vertices == ("a", "b")
    assert g.has_edge("a", "b")
    assert g.neighbors("a") == {"b"}


def test_make_graph_single_vertex():
    g = make_graph(["a"], set())
    assert g.vertices == ("a",)
    assert g.degree("a") == 0


def test_make_graph_rejects_self_loop():
    with pytest.raises(GraphError, match="self-loop"):
        make_graph(["a", "b"], {("a", "b"), ("a", "a")})


def test_make_graph_rejects_duplicate_vertex():
    with pytest.raises(GraphError):
        make_graph(["a", "a"], set())


def test_make_graph_rejects_unknown_endpoint():
    with pytest.raises(GraphError):
        make_graph(["a"], {("a", "b")})


# (edges, message): every fault is at edge 1, after a good edge 0
MAKE_GRAPH_EDGE_FAULTS = [
    ("ab", "edge 'ab' is not a pair of names"),
    (("a",), "edge ('a',) is not a pair of names"),
    (("a", "b", "c"), "edge ('a', 'b', 'c') is not a pair of names"),
    (None, "edge None is not a pair of names"),
    ({"a": 1, "b": 2}, "edge {'a': 1, 'b': 2} is not a pair of names"),
    (("a", ["b"]), "edge ('a', ['b']) is not a pair of names"),
    ((["a"], "b"), "edge (['a'], 'b') is not a pair of names"),
    (("z", "z"), "self-loop 'z'"),
    (("a", "a"), "self-loop 'a'"),
    (("z", "b"), "unknown endpoint 'z'"),
    (("a", "z"), "unknown endpoint 'z'"),
    (("y", "z"), "unknown endpoint 'y'"),
    (("a", 1), "edge ('a', 1) is not a pair of names"),
]


@pytest.mark.parametrize("edge, message", MAKE_GRAPH_EDGE_FAULTS)
def test_make_graph_names_the_edge_at_fault(edge, message):
    with pytest.raises(GraphError) as info:
        make_graph(["a", "b", "c"], [("a", "b"), edge])
    assert (str(info.value), info.value.where) == (message, ("edges", 1))


def test_make_graph_reports_a_pair_fault_before_the_other_faults():
    with pytest.raises(GraphError) as info:
        make_graph(["a", "b", "a"], [("a", "z"), ("b", "b"), ["a"]])
    assert (str(info.value), info.value.where) == ("edge ['a'] is not a pair of names", ("edges", 2))


def test_make_graph_takes_vertices_of_any_type_as_names():
    assert make_graph([1, 2], [(1, 2)]).has_edge(1, 2)
    with pytest.raises(GraphError) as info:
        make_graph([1, 2, 2], [(1, 2)])
    assert (str(info.value), info.value.where) == ("duplicate vertex 2", ("vertices", 2))


def test_make_graph_names_the_repeated_vertex():
    with pytest.raises(GraphError) as info:
        make_graph(["a", "b", "a"], [])
    assert (str(info.value), info.value.where) == ("duplicate vertex 'a'", ("vertices", 2))


def test_vertex_order_is_insertion_order():
    g = make_graph(["z", "m", "a"], set())
    assert g.vertices == ("z", "m", "a")


def test_complete_and_path_builders():
    k4 = complete_graph(["a", "b", "c", "d"])
    assert len(k4.edges) == 6
    p4 = path_graph(["a", "b", "c", "d"])
    assert len(p4.edges) == 3
    assert not p4.has_edge("a", "c")


def test_clique_join_namespaces_and_glues():
    k3 = complete_graph(["x", "y", "z"])
    k2 = complete_graph(["v", "w"])
    joined = clique_join(k3, ["x", "y"], k2, "v")
    # glued clique keeps left names; right loses v but keeps its neighbors
    assert set(joined.vertices) == {"L/x", "L/y", "L/z", "R/w"}
    assert joined.has_edge("L/x", "R/w")
    assert joined.has_edge("L/y", "R/w")
    assert not joined.has_edge("L/z", "R/w")


def test_clique_join_requires_clique():
    p3 = path_graph(["a", "b", "c"])
    k2 = complete_graph(["v", "w"])
    with pytest.raises(GraphError):
        clique_join(p3, ["a", "c"], k2, "v")


def test_vertex_glue_is_single_vertex_join():
    k2a = complete_graph(["a", "b"])
    k2b = complete_graph(["b", "c"])
    glued = vertex_glue(k2a, "b", k2b, "b")
    assert set(glued.vertices) == {"L/a", "L/b", "R/c"}
    assert glued.has_edge("L/a", "L/b")
    assert glued.has_edge("L/b", "R/c")
    assert not glued.has_edge("L/a", "R/c")


def test_substitute_complete_graph():
    inner = complete_graph(["i", "j"])
    outer = path_graph(["a", "b", "c"])
    sub = substitute(inner, outer, "b")
    # b is replaced by the 2-clique, both copies joined to a and c
    assert len(sub.vertices) == 4
    names = set(sub.vertices)
    inner_names = [n for n in names if n.endswith("i") or n.endswith("j")]
    assert len(inner_names) == 2
    for n in inner_names:
        for other in names - set(inner_names):
            assert sub.has_edge(n, other)


def test_stats_and_diameter():
    p4 = path_graph(["a", "b", "c", "d"])
    st = stats(p4)
    assert st.max_degree == 2
    assert st.connected
    assert diameter(p4) == 3


def test_diameter_requires_connected():
    g = make_graph(["a", "b"], set())
    with pytest.raises(GraphError):
        diameter(g)


def test_chordal_recognition():
    assert is_chordal(complete_graph(["a", "b", "c", "d"])) is not None
    assert is_chordal(path_graph(["a", "b", "c", "d"])) is not None
    c4 = make_graph(
        ["a", "b", "c", "d"],
        {("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")},
    )
    assert is_chordal(c4) is None


def test_chordal_order_is_perfect_elimination():
    g = complete_graph(["a", "b", "c"])
    order = is_chordal(g)
    assert sorted(order) == ["a", "b", "c"]


def _chordal_by_scan(g):
    """The former is_chordal: MCS choosing each vertex by a scan of the
    unvisited ones for the largest (weight, -position)."""
    weight = {v: 0 for v in g.vertices}
    position = {v: i for i, v in enumerate(g.vertices)}
    order = []
    visited = set()
    for _ in range(len(g.vertices)):
        best = max(
            (v for v in g.vertices if v not in visited),
            key=lambda v: (weight[v], -position[v]),
        )
        visited.add(best)
        order.append(best)
        for w in g.neighbors(best):
            if w not in visited:
                weight[w] += 1
    elim = list(reversed(order))
    remaining = set(g.vertices)
    for v in elim:
        remaining.discard(v)
        if not g.is_clique([u for u in g.neighbors(v) if u in remaining]):
            return None
    return elim


def _random_chordal(rng, n):
    """Each new vertex joins a subset of a known clique, so it is
    simplicial when added and the graph stays chordal."""
    cliques, edges = [[]], set()
    for v in range(n):
        base = rng.choice(cliques)
        nbrs = [u for u in base if rng.random() < 0.7]
        edges |= {(f"v{u}", f"v{v}") for u in nbrs}
        cliques.append(nbrs + [v])
    names = [f"v{v}" for v in range(n)]
    rng.shuffle(names)
    return make_graph(names, edges)


def _random_connected_chordal(rng, n):
    """Vertex v joins a vertex u < v and part of the clique that u joined,
    so the vertices in decreasing order are a perfect elimination order."""
    joined, edges = [[]], set()
    for v in range(1, n):
        u = rng.randrange(v)
        joined.append([u] + [w for w in joined[u] if rng.random() < 0.6])
        edges |= {(f"v{w}", f"v{v}") for w in joined[v]}
    names = [f"v{v}" for v in range(n)]
    return make_graph(rng.sample(names, n), edges)


def test_chordal_heap_matches_scan():
    # random graphs, random chordal graphs (often disconnected), connected
    # ones, and connected ones with an edge removed or added, which breaks
    # chordality about half the time: the heap search and the parent rule
    # against the scan and the pairwise check of _chordal_by_scan
    rng = random.Random(11)
    verdicts = collections.Counter()
    for i in range(400):
        n, kind = rng.randint(0, 25), i % 5
        if kind == 0:
            names = [f"v{v}" for v in range(n)]
            g = make_graph(names, {(u, v) for u in names for v in names
                                   if u < v and rng.random() < 0.3})
        elif kind == 1:
            g = _random_chordal(rng, n)
        else:
            g = _random_connected_chordal(rng, n)
            edges = set(g.edges)
            if kind == 3:
                # an edge of two triangles if there is one
                both = lambda e: len(g.neighbors(e[0]) & g.neighbors(e[1])) > 1
                pool = sorted(filter(both, edges)) or sorted(edges)
                edges -= set(rng.sample(pool, min(len(pool), 1)))
            elif kind == 4:
                pool = sorted(set(itertools.combinations(sorted(g.vertices), 2)) - edges)
                edges |= set(rng.sample(pool, min(len(pool), 1)))
            g = make_graph(g.vertices, edges)
        expected = _chordal_by_scan(g)
        assert is_chordal(g) == expected
        tree = elimination_tree(g)
        assert expected == (None if tree is None else [g.vertices[v] for v in tree.order])
        verdicts[kind, expected is None] += 1
    assert min(verdicts[kind, False] for kind in range(5)) >= 15
    assert min(verdicts[kind, True] for kind in (0, 3, 4)) >= 15


def test_kept_elimination_tree_matches_its_definition():
    # C(v) is the neighbours of v after it in the order, and the parent
    # the first of them; the graph keeps the tree the search found
    from hatlab import gallery
    from hatlab.algebra import eval_expr

    rng = random.Random(31)
    graphs = [_random_chordal(rng, rng.randint(0, 25)) for _ in range(40)]
    graphs += [_random_connected_chordal(rng, rng.randint(1, 25)) for _ in range(40)]
    graphs += [gallery.build_chain_graph(n, l) for n, l in ((2, 4), (3, 5), (4, 6))]
    graphs.append(eval_expr(gallery.build_scary(3)).game.graph)
    for g in graphs:
        tree = g.elimination_tree
        assert tree is not None and tree is g.elimination_tree
        assert tree == elimination_tree(g) and g.elimination_order is tree.order
        assert sorted(tree.order) == list(range(len(g)))
        rank = {v: i for i, v in enumerate(tree.order)}
        for v in tree.order:
            later = {u for u in g.adj[v] if rank[u] > rank[v]}
            assert set(tree.later[v]) == later and len(tree.later[v]) == len(later)
            want = min(later, key=rank.__getitem__) if later else None
            assert tree.parent[v] == want
    c4 = make_graph("abcd", {("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")})
    assert c4.elimination_tree is None and c4.elimination_order is None
    assert is_chordal(c4) is None


def test_independent_sets_p4():
    p4 = path_graph(["a", "b", "c", "d"])
    sets = independent_sets(p4)
    # 1 empty + 4 singletons + {a,c},{a,d},{b,d} = 8
    assert len(sets) == 8


def test_maximal_cliques_bowtie_in_vertex_order():
    edges = {("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e"), ("c", "e")}
    g = make_graph(["e", "a", "b", "c", "d"], edges)
    assert list(maximal_cliques(g)) == [["e", "c", "d"], ["a", "b", "c"]]


def test_maximal_cliques_match_brute_force():
    rng = random.Random(20261020)
    for _ in range(100):
        names = [f"v{i}" for i in range(rng.randint(0, 7))]
        g = make_graph(
            names, {e for e in itertools.combinations(names, 2) if rng.random() < 0.5}
        )
        cliques = [
            frozenset(s)
            for k in range(len(names) + 1)
            for s in itertools.combinations(names, k)
            if g.is_clique(s)
        ]
        maximal = {c for c in cliques if not any(c < d for d in cliques)}
        found = list(maximal_cliques(g))
        assert len(found) == len(maximal)
        assert {frozenset(c) for c in found} == maximal
        index = {v: i for i, v in enumerate(names)}
        assert all(c == sorted(c, key=index.get) for c in found)


# -- the integer core against name-keyed references -------------------
#
# Graph runs every algorithm on positions.  The references below are
# written on names alone: a dict from each name to the set of its
# neighbours' names, built from the edge list the graph was made from,
# with the vertex order as the only tie-break.


def _named_adj(names, edges):
    adj = {v: set() for v in names}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def _named_is_chordal(names, adj):
    """Maximum cardinality search keyed by name, ties by vertex order."""
    position = {v: i for i, v in enumerate(names)}
    weight = {v: 0 for v in names}
    heap = [(0, i, v) for i, v in enumerate(names)]
    order, visited = [], set()
    while heap:
        w, _, best = heapq.heappop(heap)
        if best in visited or -w != weight[best]:
            continue
        visited.add(best)
        order.append(best)
        for u in adj[best]:
            if u not in visited:
                weight[u] += 1
                heapq.heappush(heap, (-weight[u], position[u], u))
    elim = order[::-1]
    remaining = set(names)
    for v in elim:
        remaining.discard(v)
        nb = [u for u in adj[v] if u in remaining]
        if any(b not in adj[a] for a, b in itertools.combinations(nb, 2)):
            return None
    return elim


def _named_maximal_cliques(names, adj):
    """Bron-Kerbosch with Tomita pivoting keyed by name."""
    order = {v: i for i, v in enumerate(names)}
    out = []

    def expand(clique, cand, done):
        if not cand and not done:
            out.append(sorted(clique, key=order.get))
            return
        pivot = min(cand | done, key=lambda u: (-len(cand & adj[u]), order[u]))
        for v in sorted(cand - adj[pivot], key=order.get):
            expand(clique + [v], cand & adj[v], done & adj[v])
            cand = cand - {v}
            done = done | {v}

    expand([], set(names), set())
    return out


def _named_dist(adj, src):
    dist, todo = {src: 0}, [src]
    for u in todo:
        for w in adj[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                todo.append(w)
    return dist


def _named_components(names, adj):
    comps, seen = [], set()
    for v in names:
        if v not in seen:
            comps.append(set(_named_dist(adj, v)))
            seen |= comps[-1]
    return comps


def _check_against_names(g, names, edges, rng):
    adj = _named_adj(names, edges)
    canon = {tuple(sorted(e)) for e in edges}
    assert g.vertices == tuple(names)
    assert g.edges == canon
    for v in names:
        assert g.neighbors(v) == adj[v]
        assert g.degree(v) == len(adj[v])
    pairs = list(itertools.product(names, repeat=2))
    for u, v in rng.sample(pairs, min(len(pairs), 400)):
        assert g.has_edge(u, v) == (tuple(sorted((u, v))) in canon)
    assert not any(g.has_edge(v, "absent") or g.has_edge("absent", v) for v in names)
    assert is_chordal(g) == _named_is_chordal(names, adj)
    assert list(maximal_cliques(g)) == _named_maximal_cliques(names, adj)
    comps = _named_components(names, adj)
    assert components(g) == comps
    if len(comps) == 1 and len(names) <= 100:
        assert diameter(g) == max(max(_named_dist(adj, v).values()) for v in names)
    keep = {v for v in names if rng.random() < 0.6}
    sub = g.induced(keep)
    sub_names = [v for v in names if v in keep]
    sub_edges = {e for e in canon if e[0] in keep and e[1] in keep}
    assert sub.vertices == tuple(sub_names)
    assert sub.edges == sub_edges
    assert sub == make_graph(sub_names, sub_edges)
    # the trusted constructor on positions gives the validated graph
    index = {v: i for i, v in enumerate(names)}
    trusted = Graph(tuple(names), [{index[u] for u in adj[v]} for v in names])
    assert trusted == g and hash(trusted) == hash(g)
    assert trusted.index == index


def _random_named_graph(rng):
    n = rng.randint(0, 14)
    names = [rng.choice(["v", "L/v", "R/x#"]) + str(i) for i in range(n)]
    p = rng.choice([0.15, 0.3, 0.6])
    edges = [(u, v) for u, v in itertools.combinations(names, 2) if rng.random() < p]
    if rng.random() < 0.5:
        rng.shuffle(names)
    return names, [e[::-1] if rng.random() < 0.5 else e for e in edges]


def test_int_core_matches_name_keyed_references_on_random_graphs():
    rng = random.Random(20261019)
    for _ in range(300):
        names, edges = _random_named_graph(rng)
        _check_against_names(make_graph(names, edges), names, edges, rng)
    for _ in range(100):
        g = _random_chordal(rng, rng.randint(1, 20))
        names = list(g.vertices)
        rng.shuffle(names)
        edges = list(g.edges)
        _check_against_names(make_graph(names, edges), names, edges, rng)


def _gallery_graphs():
    from hatlab import gallery
    from hatlab.algebra import eval_expr

    exprs = [
        gallery.build_delta6_hg8(),
        gallery.build_scary(3),
        gallery.build_scary(4),
        gallery.build_delta_plus_k(1).expr,
        gallery.build_chain(3, 5).expr,
        gallery.build_chain(3, 5).muhat_expr,
    ]
    graphs = [eval_expr(e).game.graph for e in exprs]
    graphs += [
        gallery.build_chain_graph(4, l, variant)
        for l in (3, 5)
        for variant in gallery.VARIANTS
        if (l, variant) != (3, "minus")
    ]
    graphs += [gallery.build_extension_example(k, 4, 2).graph for k in (1, 2, 3)]
    return graphs


def test_int_core_matches_name_keyed_references_on_gallery_graphs():
    rng = random.Random(7)
    for g in _gallery_graphs():
        names = list(g.vertices)
        edges = sorted(g.edges)
        _check_against_names(g, names, edges, rng)
        rng.shuffle(names)
        _check_against_names(make_graph(names, edges), names, edges, rng)


def test_graph_equality_and_hash_are_vertex_order_and_edge_set():
    a = make_graph(["x", "y", "z"], [("x", "y"), ("z", "y")])
    b = make_graph(["x", "y", "z"], [("y", "z"), ("y", "x"), ("x", "y")])
    assert a == b and hash(a) == hash(b)
    assert a != make_graph(["y", "x", "z"], [("x", "y"), ("z", "y")])
    assert a != make_graph(["x", "y", "z"], [("x", "y")])
