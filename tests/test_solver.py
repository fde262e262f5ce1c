import collections
import dataclasses
import itertools
import logging
import math
import random
import re
from array import array
from heapq import heapify, heappop, heappush

import pytest

from hatlab import solver
from hatlab.gallery import build_chain
from hatlab.games import make_game, uniform_game
from hatlab.graphs import complete_graph, make_graph, path_graph
from hatlab.solver import (
    COLORING_GUARD,
    GameVerdict,
    GuardExceeded,
    LOSING,
    SolverError,
    UNKNOWN,
    WINNING,
    _at_most,
    _clique_strategy,
    _dpll,
    _guarded_configs,
    _heavy_clique,
    _losing_route,
    _precedence_vertices,
    _value_precedence,
    decide_game,
    encode,
    extract_strategy,
    hg_search,
    search_game,
    verify_strategy,
)
from hatlab.verify import _clique_criterion_games, _corpus_graphs
from route_checks import assert_learned_count, check_routes, corpus_games


def _visible(game):
    """Each vertex's visible neighbours by name, in vertex order: the
    tables' configurations range over their colors in this order."""
    names = game.vertices
    return {
        v: tuple(names[j] for j in sorted(nb)) for v, nb in zip(names, game.graph.adj)
    }


def test_k1_single_color_wins():
    verdict = decide_game(uniform_game(make_graph(["a"], set()), 1))
    assert verdict.status == WINNING


def test_k1_two_colors_loses():
    verdict = decide_game(uniform_game(make_graph(["a"], set()), 2))
    assert verdict.status == LOSING


def test_k2_two_colors_wins_with_strategy():
    game = uniform_game(complete_graph(["a", "b"]), 2)
    verdict = decide_game(game)
    assert verdict.status == WINNING
    assert verify_strategy(game, verdict.strategy) is None


def test_k2_asymmetric_2_3_loses():
    game = make_game(complete_graph(["a", "b"]), {"a": 2, "b": 3})
    assert decide_game(game).status == LOSING


def test_h2_path_2_4_2_wins():
    game = make_game(path_graph(["a", "b", "c"]), {"a": 2, "b": 4, "c": 2})
    verdict = decide_game(game)
    assert verdict.status == WINNING
    assert verify_strategy(game, verdict.strategy) is None


def test_p4_uniform_2_wins():
    game = uniform_game(path_graph(["a", "b", "c", "d"]), 2)
    assert decide_game(game).status == WINNING


def test_multiguess_k2_3_with_2_guesses_wins():
    game = make_game(
        complete_graph(["a", "b"]), {"a": 3, "b": 3}, {"a": 2, "b": 1}
    )
    # sum g/h = 2/3 + 1/3 = 1: winning by the clique criterion
    assert decide_game(game).status == WINNING


def test_verify_strategy_counterexample():
    game = uniform_game(complete_graph(["a", "b"]), 2)
    # both copy the neighbor's color: both miss on (0, 1)
    copy = {
        "a": {(0,): (0,), (1,): (1,)},
        "b": {(0,): (0,), (1,): (1,)},
    }
    bad = verify_strategy(game, copy)
    assert bad == {"a": 0, "b": 1}


def test_verify_strategy_rejects_partial():
    game = uniform_game(complete_graph(["a", "b"]), 2)
    with pytest.raises(SolverError, match="partial"):
        verify_strategy(game, {"a": {(0,): (0,), (1,): (1,)}})


def test_verify_strategy_rejects_too_many_guesses():
    game = uniform_game(complete_graph(["a", "b"]), 2)
    fat = {
        "a": {(0,): (0, 1), (1,): (0, 1)},
        "b": {(0,): (0,), (1,): (1,)},
    }
    with pytest.raises(SolverError, match="exceeds"):
        verify_strategy(game, fat)


def test_encode_counts():
    game = uniform_game(complete_graph(["a", "b"]), 2)
    cnf = encode(game)
    # 2 vertices x 2 visible configs x 2 colors
    assert cnf.num_vars == 8
    assert cnf.coloring_clauses == 4


def test_guard_exceeded_on_huge_game():
    game = uniform_game(complete_graph([f"v{i}" for i in range(10)]), 10)
    with pytest.raises(GuardExceeded):
        encode(game)


def test_timeout_yields_unknown():
    game = make_game(path_graph(["a", "b", "c", "d"]), {v: 3 for v in "abcd"})
    verdict = decide_game(game, timeout_ms=1)
    assert verdict.status in (UNKNOWN, LOSING)


def test_timeout_keeps_search_counts():
    verdict = search_game(uniform_game(complete_graph(list("abcd")), 5), timeout_ms=200)
    assert verdict.status == UNKNOWN
    assert verdict.decisions > 0
    assert verdict.propagations > 0
    assert verdict.learned == verdict.conflicts


# The search is deterministic; these pin its exact path.  A change to
# the search (branching, learning, restarts, encoding) updates the pins,
# with a note in CHANGES.md saying why the counts moved.
_C4_EDGES = {("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")}
_PINNED = {
    "K3 (4,4,4)": (
        lambda: uniform_game(complete_graph(list("abc")), 4),
        (LOSING, 1449, 1198, 4),
    ),
    "K3 (3,3,4)": (
        lambda: make_game(complete_graph(list("abc")), {"a": 3, "b": 3, "c": 4}),
        (LOSING, 470, 332, 2),
    ),
    "K4 h=4": (
        lambda: uniform_game(complete_graph(list("abcd")), 4),
        (WINNING, 8994, 1688, 5),
    ),
    "C4 h=3": (
        lambda: uniform_game(make_graph(list("abcd"), _C4_EDGES), 3),
        (WINNING, 123, 33, 0),
    ),
    "P5 h=3": (
        lambda: uniform_game(path_graph(list("abcde")), 3),
        (LOSING, 123, 38, 0),
    ),
    "H2^4 h=4": (
        lambda: uniform_game(build_chain(2, 4).graph, 4),
        (WINNING, 2702, 287, 2),
    ),
    "K3 (3,4,4)": (
        lambda: make_game(complete_graph(list("abc")), {"a": 3, "b": 4, "c": 4}),
        (LOSING, 371, 266, 2),
    ),
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_search_counts_are_pinned(name, search):
    make, expected = _PINNED[name]
    game = make()
    verdict = search(game)
    got = (verdict.status, verdict.decisions, verdict.conflicts, verdict.restarts)
    assert got == expected
    assert_learned_count(verdict)
    assert verdict.propagations > 0
    if verdict.status == WINNING:
        assert verify_strategy(game, verdict.strategy) is None


# Propagations of the _PINNED searches, pinned apart from _PINNED so that
# a change that keeps decisions and conflicts but moves the propagation
# order still shows.
_PINNED_PROPAGATIONS = {
    "K3 (4,4,4)": 50932,
    "K3 (3,3,4)": 12344,
    "K4 h=4": 96642,
    "C4 h=3": 783,
    "P5 h=3": 870,
    "H2^4 h=4": 21365,
    "K3 (3,4,4)": 11688,
}


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_search_propagations_are_pinned(name, search):
    assert search(_PINNED[name][0]()).propagations == _PINNED_PROPAGATIONS[name]


def test_restarts_log_progress_at_debug_only(caplog):
    game = _PINNED["K3 (4,4,4)"][0]()
    quiet = search_game(game)
    assert not caplog.records  # the default level logs nothing
    with caplog.at_level(logging.DEBUG, logger="hatlab.solver"):
        verdict = search_game(game)
    assert verdict.restarts == 4
    assert verdict == quiet  # logging changes no count
    records = [r for r in caplog.records if r.name == "hatlab.solver"]
    assert len(records) == len(caplog.records) == 4
    assert all(r.levelno == logging.DEBUG for r in records)
    assert records[0].getMessage().startswith("restart 1: 100 conflicts, ")
    assert records[-1].getMessage().startswith("restart 4: ")
    # the learned literals kept and removed so far, both growing
    pattern = re.compile(r" (\d+) literals kept, (\d+) removed, ")
    kept, removed = zip(
        *(map(int, pattern.search(r.getMessage()).groups()) for r in records)
    )
    assert 0 < kept[0] < kept[-1] and 0 < removed[0] < removed[-1]


def test_hg_search_k3():
    assert hg_search(complete_graph(["a", "b", "c"]), 5) == 3


def test_hg_search_p4():
    assert hg_search(path_graph(["a", "b", "c", "d"]), 3) == 2


def test_hg_search_settles_isolated_vertices_by_region():
    # 25 isolated vertices at h=2 have 2^25 colorings, beyond the
    # enumeration guard, but r = 1/2 lies in Shearer's region
    big = make_graph([f"v{i}" for i in range(25)], set())
    assert hg_search(big, 5) == 1


def test_hg_search_reports_bracket_on_guard():
    # a perfect matching on 26 vertices: h=1 is trivially winning; at h=2,
    # Z = 0 on every edge, so the search must run, and 2^26 colorings trip
    # the enumeration guard
    names = [f"v{i}" for i in range(26)]
    matching = make_graph(names, set(zip(names[::2], names[1::2])))
    assert hg_search(matching, 5) == (1, 2)


def test_hg_search_reports_bracket_on_timeout():
    # C4: h = 1 and h = 2 win by the clique route; h = 3 has no heavy
    # clique, no leaf and r outside Shearer's region, so it reaches the
    # search, whose deadline has passed at the first decision
    assert hg_search(make_graph(list("abcd"), _C4_EDGES), 4, timeout_ms=0) == (2, 3)


@pytest.mark.parametrize("order", ["abcde", "cebda"])
def test_p5_h3_loses(order):
    # HG of a tree is 2
    edges = {("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")}
    graph = make_graph(list(order), edges)
    verdict = decide_game(uniform_game(graph, 3))
    assert (verdict.status, verdict.route) == (LOSING, "pendant")


@pytest.mark.parametrize("order", ["abcd", "acbd"])
def test_c4_h3_wins(order):
    edges = {("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")}
    graph = make_graph(list(order), edges)
    game = uniform_game(graph, 3)
    verdict = decide_game(game)
    assert verdict.status == WINNING
    assert verify_strategy(game, verdict.strategy) is None


# -- symmetry breaking ----------------------------------------------------


def _random_game(rng):
    names = [f"v{i}" for i in range(rng.randint(1, 5))]
    edges = {e for e in itertools.combinations(names, 2) if rng.random() < 0.5}
    h = {v: rng.randint(1, 4) for v in names}
    g = {v: rng.randint(1, 2) for v in names}
    return make_game(make_graph(names, edges), h, g)


def test_symmetry_clauses_encoding():
    game = uniform_game(path_graph(["a", "b", "c"]), 3)
    cnf = encode(game)
    # 45 guess variables; exactly one guess on 3 + 9 + 3 configurations;
    # on each of the tables of a and c (3 configurations): 2 units for
    # the first row, 2 precedence clauses per later row, and 2 state
    # variables with 3 clauses each for the middle row
    assert _precedence_vertices(game) == [0, 2]  # a and c
    assert cnf.num_vars == 45 + 2 * 2
    assert cnf.symmetry_clauses == 15 + 2 * (2 + 2 * 2 + 2 * 3)
    plain = len(cnf.clauses) - cnf.symmetry_clauses
    assert cnf.clauses[plain] == [1, 2, 3]  # a's first row, at least one


def test_precedence_goes_to_the_largest_color_set():
    for hs in itertools.permutations((3, 3, 4)):
        game = make_game(complete_graph(list("abc")), dict(zip("abc", hs)))
        assert _precedence_vertices(game) == [hs.index(4)]


def test_symmetry_clauses_keep_verdict_on_corpus(search):
    counts = check_routes(corpus_games(), ("sat", "plain"), search)
    assert counts["tables"] > 30


# -- the clique route ----------------------------------------------------


def _assert_clique_route(game):
    """The clique verdict of `game`: winning, with no search, and a
    strategy that wins and stays within g(v) guesses on every entry."""
    verdict = decide_game(game)
    assert (verdict.status, verdict.route) == (WINNING, "clique"), game
    assert verdict.num_clauses == verdict.decisions == verdict.conflicts == 0
    assert verify_strategy(game, verdict.strategy) is None
    for v, table in verdict.strategy.items():
        assert all(1 <= len(guess) <= game.g[v] for guess in table.values())
    return verdict


def test_clique_route_agrees_with_search_on_corpus(search):
    counts = check_routes(corpus_games(), ("clique", "losing"), search)
    assert counts["clique"] > 2 * len(_corpus_graphs())


# -- the clique strategy on edge cases ----------------------------------


def test_clique_route_two_guesses():
    # 2/3 + 1/3 = 1, with a's interval two steps long
    game = make_game(complete_graph(["a", "b"]), {"a": 3, "b": 3}, {"a": 2})
    verdict = _assert_clique_route(game)
    assert max(len(guess) for guess in verdict.strategy["a"].values()) == 2


def test_clique_route_cuts_intervals_at_lcm():
    # 2/3 + 2/3 = 4/3 > 1: b's interval is cut from [2, 4) to [2, 3)
    game = make_game(complete_graph(["a", "b"]), {"a": 3, "b": 3}, {"a": 2, "b": 2})
    verdict = _assert_clique_route(game)
    assert "sum g/h = 4/3" in verdict.reason


@pytest.mark.parametrize("order", ["abcd", "dcab"])
def test_clique_route_mixed_hatness(order):
    # lcm(2, 3, 4, 5) = 60 and 1/2 + 1/3 + 1/4 + 1/5 = 77/60
    hats = dict(zip("abcd", (2, 3, 4, 5)))
    game = make_game(complete_graph(list(order)), hats)
    verdict = _assert_clique_route(game)
    assert verdict.reason == f"clique ({', '.join(order)}) has sum g/h = 77/60"


def test_clique_route_single_color_vertex_in_larger_game():
    graph = path_graph(["a", "b", "c", "d"])
    game = make_game(graph, {"a": 3, "b": 3, "c": 1, "d": 3})
    verdict = _assert_clique_route(game)
    assert verdict.reason == "clique (c) has sum g/h = 1"


def test_clique_route_heavy_triangle_with_pendant_path():
    edges = {("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e")}
    game = uniform_game(make_graph(list("deabc"), edges), 3)
    verdict = _assert_clique_route(game)
    assert verdict.reason == "clique (a, b, c) has sum g/h = 1"
    # the sages off the triangle guess 0 whatever they see
    assert set(verdict.strategy["d"].values()) == {(0,)}


def test_clique_route_disconnected_game():
    edges = {("a", "b"), ("c", "d")}
    game = make_game(make_graph(list("abcd"), edges), {"a": 3, "b": 3, "c": 2, "d": 2})
    verdict = _assert_clique_route(game)
    assert verdict.reason == "clique (c, d) has sum g/h = 1"


_C4 = make_graph(list("abcd"), _C4_EDGES)


@pytest.mark.parametrize(
    "game, status",
    [
        (uniform_game(_C4, 3), WINNING),
        (make_game(_C4, dict(zip("abcd", (3, 3, 3, 4)))), LOSING),
    ],
)
def test_clique_route_silent_below_weight_one(game, status):
    # every edge weighs at most 2/3, C4 has no leaf and r lies outside
    # Shearer's region, so the search decides
    verdict = decide_game(game)
    assert (verdict.status, verdict.route) == (status, "sat")
    assert verdict.decisions > 0


@pytest.mark.parametrize(
    "game",
    [
        uniform_game(path_graph(list("abcd")), 3),
        uniform_game(complete_graph(list("abcd")), 5),
        uniform_game(_C4, 3),
    ],
    ids=["p4-pendant", "k4-region", "c4-sat"],
)
def test_losing_check_runs_once_per_game(game, monkeypatch):
    calls = []
    check = solver.losing_by_Z_positive

    def counted(checked):
        calls.append(checked)
        return check(checked)

    monkeypatch.setattr(solver, "losing_by_Z_positive", counted)
    decide_game(game)
    assert len(calls) == 1


def test_region_route_settles_k4_h5():
    # the known-hard pigeonhole instance: sum g/h = 4/5 < 1
    verdict = decide_game(uniform_game(complete_graph(list("abcd")), 5))
    assert (verdict.status, verdict.route) == (LOSING, "region")
    assert "Z(r) = 1/5" in verdict.reason


def test_guard_message_is_short_on_a_huge_cycle():
    # C_2000 at h = 3 has 3^2000 colorings, a 955-digit count
    names = [f"c{i}" for i in range(2000)]
    cycle = make_graph(names, {(names[i - 1], names[i]) for i in range(2000)})
    with pytest.raises(GuardExceeded) as info:
        decide_game(uniform_game(cycle, 3))
    assert str(info.value) == f"more than {COLORING_GUARD} colorings exceed the guard"
    assert len(str(info.value)) < 200


def test_verify_strategy_refuses_a_game_beyond_the_guards(monkeypatch):
    # P5 at h = 3 has 243 colorings, above the lowered guard: the tables
    # are small, but the walk over every coloring must not start
    monkeypatch.setattr(solver, "COLORING_GUARD", 100)
    game = uniform_game(path_graph([f"p{i}" for i in range(5)]), 3)
    strategy = {
        v: dict.fromkeys(itertools.product(range(3), repeat=len(nb)), (0,))
        for v, nb in zip(game.vertices, game.graph.adj)
    }
    with pytest.raises(GuardExceeded, match="more than 100 colorings"):
        verify_strategy(game, strategy)


# -- the clique route before the losing check ----------------------------


def _reference_clique_strategy(game, clique, visible):
    """The interval strategy built row by row: one weighted sum and one
    scan of the colors per configuration."""
    lcm = math.lcm(*(game.h[v] for v in clique))
    step = {v: lcm // game.h[v] for v in clique}
    strategy = {}
    lo = 0
    for v in game.vertices:
        configs = itertools.product(*(range(game.h[u]) for u in visible[v]))
        if v not in step:
            strategy[v] = dict.fromkeys(configs, (0,))
            continue
        hi = min(lo + game.g[v] * step[v], lcm)
        weights = [step.get(u, 0) for u in visible[v]]
        table = {}
        for sigma in configs:
            t = sum(c * w for c, w in zip(sigma, weights))
            table[sigma] = tuple(
                c for c in range(game.h[v]) if lo <= (t + c * step[v]) % lcm < hi
            ) or (0,)
        strategy[v] = table
        lo = hi
    return strategy


def _assert_tables_match_reference(game):
    """True when the game has a heavy clique, whose tables then equal the
    row-by-row reference's, configuration for configuration."""
    found = _heavy_clique(game)
    if found is None:
        return False
    got = _clique_strategy(game, found[0])
    want = _reference_clique_strategy(game, found[0], _visible(game))
    assert got == want, game
    for v in game.vertices:
        assert list(got[v]) == list(want[v]), (game, v)
    return True


def test_clique_tables_match_the_row_by_row_reference():
    rng = random.Random(20261020)
    heavy = 0
    for _ in range(2500):
        names = [f"v{i}" for i in range(rng.randint(1, 4))]
        h = {v: rng.randint(1, 6) for v in names}
        g = {v: rng.randint(1, h[v]) for v in names}
        heavy += _assert_tables_match_reference(
            make_game(complete_graph(names), h, g)
        )
    assert heavy > 1000
    edges = {("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e")}
    edge_cases = [
        make_game(complete_graph(["a", "b"]), {"a": 3, "b": 3}, {"a": 2}),
        make_game(complete_graph(["a", "b"]), {"a": 3, "b": 3}, {"a": 2, "b": 2}),
        make_game(complete_graph(list("abcd")), dict(zip("abcd", (2, 3, 4, 5)))),
        make_game(complete_graph(list("dcab")), dict(zip("abcd", (2, 3, 4, 5)))),
        make_game(path_graph(list("abcd")), {"a": 3, "b": 3, "c": 1, "d": 3}),
        uniform_game(make_graph(list("deabc"), edges), 3),
        make_game(make_graph(list("abcd"), {("a", "b"), ("c", "d")}),
                  {"a": 3, "b": 3, "c": 2, "d": 2}),
    ]
    assert all(map(_assert_tables_match_reference, edge_cases))
    for game in _clique_criterion_games():
        _assert_tables_match_reference(game)


def _losing_check_first(game):
    """decide_game with the losing check before the clique route; the
    search is left to the caller's stub."""
    verdict = _losing_route(game)
    if verdict is not None:
        return verdict
    _guarded_configs(game)
    found = _heavy_clique(game)
    if found is None:
        return solver.search_game(game)
    clique, total = found
    strategy = _reference_clique_strategy(game, clique, _visible(game))
    assert verify_strategy(game, strategy) is None
    reason = f"clique ({', '.join(clique)}) has sum g/h = {total}"
    return GameVerdict(WINNING, strategy=strategy, route="clique", reason=reason)


def test_clique_first_gives_the_verdicts_of_the_losing_check_first(monkeypatch):
    # the sat route is search_game's own verdict on either side, so a stub
    # stands in for it and only the order of the other routes is compared
    stub = GameVerdict(UNKNOWN, reason="search")
    monkeypatch.setattr(solver, "search_game", lambda game, timeout_ms=None: stub)
    rng = random.Random(20261021)
    routes = collections.Counter()
    for i in range(500):
        game = _random_game(rng)
        if i % 2:  # one guess each: fewer heavy cliques, more searches
            game = make_game(game.graph, dict(game.h))
        got, want = decide_game(game), _losing_check_first(game)
        assert (got.status, got.route, got.reason, got.strategy) == (
            want.status, want.route, want.reason, want.strategy
        ), game
        routes[got.route] += 1
    assert len(routes) == 4 and min(routes.values()) >= 5, routes


@pytest.mark.parametrize(
    "game",
    [
        uniform_game(complete_graph(list("abc")), 3),
        make_game(path_graph(list("abcd")), {"a": 3, "b": 3, "c": 1, "d": 3}),
    ],
    ids=["k3", "single-color-in-path"],
)
def test_clique_route_skips_the_losing_check(game, monkeypatch):
    def refuse(checked):
        raise AssertionError("the losing check ran")

    monkeypatch.setattr(solver, "losing_by_Z_positive", refuse)
    assert decide_game(game).route == "clique"


# -- the pendant route -------------------------------------------------


def _assert_pendant_route(game):
    """The pendant verdict of `game`: losing, with no search."""
    verdict = decide_game(game)
    assert (verdict.status, verdict.route) == (LOSING, "pendant"), game
    assert verdict.num_clauses == verdict.decisions == verdict.conflicts == 0
    return verdict


def test_pendant_route_settles_trees_beyond_the_guard():
    # 3^40 and 3^31 colorings: the search could not even encode them
    path = path_graph([f"p{i}" for i in range(40)])
    leaves = [f"s{i}" for i in range(30)]
    star = make_graph(["hub", *leaves], {("hub", s) for s in leaves})
    for graph in (path, star):
        game = uniform_game(graph, 3)
        with pytest.raises(GuardExceeded):
            encode(game)
        verdict = _assert_pendant_route(game)
        assert verdict.reason.startswith(f"peeled {len(graph) - 1} leaves (")
        assert verdict.reason.endswith("Z(r) = 1/2")


def test_hg_search_p10():
    # h = 2 wins on an edge; h = 3 peels down to one vertex of hatness 2.
    # Neither needs the search, whose budget only makes a miss fail fast
    path = path_graph([f"p{i}" for i in range(10)])
    assert hg_search(path, 4, timeout_ms=2000) == 2


# -- references: the encoder's coloring loop and the strategy checker ---
#
# `encode` builds the coloring clauses by arithmetic and `verify_strategy`
# reads what each sage sees by position.  These are the loops they
# replaced, which look every literal and table up by name; the tests below
# require identical results.


def _reference_encode(game):
    """(var_of, num_vars, clauses, coloring clauses, symmetry clauses),
    with var_of the (vertex, sigma, color) -> variable table, which the
    encoder does not keep."""
    visible = _visible(game)
    var_of = {}
    rows = {}
    fresh = 1
    for v in game.vertices:
        rows[v] = []
        for sigma in itertools.product(*(range(game.h[u]) for u in visible[v])):
            row = list(range(fresh, fresh + game.h[v]))
            fresh += game.h[v]
            rows[v].append(row)
            for c, y in enumerate(row):
                var_of[(v, sigma, c)] = y
    clauses = []
    names = game.vertices
    for phi in itertools.product(*(range(game.h[v]) for v in names)):
        col = dict(zip(names, phi))
        clauses.append(
            [var_of[(v, tuple(col[u] for u in visible[v]), col[v])] for v in names]
        )
    coloring_clauses = len(clauses)
    for v in names:
        for row in rows[v]:
            extra, fresh = _at_most(game.g[v], row, fresh)
            clauses.extend(extra)
    symmetry = [list(row) for v in names if game.g[v] == 1 for row in rows[v]]
    for i in _precedence_vertices(game):
        extra, fresh = _value_precedence(rows[names[i]], fresh)
        symmetry.extend(extra)
    clauses.extend(symmetry)
    return var_of, fresh - 1, clauses, coloring_clauses, len(symmetry)


def _reference_extract(game, var_of, model):
    """The strategy read off a model by lookups in the (vertex, sigma,
    color) table, where `extract_strategy` computes each variable."""
    visible = _visible(game)
    strategy = {}
    for v in game.vertices:
        table = {}
        for sigma in itertools.product(*(range(game.h[u]) for u in visible[v])):
            guesses = tuple(
                c for c in range(game.h[v]) if model[var_of[(v, sigma, c)]]
            )
            table[sigma] = guesses[: game.g[v]] or (0,)
        strategy[v] = table
    return strategy


def _reference_verify(game, strategy):
    visible = _visible(game)
    names = game.vertices
    for v in names:
        if v not in strategy:
            raise SolverError(f"partial strategy: vertex {v!r} missing")
        table = strategy[v]
        for sigma in itertools.product(*(range(game.h[u]) for u in visible[v])):
            if sigma not in table:
                raise SolverError(
                    f"partial strategy: vertex {v!r} missing configuration {sigma}"
                )
            if len(table[sigma]) > game.g[v]:
                raise SolverError(
                    f"strategy at {v!r}{sigma} exceeds g={game.g[v]} guesses"
                )
    for phi in itertools.product(*(range(game.h[v]) for v in names)):
        col = dict(zip(names, phi))
        if not any(
            col[v] in strategy[v][tuple(col[u] for u in visible[v])] for v in names
        ):
            return col
    return None


def _shuffled_game(rng):
    """0-6 vertices in a shuffled order, random edges, h in 1..4 and g in
    1..h."""
    names = [f"v{i}" for i in range(rng.randint(0, 6))]
    rng.shuffle(names)
    edges = {e for e in itertools.combinations(names, 2) if rng.random() < 0.5}
    h = {v: rng.randint(1, 4) for v in names}
    g = {v: rng.randint(1, h[v]) for v in names}
    return make_game(make_graph(names, edges), h, g)


def _assert_same_cnf(game, rng):
    """The encoder's clauses and counts equal the reference's, every
    entry of the reference's table is base_i + j h_i + c, and a random
    model reads as the same strategy, key order included."""
    cnf = encode(game)
    var_of, *ref = _reference_encode(game)
    got = [cnf.num_vars, cnf.clauses, cnf.coloring_clauses, cnf.symmetry_clauses]
    assert got == ref, game
    visible = _visible(game)
    numbered = {}
    for i, v in enumerate(game.vertices):
        h = game.h[v]
        configs = itertools.product(*(range(game.h[u]) for u in visible[v]))
        for j, sigma in enumerate(configs):
            for c in range(h):
                numbered[(v, sigma, c)] = cnf.base[i] + j * h + c
    assert list(numbered.items()) == list(var_of.items()), game
    model = [rng.random() < 0.5 for _ in range(cnf.num_vars + 1)]
    got = extract_strategy(game, cnf, model)
    want = _reference_extract(game, var_of, model)
    assert got == want, game
    assert [list(t) for t in got.values()] == [list(t) for t in want.values()]
    assert list(got) == list(want)


def test_encode_matches_reference_on_random_games():
    rng = random.Random(20261021)
    models = random.Random(20261019)  # apart, so the games stay the same
    sizes = set()
    for _ in range(400):
        game = _shuffled_game(rng)
        _assert_same_cnf(game, models)
        sizes.add(len(game.vertices))
    assert sizes == set(range(7))


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_encode_matches_reference_on_pinned_games(name):
    _assert_same_cnf(_PINNED[name][0](), random.Random(name))


def test_empty_game_has_one_empty_clause_and_loses():
    empty = make_game(make_graph([], set()), {})
    assert encode(empty).clauses == [[]]
    assert _reference_encode(empty)[2] == [[]]
    verdict = search_game(empty)
    assert verdict.status == LOSING
    assert (verdict.decisions, verdict.conflicts, verdict.learned) == (0, 1, 0)


def _random_strategy(game, rng):
    """Random tables: mostly losing, some missing a vertex or a
    configuration, some with an entry over g guesses, some with keys no
    sage can see."""
    visible = _visible(game)
    strategy = {}
    for v in game.vertices:
        table = {}
        for sigma in itertools.product(*(range(game.h[u]) for u in visible[v])):
            k = game.g[v] + (rng.random() < 0.01)
            table[sigma] = tuple(rng.sample(range(game.h[v]), min(k, game.h[v])))
        if table and rng.random() < 0.05:
            del table[rng.choice(list(table))]
        if rng.random() < 0.05:
            table[(game.h[v],) * (len(visible[v]) + 1)] = (0,)
        strategy[v] = table
    if strategy and rng.random() < 0.05:
        del strategy[rng.choice(list(strategy))]
    return strategy


def _verify_outcome(check, game, strategy):
    try:
        return "ok", check(game, strategy)
    except SolverError as err:
        return "error", str(err)


def test_verify_strategy_matches_reference():
    rng = random.Random(20261022)
    kinds = {"ok": 0, "error": 0, "win": 0, "miss": 0}
    for _ in range(400):
        game = _shuffled_game(rng)
        strategy = _random_strategy(game, rng)
        got = _verify_outcome(verify_strategy, game, strategy)
        assert got == _verify_outcome(_reference_verify, game, strategy), game
        kinds[got[0]] += 1
        if got[0] == "ok":
            kinds["miss" if got[1] else "win"] += 1
    for _ in range(60):
        game = _shuffled_game(rng)
        verdict = search_game(game)
        if verdict.status == WINNING:
            assert _reference_verify(game, verdict.strategy) is None
            assert verify_strategy(game, verdict.strategy) is None
            kinds["win"] += 1
    assert min(kinds.values()) > 10, kinds


# -- phase times and budgets ---------------------------------------------


def test_verdict_times_the_phases_that_ran():
    k2 = uniform_game(complete_graph(["a", "b"]), 2)
    winning = search_game(k2)
    assert set(winning.seconds) == {"encode", "search", "extract", "verify"}
    assert all(t >= 0 for t in winning.seconds.values())
    c4 = make_game(_C4, dict(zip("abcd", (3, 3, 3, 4))))
    assert set(search_game(c4).seconds) == {"encode", "search"}
    assert set(decide_game(k2).seconds) == {"verify"}  # the clique route
    k4 = uniform_game(complete_graph(list("abcd")), 5)
    assert decide_game(k4).seconds == {}  # the region route
    # equality ignores the times
    assert dataclasses.replace(winning, seconds={}) == winning


@pytest.mark.parametrize("timeout_ms", [0, -5])
def test_timeout_of_zero_or_less_stops_at_once(timeout_ms):
    # C4 at h = 3 needs 123 decisions; the deadline has passed at the first
    game = uniform_game(_C4, 3)
    verdict = search_game(game, timeout_ms=timeout_ms)
    assert verdict.status == UNKNOWN
    assert verdict.reason == f"timeout after {timeout_ms} ms"
    assert verdict.decisions <= 1
    assert set(verdict.seconds) == {"encode", "search"}
    assert decide_game(game, timeout_ms=timeout_ms).status == UNKNOWN


# -- reference: the search with array-backed learned clauses -------------
#
# `_dpll` stores learned clauses as lists and reads its state as locals.
# Neither may change the search.  This is the search it replaced, with the
# same local minimisation of each learned clause written as a plain
# filter; the tests below require the same model, the same counts and,
# clause by clause, the same final clause list, which holds every learned
# clause and every watch move as the literal order each clause was left in.


def _reference_dpll(num_vars: int, clauses: list[list[int]], removed=None):
    """`solver._dpll` as it was with learned clauses as int arrays and
    its state read from closure cells, without the deadline.  When
    `removed` is a list, each conflict appends the number of literals that
    minimisation removed from its learned clause."""
    # val[lit] is 1 when lit is true, -1 when false, 0 when unassigned;
    # negative literals index from the end, so val[-v] == -val[v]
    val = [0] * (2 * num_vars + 1)
    # neg[lit] is -lit, one int object per literal: propagate stores
    # false literals into clauses, and fresh ints there would pile up
    neg = [0] * (2 * num_vars + 1)
    for v in range(1, num_vars + 1):
        neg[v], neg[-v] = -v, v
    level = [0] * (num_vars + 1)
    reason: list = [None] * (num_vars + 1)  # clause of implied vars
    activity = [0] * (num_vars + 1)
    phase = [-1] * (num_vars + 1)  # last assigned polarity; initially false
    # watched clauses by literal; lists hold the clauses themselves, not
    # their indices, which spares a lookup per visit and an int per clause
    watches: list[list[list[int]]] = [[] for _ in range(2 * num_vars + 1)]

    def watch_clause(cl: list[int]):
        if len(cl) == 1:
            cl.append(cl[0])  # duplicate literal; keeps two watch slots
        watches[cl[0]].append(cl)
        watches[cl[1]].append(cl)

    if not all(clauses):
        # an empty clause is false under every assignment: a conflict at
        # level 0 before any search
        return None, dict(
            decisions=0, conflicts=1, restarts=0, propagations=0, learned=0
        )
    for cl in clauses:
        watch_clause(cl)
    given = len(clauses)
    # the order heap; all activities start at 0, so the sorted entries
    # form a heap.  queued[v] is v's newest entry still in order, or 0; a
    # variable gets no second copy of a current entry, so the heap holds
    # one entry per variable plus the stale ones that bumps leave until
    # they pop or a rescale drops them
    stride = num_vars + 1
    queued = list(range(num_vars + 1))
    order = queued[1:]

    trail: list[int] = []
    trail_lim: list[int] = []  # trail length at each decision
    qhead = 0
    decisions = 0
    conflicts = 0
    restarts = 0
    undone = 0  # trail entries popped by backjumps

    def enqueue(lit: int, why):
        val[lit] = 1
        val[-lit] = -1
        v = abs(lit)
        level[v] = len(trail_lim)
        reason[v] = why
        trail.append(lit)

    def propagate():
        nonlocal qhead
        lvl = len(trail_lim)  # no decision is made inside
        while qhead < len(trail):
            fl = neg[trail[qhead]]  # literal that became false
            qhead += 1
            wl = watches[fl]
            n = len(wl)  # only the swap-remove below changes it
            i = 0
            while i < n:
                cl = wl[i]
                first = cl[0]
                if first == fl:
                    first = cl[0] = cl[1]
                    cl[1] = fl
                # cl[1] is the false watch now
                val_first = val[first]
                if val_first == 1:
                    i += 1
                    continue
                for k in range(2, len(cl)):
                    other = cl[k]
                    if val[other] != -1:
                        cl[1] = other
                        cl[k] = fl
                        watches[other].append(cl)
                        n -= 1
                        wl[i] = wl[n]
                        wl.pop()
                        break
                else:
                    if val_first == -1:
                        return cl  # conflict
                    # enqueue(first, cl), inlined on this hot path
                    val[first] = 1
                    val[-first] = -1
                    v = abs(first)
                    level[v] = lvl
                    reason[v] = cl
                    trail.append(first)
                    i += 1
        return None

    def analyze(cl: list[int]):
        """First-UIP learned clause and the backjump level."""
        lower = []  # the clause's literals below the current level
        seen = [False] * (num_vars + 1)
        counter = 0  # literals of the current level still to resolve
        lit = 0
        idx = len(trail) - 1
        cur_level = len(trail_lim)
        while True:
            for q in cl if lit == 0 else cl[1:]:
                v = abs(q)
                if seen[v] or level[v] == 0:
                    continue
                seen[v] = True
                activity[v] += 1
                if level[v] == cur_level:
                    counter += 1
                else:
                    lower.append(q)
            while not seen[abs(trail[idx])]:
                idx -= 1
            lit = trail[idx]
            v = abs(lit)
            seen[v] = False
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            cl = reason[v]
            # put the resolved variable's literal first so the [1:] skip
            # above drops it
            if cl[0] != lit:
                cl[cl.index(lit)] = cl[0]
                cl[0] = lit
        # seen now marks exactly the literals of lower.  Keep a decision,
        # and a literal whose reason has an unmarked literal above level 0
        kept = [
            q
            for q in lower
            if reason[abs(q)] is None
            or any(not seen[abs(p)] and level[abs(p)] > 0 for p in reason[abs(q)])
        ]
        if removed is not None:
            removed.append(len(lower) - len(kept))
        lower = kept
        # the asserting (UIP) literal first.  No learned clause is ever
        # deleted, so they are most of a long search's memory; an array
        # takes 4 bytes a literal where a list takes 8 and a larger header
        learned = array("i", [-lit, *lower])
        if not lower:
            return learned, 0
        # backjump to the second-highest level in the clause
        bj = max(level[abs(q)] for q in lower)
        # watch a literal of the backjump level in slot 1
        for k in range(1, len(learned)):
            if level[abs(learned[k])] == bj:
                learned[1], learned[k] = learned[k], learned[1]
                break
        return learned, bj

    def backjump(lvl: int):
        nonlocal qhead, undone
        target = trail_lim[lvl]
        for lit in trail[target:]:
            v = abs(lit)
            phase[v] = val[v]
            val[v] = val[-v] = 0
            reason[v] = None
            entry = v - activity[v] * stride
            if queued[v] != entry:
                queued[v] = entry
                heappush(order, entry)
        undone += len(trail) - target
        del trail[target:]
        del trail_lim[lvl:]
        qhead = target

    def rescale():
        for v in range(1, num_vars + 1):
            activity[v] >>= 1
            queued[v] = v - activity[v] * stride if val[v] == 0 else 0
        order[:] = [entry for entry in queued if entry]
        heapify(order)

    def counts() -> dict:
        return dict(
            decisions=decisions,
            conflicts=conflicts,
            restarts=restarts,
            propagations=undone + len(trail) - decisions,
            learned=len(clauses) - given,
        )

    restart_limit = 100
    conflicts_since_restart = 0
    while True:
        conflict = propagate()
        if conflict is not None:
            conflicts += 1
            conflicts_since_restart += 1
            if not trail_lim:
                return None, counts()
            learned, bj = analyze(conflict)
            backjump(bj)
            clauses.append(learned)
            watch_clause(learned)
            enqueue(learned[0], learned)
            if conflicts % 256 == 0:
                rescale()
            continue
        if conflicts_since_restart >= restart_limit:
            conflicts_since_restart = 0
            restarts += 1
            restart_limit = restart_limit * 3 // 2
            if trail_lim:
                backjump(0)
            continue
        while order:
            entry = heappop(order)
            best = entry % stride
            if queued[best] == entry:
                queued[best] = 0
            if val[best] == 0 and entry == best - activity[best] * stride:
                break
        else:
            model = [val[v] == 1 for v in range(num_vars + 1)]
            return model, counts()
        decisions += 1
        trail_lim.append(len(trail))
        enqueue(best * phase[best], None)  # saved phase; false on first use


def _assert_same_search(num_vars, clauses, removed=None):
    """`_dpll`'s (model, counts), asserting the reference's path; `removed`
    as for `_reference_dpll`."""
    got_clauses = [list(c) for c in clauses]
    want_clauses = [list(c) for c in clauses]
    got = _dpll(num_vars, got_clauses)
    assert got == _reference_dpll(num_vars, want_clauses, removed)
    assert list(map(list, got_clauses)) == list(map(list, want_clauses))
    return got


def _small_game(rng):
    """1-4 vertices, random edges, h in 1..3 and g in 1..h."""
    names = [f"v{i}" for i in range(rng.randint(1, 4))]
    edges = {e for e in itertools.combinations(names, 2) if rng.random() < 0.6}
    h = {v: rng.randint(1, 3) for v in names}
    g = {v: rng.randint(1, h[v]) for v in names}
    return make_game(make_graph(names, edges), h, g)


def test_search_matches_reference_on_random_games():
    rng = random.Random(20261023)
    models = learned = 0
    for _ in range(400):
        cnf = encode(_small_game(rng))
        model, counts = _assert_same_search(cnf.num_vars, cnf.clauses)
        models += model is not None
        learned += counts["learned"]
    assert 0 < models < 400  # both verdicts
    assert learned > 1000


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_search_matches_reference_on_pinned_games(name):
    cnf = encode(_PINNED[name][0]())
    removed = []
    _assert_same_search(cnf.num_vars, cnf.clauses, removed)
    # minimisation shortens learned clauses here, so the comparison covers it
    assert sum(removed) > 0


# -- soundness: every learned clause follows by unit propagation ----------
#
# A clause C is RUP (reverse unit propagation; Goldberg & Novikov, DATE
# 2003) over a clause set when setting every literal of C false and
# propagating units reaches a conflict.  The checker below shares no code
# with `_dpll`: no watched literals, no trail, no levels.  Each learned
# clause must be RUP over the given clauses and the clauses learned before
# it, which is what a DRUP proof log of the search needs; a refutation
# must then end in a conflict by unit propagation alone.


class _UnitChecker:
    """Clauses as tuples of distinct literals, with, for each literal, the
    clauses that hold it."""

    def __init__(self, clauses):
        self.clauses = []
        self.holding = collections.defaultdict(list)
        for clause in clauses:
            self.add(clause)

    def add(self, clause):
        clause = tuple(dict.fromkeys(clause))
        for lit in clause:
            self.holding[lit].append(len(self.clauses))
        self.clauses.append(clause)

    def implies(self, clause) -> bool:
        """True when `clause` is RUP over the clauses added so far."""
        true = {-lit for lit in clause}
        if any(-lit in true for lit in true):
            return True  # a tautology
        # every clause that may be unit: those of one literal, and those
        # holding a literal made false
        pending = [i for i, c in enumerate(self.clauses) if len(c) == 1]
        for lit in clause:
            pending.extend(self.holding[lit])
        while pending:
            free = [lit for lit in self.clauses[pending.pop()] if -lit not in true]
            if any(lit in true for lit in free):
                continue
            if not free:
                return True  # every literal false: a conflict
            if len(free) == 1:
                true.add(free[0])
                pending.extend(self.holding[-free[0]])
        return False


def _assert_learned_clauses_are_rup(num_vars, clauses):
    """Runs `_dpll` on a copy of `clauses` and checks every learned
    clause, in the order learned; returns (model, learned clauses)."""
    work = [list(c) for c in clauses]
    model, _ = _dpll(num_vars, work)
    learned = work[len(clauses):]
    checker = _UnitChecker(clauses)
    for clause in learned:
        assert checker.implies(clause), clause
        checker.add(clause)
    if model is None:
        assert checker.implies([])
    else:
        assert not checker.implies([])
        assert all(any(model[abs(x)] == (x > 0) for x in c) for c in checker.clauses)
    return model, learned


@pytest.mark.parametrize("name", ["C4 h=3", "P5 h=3", "K3 (3,3,4)"])
def test_learned_clauses_are_rup_on_pinned_games(name):
    cnf = encode(_PINNED[name][0]())
    _, learned = _assert_learned_clauses_are_rup(cnf.num_vars, cnf.clauses)
    assert len(learned) == _PINNED[name][1][2] - (_PINNED[name][1][0] == LOSING)


def test_learned_clauses_are_rup_on_random_games():
    rng = random.Random(20261024)
    learned = 0
    for _ in range(200):
        cnf = encode(_small_game(rng))
        learned += len(_assert_learned_clauses_are_rup(cnf.num_vars, cnf.clauses)[1])
    assert learned > 500


def test_unit_checker_rejects_clauses_that_are_not_implied():
    # a model of the formula satisfies every clause the formula implies,
    # so a clause the model falsifies is not implied.  Dropping the
    # model's true literals from a learned clause gives one; on most
    # learned clauses of C4 at h = 3 that drops a single literal, the
    # kind of clause an unsound minimisation would learn
    cnf = encode(_PINNED["C4 h=3"][0]())
    model, learned = _assert_learned_clauses_are_rup(cnf.num_vars, cnf.clauses)
    checker = _UnitChecker(cnf.clauses + learned)
    single = 0
    for clause in learned:
        assert checker.implies(clause)
        false = [x for x in set(clause) if model[abs(x)] != (x > 0)]
        assert len(false) < len(set(clause))
        assert not checker.implies(false), (clause, false)
        single += len(false) == len(set(clause)) - 1
    assert single > len(learned) // 2
