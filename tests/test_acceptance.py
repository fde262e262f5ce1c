"""The acceptance gate: every named reproduction criterion must pass.

Criteria run in index order so expensive solver verdicts computed by an
earlier criterion are reused from the shared cache by later ones.
"""

import itertools

import pytest

from hatlab import verify
from hatlab.games import LOSING, WINNING, make_game
from hatlab.graphs import complete_graph, path_graph
from hatlab.solver import search_game
from hatlab.verify import CHECKS, run_check, search_status


@pytest.mark.parametrize(
    "item", CHECKS, ids=[f"{c.index:02d}-{c.name}" for c in CHECKS]
)
def test_acceptance_criterion(item):
    result = run_check(item)
    assert result.ok, f"{item.name}: {result.details}"


@pytest.fixture
def searched(monkeypatch):
    """The games that reach search_game through an empty verdict cache."""
    games = []

    def counting(game):
        games.append(game)
        return search_game(game)

    monkeypatch.setattr(verify, "_VERDICT_CACHE", {})
    monkeypatch.setattr(verify, "search_game", counting)
    return games


def test_verdict_cache_is_keyed_by_formula(searched):
    # criterion 01 searches K3 at h = 4 over {v0, v1, v2} and criterion
    # 11 over {a, b, c}: one key, so one search
    for item in (CHECKS[0], CHECKS[10]):
        result = run_check(item)
        assert result.ok, f"{item.name}: {result.details}"
    k3 = [
        game for game in searched
        if len(game.vertices) == 3 and len(game.graph.edges) == 3
        and set(game.h.values()) == {4} and set(game.g.values()) == {1}
    ]
    assert len(k3) == 1


def _k3_orders(hs):
    """K3 over {a, b, c} with the hatness vector hs in every vertex order."""
    return [
        make_game(complete_graph(list("abc")), dict(zip("abc", p)))
        for p in sorted(set(itertools.permutations(hs)))
    ]


@pytest.mark.parametrize("hs", [(3, 3, 4), (3, 4, 4)])
def test_vertex_orders_of_a_game_share_one_search(searched, hs):
    assert [search_status(game) for game in _k3_orders(hs)] == [LOSING] * 3
    assert len(searched) == 1


def test_non_isomorphic_games_with_equal_hatness_search_apart(searched):
    # the same (h, g) multiset and the same edge count on P3, with h = 4
    # in the middle or at an end: not isomorphic, so two searches
    p3 = path_graph(list("abc"))
    middle = search_status(make_game(p3, {"a": 2, "b": 4, "c": 2}))
    end = search_status(make_game(p3, {"a": 4, "b": 2, "c": 2}))
    assert len(searched) == 2
    assert (middle, end) == (WINNING, WINNING)


@pytest.mark.parametrize("hs", [(3, 3, 4), (3, 4, 4)])
def test_search_loses_on_every_vertex_order_of_k3(hs):
    # criterion 01 searches one order per isomorphism class; the search
    # itself must agree on all of them
    for game in _k3_orders(hs):
        assert search_game(game).status == LOSING, game.h
