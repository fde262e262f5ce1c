"""Every route of `solver.decide_game` against one reference search per
game, on seeded game sets; `route_checks` says what each route's check
asserts.  The corpus sets are checked in `test_solver`, by
`test_symmetry_clauses_keep_verdict_on_corpus` and
`test_clique_route_agrees_with_search_on_corpus`."""

import itertools
import random

import pytest

from hatlab.games import make_game
from hatlab.graphs import make_graph
from route_checks import check_routes
from test_solver import _criterion_01_games, _random_game


def _leafy_game(rng):
    """A random game on a tree of 2-5 vertices with a few chords added,
    which keeps at least one leaf; g is mostly 1, so that few cliques
    weigh 1."""
    while True:
        names = [f"v{i}" for i in range(rng.randint(2, 5))]
        edges = {(names[rng.randrange(i)], names[i]) for i in range(1, len(names))}
        edges |= {e for e in itertools.combinations(names, 2) if rng.random() < 0.1}
        graph = make_graph(names, edges)
        if any(graph.degree(v) == 1 for v in names):
            h = {v: rng.randint(2, 4) for v in names}
            g = {v: 1 if rng.random() < 0.8 else rng.randint(2, 3) for v in names}
            return make_game(graph, h, g)


def _seeded(make, seed: int, count: int):
    rng = random.Random(seed)
    return [make(rng) for _ in range(count)]


# name: (the games, the routes checked on each, and exclusive bounds
# (low, high) on the counts, high None for no bound).  "sat" and "plain"
# search every game, so they run only where no game is slow: uncapped,
# the leafy games the search alone decides take up to ~20 s each.
_TABLE = {
    "random": (
        lambda: _seeded(_random_game, 20261018, 300),
        ("clique", "losing", "sat", "plain"),
        {"wins": (0, 300), "tables": (150, None)},
    ),
    "region": (
        lambda: _seeded(_random_game, 20261019, 200),
        ("clique", "losing"),
        {"region": (20, 200)},
    ),
    "criterion-01": (_criterion_01_games, ("clique", "losing"), {"clique": (50, None)}),
    "leafy": (
        lambda: _seeded(_leafy_game, 20261020, 400),
        ("clique", "losing"),
        {"pendant": (15, None)},
    ),
}


@pytest.mark.parametrize("name", list(_TABLE))
def test_routes_agree_with_the_search(name, search):
    games, routes, bounds = _TABLE[name]
    counts = check_routes(games(), routes, search)
    for key, (low, high) in bounds.items():
        assert low < counts[key] and (high is None or counts[key] < high), counts
