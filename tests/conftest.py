import pytest

from hatlab.solver import search_game


@pytest.fixture(scope="session")
def search():
    """`search_game(game)`, run once per distinct game: the vertex order,
    the edges, h and g fix the search, so they key its verdict."""
    verdicts = {}

    def searched(game):
        names = game.vertices
        counts = tuple(map(game.h.get, names)), tuple(map(game.g.get, names))
        key = (names, game.graph.adj, *counts)
        if key not in verdicts:
            verdicts[key] = search_game(game)
        return verdicts[key]

    return searched
