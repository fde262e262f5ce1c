import random
from fractions import Fraction

import pytest

from hatlab.games import (
    GameError,
    clique_criterion,
    fraction_vector,
    glue_hatness,
    make_game,
    uniform_game,
)
from hatlab.graphs import complete_graph, path_graph


def test_make_game_defaults_guesses_to_one():
    game = make_game(complete_graph(["a", "b"]), {"a": 2, "b": 3})
    assert game.g == {"a": 1, "b": 1}
    assert game.is_classic()


def test_make_game_clamps_guesses_to_hatness():
    game = make_game(
        complete_graph(["a", "b"]), {"a": 2, "b": 3}, {"a": 5, "b": 2}
    )
    assert game.g == {"a": 2, "b": 2}


@pytest.mark.parametrize(
    "h, g, message",
    [
        ({"a": True, "b": 2}, None, "invalid hatness True"),
        ({"a": 2, "b": 2}, {"b": True}, "invalid guess count True"),
    ],
)
def test_make_game_rejects_booleans_as_counts(h, g, message):
    with pytest.raises(GameError, match=message):
        make_game(complete_graph(["a", "b"]), h, g)


def test_make_game_rejects_missing_hatness():
    with pytest.raises(GameError, match="missing hatness"):
        make_game(complete_graph(["a", "b"]), {"a": 2})


def test_make_game_rejects_unknown_vertex():
    with pytest.raises(GameError):
        make_game(complete_graph(["a"]), {"a": 2, "x": 2})


def test_make_game_rejects_nonpositive_hatness():
    with pytest.raises(GameError):
        make_game(complete_graph(["a"]), {"a": 0})


def test_fraction_vector():
    game = make_game(
        complete_graph(["a", "b"]), {"a": 2, "b": 4}, {"a": 1, "b": 3}
    )
    assert fraction_vector(game) == {"a": Fraction(1, 2), "b": Fraction(3, 4)}


def test_fraction_vector_on_random_games():
    # g above 1 and above h (clamped to h), values in vertex order
    rng = random.Random(7)
    for _ in range(100):
        names = [f"v{i}" for i in rng.sample(range(40), rng.randint(1, 30))]
        h = {v: rng.randint(1, 6) for v in names}
        g = {v: rng.randint(1, 8) for v in names if rng.random() < 0.6}
        game = make_game(path_graph(names), h, g)
        r = fraction_vector(game)
        want = {v: Fraction(min(g.get(v, 1), h[v]), h[v]) for v in names}
        assert r == want and list(r) == names
        assert all(type(q) is Fraction for q in r.values())


def test_clique_criterion_k3_uniform_3_precise():
    game = uniform_game(complete_graph(["a", "b", "c"]), 3)
    res = clique_criterion(game)
    assert res.winning and res.precise and res.total == 1


def test_clique_criterion_k2_2_3_losing():
    game = make_game(complete_graph(["a", "b"]), {"a": 2, "b": 3})
    res = clique_criterion(game)
    assert not res.winning
    assert res.total == Fraction(5, 6)


def test_clique_criterion_k4_2_4_8_8_precise():
    game = make_game(
        complete_graph(["a", "b", "c", "d"]), {"a": 2, "b": 4, "c": 8, "d": 8}
    )
    res = clique_criterion(game)
    assert res.winning and res.precise


def test_clique_criterion_requires_complete():
    with pytest.raises(GameError):
        clique_criterion(uniform_game(path_graph(["a", "b", "c"]), 2))


def test_glue_hatness_multiplies_on_clique():
    out = glue_hatness({"a": 2, "b": 8}, ["a"], {"v": 4, "w": 8}, "v")
    assert out == {"L/a": 8, "L/b": 8, "R/w": 8}


def test_glue_hatness_commutes_as_multiset():
    x1 = {"A": 2, "b": 8}
    x2 = {"A": 4, "c": 6}
    left = glue_hatness(x1, ["A"], x2, "A")
    right = glue_hatness(x2, ["A"], x1, "A")
    assert sorted(left.values()) == sorted(right.values())
