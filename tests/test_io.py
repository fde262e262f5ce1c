import hashlib
import json

import pytest

from hatlab import gallery
from hatlab.algebra import (
    CliqueLeaf,
    PendantLose,
    Product,
    Substitute,
    Sum,
    SumLose,
    eval_expr,
)
from hatlab.games import make_game, uniform_game
from hatlab.graphs import complete_graph, path_graph
from hatlab.io import (
    SchemaError,
    canonical_dumps,
    dot_text,
    expr_from_json,
    expr_to_json,
    frac_str,
    game_from_json,
    game_to_json,
    graph_from_json,
    graph_to_json,
    load_expr,
    load_game,
    save_expr,
    save_game,
    strategy_from_json,
    strategy_to_json,
)


def test_frac_str():
    from fractions import Fraction

    assert frac_str(Fraction(1, 3)) == "1/3"
    assert frac_str(Fraction(4, 2)) == "2"
    assert frac_str(3) == "3"


def test_graph_round_trip():
    g = path_graph(["a", "b", "c"])
    assert graph_from_json(graph_to_json(g)).edges == g.edges


def test_graph_schema_errors_carry_pointers():
    with pytest.raises(SchemaError, match="/vertices"):
        graph_from_json({"edges": []})
    with pytest.raises(SchemaError, match="/edges/0"):
        graph_from_json({"vertices": ["a"], "edges": [["a"]]})
    with pytest.raises(SchemaError, match="/edges"):
        graph_from_json({"vertices": ["a"], "edges": 5})


def test_game_round_trip_classic_omits_guesses():
    game = uniform_game(complete_graph(["a", "b"]), 3)
    obj = game_to_json(game)
    assert "guesses" not in obj
    assert game_from_json(obj).h == game.h


def test_game_round_trip_with_guesses():
    game = make_game(
        complete_graph(["a", "b"]), {"a": 3, "b": 3}, {"a": 2, "b": 1}
    )
    obj = game_to_json(game)
    assert obj["guesses"] == {"a": 2, "b": 1}
    assert game_from_json(obj).g == game.g


def test_game_schema_error_pointer_on_bad_hatness():
    obj = {"vertices": ["a"], "edges": [], "hatness": {"a": 0}}
    with pytest.raises(SchemaError, match="/hatness/a"):
        game_from_json(obj)


def test_game_schema_error_on_unknown_vertex():
    obj = {"vertices": ["a"], "edges": [], "hatness": {"a": 2, "x": 2}}
    with pytest.raises(SchemaError, match="/hatness/x"):
        game_from_json(obj)


def test_save_load_game_byte_identical(tmp_path):
    game = make_game(path_graph(["a", "b", "c"]), {"a": 2, "b": 4, "c": 2})
    p1 = tmp_path / "g1.json"
    p2 = tmp_path / "g2.json"
    save_game(game, str(p1))
    save_game(load_game(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().endswith(b"\n")


def test_expr_round_trip(tmp_path):
    k2 = CliqueLeaf(("a", "b"), {"a": 2, "b": 2}, {})
    e = Product(k2, "b", CliqueLeaf(("b", "c"), {"b": 2, "c": 2}, {}), "b")
    p = tmp_path / "expr.json"
    save_expr(e, str(p))
    e2 = load_expr(str(p))
    assert e2 == e
    assert eval_expr(e2).status == eval_expr(e).status


def test_expr_unknown_op():
    with pytest.raises(SchemaError, match="/op"):
        expr_from_json({"op": "mystery"})


def test_expr_nested_pointer():
    obj = {
        "op": "product",
        "left": {"op": "clique", "vertices": ["a"], "h": {"a": 1}},
        "A": "a",
        "right": {"op": "mystery"},
        "v": "a",
    }
    with pytest.raises(SchemaError, match="/right/op"):
        expr_from_json(obj)


ALL_OPS_JSON = """
{"op": "sum_lose", "A": "L/a", "v": "p",
 "left": {"op": "sum", "S": ["a"], "v": "L/a",
          "left": {"op": "clique", "vertices": ["a"], "h": {"a": 3}, "g": {"a": 2}},
          "right": {"op": "product", "A": "a", "v": "a",
                    "left": {"op": "clique", "vertices": ["a"], "h": {"a": 3}, "g": {"a": 2}},
                    "right": {"op": "clique", "vertices": ["a"], "h": {"a": 3}, "g": {"a": 2}}}},
 "right": {"op": "pendant_lose", "B": "L/a", "A": "p",
           "base": {"op": "substitute", "at": "a",
                    "inner": {"op": "clique", "vertices": ["a"], "h": {"a": 3}, "g": {"a": 2}},
                    "outer": {"op": "clique", "vertices": ["a"], "h": {"a": 3}, "g": {"a": 2}}}}}
"""


def test_expr_json_literal_all_ops():
    k = CliqueLeaf(("a",), {"a": 3}, {"a": 2})
    e = SumLose(
        Sum(k, ("a",), Product(k, "a", k, "a"), "L/a"),
        "L/a",
        PendantLose(Substitute(k, k, "a"), "L/a", "p"),
        "p",
    )
    expected = json.loads(ALL_OPS_JSON)
    assert expr_to_json(e) == expected
    assert canonical_dumps(expr_to_json(e)) == canonical_dumps(expected)
    assert expr_from_json(expected) == e


def test_expr_leaf_guesses_default_to_empty():
    leaf = expr_from_json({"op": "clique", "vertices": ["a"], "h": {"a": 2}})
    assert leaf == CliqueLeaf(("a",), {"a": 2}, {})
    assert expr_to_json(leaf)["g"] == {}


# sha256 of each gallery expression's canonical JSON, pinned so that a
# change of the encoder cannot silently change saved artifacts
GALLERY_EXPR_SHA256 = {
    "delta6": "522edd190d20418534d4ac3a39c86404f229c54fc6bf97605ec98509e3100ce4",
    "scary3": "aa3508668a1c2f111b2dcd049555b94dde169e64f770286899ab0bda545acaa4",
    "scary4": "d0dafb616422880d9835cc58d2e5e2b3fbee20f27d37c6692622351e814b5106",
    "delta_plus_1": "da2f9dc8a1b6a505e85957a53d29205633e2ad63dc9b17ab058a2027244062d0",
    "delta_plus_3": "59b54e22e9fbb53670eea474270d930f9050261d982fc0e6f1d74ee495a46aaa",
    "chain_2_4": "ca947fd8622441c874a7141bbadfc44bc38763e6cadf2bdf616a6e12c6c54afc",
    "chain_3_6": "338d99d83093a6baeb4dcf84bb65a786df549d5e8ed634c36e6da0597f4e93e9",
    "chain_3_5_lose": "9abbfa56cc68e454176916a35d3382733413d70c86c4b407aeff919c629f29e7",
    "chain_3_5_muhat": "00b84707a6c96ca9183b88a9d14c5017577e79ab87c7ebfee287397f53b8560b",
}

GALLERY_EXPRS = {
    "delta6": gallery.build_delta6_hg8,
    "scary3": lambda: gallery.build_scary(3),
    "scary4": lambda: gallery.build_scary(4),
    "delta_plus_1": lambda: gallery.build_delta_plus_k(1).expr,
    "delta_plus_3": lambda: gallery.build_delta_plus_k(3).expr,
    "chain_2_4": lambda: gallery.build_chain(2, 4).expr,
    "chain_3_6": lambda: gallery.build_chain(3, 6).expr,
    "chain_3_5_lose": lambda: gallery.build_chain(3, 5).expr,
    "chain_3_5_muhat": lambda: gallery.build_chain(3, 5).muhat_expr,
}


@pytest.mark.parametrize("name", sorted(GALLERY_EXPRS))
def test_gallery_expr_json_round_trip_byte_identical(name):
    e = GALLERY_EXPRS[name]()
    text = canonical_dumps(expr_to_json(e))
    assert hashlib.sha256(text.encode()).hexdigest() == GALLERY_EXPR_SHA256[name]
    back = expr_from_json(json.loads(text))
    assert back == e
    assert canonical_dumps(expr_to_json(back)) == text


@pytest.mark.parametrize(
    "obj, pointer",
    [
        ({"op": "clique", "vertices": 5, "h": {}}, "/vertices"),
        ({"op": "clique", "vertices": ["a", 1], "h": {}}, "/vertices"),
        ({"op": "clique", "vertices": ["a"], "h": []}, "/h"),
        ({"op": "clique", "vertices": ["a"], "h": {"a": 0}}, "/h/a"),
        ({"op": "clique", "vertices": ["a"], "h": {"a": 2}, "g": {"a": "2"}}, "/g/a"),
        ({"op": "pendant_lose", "base": {"op": "clique", "vertices": ["a"],
          "h": {"a": 2}}, "B": ["a"], "A": "p"}, "/B"),
        ({"op": "sum", "left": {"op": "clique", "vertices": ["a"], "h": {"a": 1}},
          "S": "a", "right": {"op": "clique", "vertices": ["a"], "h": {"a": 1}},
          "v": "a"}, "/S"),
        ({"op": ["sum"]}, "/op"),
    ],
)
def test_expr_schema_errors_on_wrong_field_types(obj, pointer):
    with pytest.raises(SchemaError) as info:
        expr_from_json(obj)
    assert info.value.pointer == pointer


def test_expr_substitute_inner_must_be_clique():
    k = {"op": "clique", "vertices": ["a"], "h": {"a": 2}}
    obj = {"op": "substitute", "at": "a", "outer": k,
           "inner": {"op": "product", "left": k, "A": "a", "right": k, "v": "a"}}
    with pytest.raises(SchemaError, match="/inner"):
        expr_from_json(obj)


def test_strategy_round_trip():
    strategy = {"a": {(0, 1): (1,), (): (0,)}}
    assert strategy_from_json(strategy_to_json(strategy)) == strategy


def test_canonical_dumps_sorted_with_newline():
    s = canonical_dumps({"b": 1, "a": 2})
    assert s.endswith("\n")
    assert s.index('"a"') < s.index('"b"')
    assert json.loads(s) == {"a": 2, "b": 1}


def test_dot_text_graph_and_game():
    g = complete_graph(["a", "b"])
    plain = dot_text(g)
    assert plain.startswith("graph {")
    assert '"a" -- "b";' in plain
    game = make_game(g, {"a": 2, "b": 4}, {"a": 1, "b": 2})
    labeled = dot_text(game)
    assert 'label="a\\nh=2"' in labeled
    assert 'label="b\\nh=4,g=2"' in labeled
