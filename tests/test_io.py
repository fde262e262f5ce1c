import hashlib
import json
import random

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
from hatlab.games import GameError, make_game, uniform_game
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


@pytest.mark.parametrize(
    "edges", [[["a", "b"], [["a"], "b"]], [["a", {"x": 1}]], [["a", 1]], [[None, "b"]]]
)
def test_graph_schema_rejects_edge_endpoints_that_are_not_names(edges):
    # an unhashable endpoint used to escape as TypeError from make_graph
    with pytest.raises(SchemaError) as info:
        graph_from_json({"vertices": ["a", "b"], "edges": edges})
    assert info.value.pointer == f"/edges/{len(edges) - 1}"


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


def test_game_null_guesses_mean_one_guess_each():
    obj = {"vertices": ["a", "b"], "edges": [], "hatness": {"a": 2, "b": 3},
           "guesses": None}
    assert game_from_json(obj).g == {"a": 1, "b": 1}


def test_game_schema_error_pointer_on_bad_hatness():
    obj = {"vertices": ["a"], "edges": [], "hatness": {"a": 0}}
    with pytest.raises(SchemaError, match="/hatness/a"):
        game_from_json(obj)


def test_game_schema_error_on_unknown_vertex():
    obj = {"vertices": ["a"], "edges": [], "hatness": {"a": 2, "x": 2}}
    with pytest.raises(SchemaError, match="/hatness/x"):
        game_from_json(obj)


_GAME = {"vertices": ["a", "b"], "edges": [["a", "b"]],
         "hatness": {"a": 2, "b": 3}, "guesses": {"a": 2}}


def _one_fault(key, value):
    """_GAME with `key` set to `value`; a dict value is merged into the
    vector it names, None deletes the key."""
    obj = dict(_GAME)
    if isinstance(value, dict):
        obj[key] = {**obj[key], **value}
        obj[key] = {v: n for v, n in obj[key].items() if n is not None}
    elif value is None:
        del obj[key]
    else:
        obj[key] = value
    return obj


# one fault each: (key, value for _one_fault, pointer, fault); a count
# fault is named by its kind, and `_message` gives its wording
LOADER_ERRORS = [
    (key, [2, 3], f"/{key}", "expected an object") for key in ("hatness", "guesses")
] + [
    (key, {"a": bad}, f"/{key}/a", "expected a positive integer")
    for key in ("hatness", "guesses") for bad in (True, 0, -1, 1.5, "2")
] + [
    (key, {"z": 2}, f"/{key}/z", "unknown vertex") for key in ("hatness", "guesses")
] + [
    ("hatness", None, "/hatness", "missing"),
    # these four pointed at "/" while make_game and make_graph checked them
    ("hatness", {"b": None}, "/hatness", "missing hatness for vertex 'b'"),
    ("edges", [["a", "b"], ["a", "z"]], "/edges/1", "unknown endpoint 'z'"),
    ("edges", [["a", "b"], ["b", "b"]], "/edges/1", "self-loop 'b'"),
    ("vertices", ["a", "a", "b"], "/vertices/1", "duplicate vertex 'a'"),
]


_NOUNS = {"hatness": ("hatness vector", "hatness"), "guesses": ("guess vector", "guess count")}


def _message(key, value, fault):
    """The message make_game gives for a count fault of kind `fault`, in
    `games.checked_counts`'s words; any other fault is its own message."""
    if fault == "expected an object":
        return f"{_NOUNS[key][0]} is not an object"
    if fault == "expected a positive integer":
        return f"invalid {_NOUNS[key][1]} {value['a']!r} at vertex 'a'"
    if fault == "unknown vertex":
        return f"{key} given for unknown vertex 'z'"
    return fault


@pytest.mark.parametrize("key, value, pointer, fault", LOADER_ERRORS)
def test_game_loader_errors(key, value, pointer, fault):
    message = _message(key, value, fault)
    with pytest.raises(SchemaError) as info:
        game_from_json(_one_fault(key, value))
    assert (info.value.pointer, str(info.value)) == (pointer, f"{pointer}: {message}")


# one fault of the counts each, as (h, g) on the vertices a and b; g None
# is no guess counts given
COUNT_FAULTS = [
    ([2, 3], None),
    (None, None),
    ({"a": 2, "b": 2}, [1]),
    *(({"a": bad, "b": 2}, None) for bad in (True, 0, -1, 1.5, "2", None)),
    *(({"a": 2, "b": 2}, {"b": bad}) for bad in (True, 0, -1, 1.5, "2", None)),
    ({"a": 2, "b": 2, "z": 2}, None),
    ({"a": 2, "b": 2}, {"z": 1}),
    ({"a": 2}, None),
]


@pytest.mark.parametrize("h, g", COUNT_FAULTS)
def test_count_fault_reads_alike_through_every_entry_point(h, g):
    graph = complete_graph(["a", "b"])
    with pytest.raises(GameError) as built:
        make_game(graph, h, g)
    arg, *rest = built.value.where
    guesses = {} if g is None else {"guesses": g}
    with pytest.raises(SchemaError) as loaded:
        game_from_json({**graph_to_json(graph), "hatness": h, **guesses})
    pointer = "/".join(("", {"h": "hatness", "g": "guesses"}[arg], *rest))
    assert str(loaded.value) == f"{pointer}: {built.value}"
    assert loaded.value.pointer == pointer

    leaf = {"op": "clique", "vertices": ["a", "b"], "h": h, **({} if g is None else {"g": g})}
    with pytest.raises(GameError) as evaluated:
        eval_expr(CliqueLeaf(("a", "b"), h, {} if g is None else g))
    with pytest.raises(SchemaError) as decoded:
        expr_from_json(leaf)
    pointer = "/".join(("", arg, *rest))
    assert str(decoded.value) == f"{pointer}: {evaluated.value}" == f"{pointer}: {built.value}"


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


# sha256 of the canonical game JSON that each gallery expression
# evaluates to: pins the composite's vertex order, names, edges, h and g
GALLERY_GAME_SHA256 = {
    "delta6": "478e19e98f4bfca4a9ff6c27d7479a0637eea094bd54caa75391d3d04f74b22e",
    "scary3": "0afb2c848ef0218494f2cf84160985fa0ea89ce653fb016af3167bcbbdd1642b",
    "scary4": "70b48e0b4d2d4dbb794a10de936526b7cad5685f25a06734bb6e85ccd89f394c",
    "delta_plus_1": "0c882abfa7e9576f48b5b790a5810089ecf0058d116a9a55939eecca9d219b92",
    "delta_plus_3": "a8d0c084b5e6184fcbf3b86732ec23a42b94d54b15e5dc3002a29edc1a8202bd",
    "chain_2_4": "48e52320cef4b2dacd4c7851bc12360d38d16a1d5711ea48d2bf948b4107e75d",
    "chain_3_6": "9258476d96614239adc656287689160639dc7f30fa1dcb08cd6a46cecdeaff0b",
    "chain_3_5_lose": "cc5d05d7419bb19b4ff87ceb7423f1252b97a0e505b270d3dcad9d60e25924f2",
    "chain_3_5_muhat": "8628b19a1f5904b1055e137cbab630879c6b4f6a8cf9c8f55252f29bd0f7d159",
}


@pytest.mark.parametrize("name", sorted(GALLERY_EXPRS))
def test_gallery_game_json_byte_identical(name):
    text = canonical_dumps(game_to_json(eval_expr(GALLERY_EXPRS[name]()).game))
    assert hashlib.sha256(text.encode()).hexdigest() == GALLERY_GAME_SHA256[name]


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


@pytest.mark.parametrize(
    "obj, pointer",
    [
        ({"a": 5}, "/a"),
        ({"a": {"x": [0]}}, "/a/x"),
        ({"a": {"0": 3}}, "/a/0"),
        ({"a": {"0": [0, "1"]}}, "/a/0"),
        ([], "/"),
    ],
)
def test_strategy_schema_errors_carry_pointers(obj, pointer):
    with pytest.raises(SchemaError) as info:
        strategy_from_json(obj)
    assert info.value.pointer == pointer


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


def _random_json(rng, depth):
    """A JSON value nested at most `depth` levels, mixing what the joined
    writer takes (str, int, dict, list, tuple) with what it leaves to
    json."""
    chars = 'ab"\\\n\t\x00\x7fé€😀 /'
    leaves = [
        lambda: rng.randint(-(10**30), 10**30),
        lambda: rng.choice([0, -1, 10**300, -(10**300)]),
        lambda: "".join(rng.choice(chars) for _ in range(rng.randint(0, 6))),
        lambda: rng.choice([True, False, None]),
        lambda: rng.choice([0.5, -0.0, 1e300, *map(float, ("inf", "-inf", "nan"))]),
    ]
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(leaves)()
    kind = rng.choice(["dict", "list", "tuple", "empty"])
    if kind == "empty":
        return rng.choice([{}, [], ()])
    kids = [_random_json(rng, depth - 1) for _ in range(rng.randint(1, 4))]
    if kind == "dict":
        return {leaves[2]() + str(i): kid for i, kid in enumerate(kids)}
    return kids if kind == "list" else tuple(kids)


def test_canonical_dumps_matches_json():
    rng = random.Random(20261022)
    values = [_random_json(rng, rng.randint(0, 8)) for _ in range(3000)]
    # the writer's own kinds alone, at the depth where it hands over
    values += [{"a": [[[[[[["x", 1]]]]]]]}, {"a": [[[[[[[["x", 1]]]]]]]]}]
    values += [{"b": 1, "a": {"é": [-5, ""]}}, [(), {}, [()]], {1: "x"}, {"a": 1.0}]
    for value in values:
        want = json.dumps(value, sort_keys=True, indent=2) + "\n"
        assert canonical_dumps(value) == want, value


def test_too_deep_expr_is_a_schema_error(tmp_path):
    # 20,000 sums: deeper than json writes or reads on CPython 3.10-3.13
    leaf = CliqueLeaf(("a",), {"a": 1})
    e = leaf
    for _ in range(20_000):
        e = Sum(e, (), leaf, "a")
    path = tmp_path / "deep.expr.json"
    with pytest.raises(SchemaError, match="nesting limit"):
        save_expr(e, str(path))
    assert not path.exists()
    # hand-built text as deep, without the names a real chain would carry
    depth = 20_000
    text = '{"op": "sum", "S": [], "v": "a", "right": {}, "left": '
    path.write_text(text * depth + "{}" + "}" * depth)
    with pytest.raises(SchemaError, match="nesting limit"):
        load_expr(str(path))


def test_deep_expr_round_trips_without_recursion():
    # H_2000^4 nests 4,000 products; == on expressions that deep recurses,
    # so the round trip is compared by the games they evaluate to
    e = gallery.build_chain(2000, 4).expr
    back = expr_from_json(expr_to_json(e))
    assert isinstance(back, Product)
    assert eval_expr(back).game == eval_expr(e).game


@pytest.mark.parametrize(
    "obj, pointer",
    [
        ({"vertices": ["a"], "edges": [], "hatness": {"a": True}}, "/hatness/a"),
        ({"vertices": ["a"], "edges": [], "hatness": {"a": 2},
          "guesses": {"a": True}}, "/guesses/a"),
    ],
)
def test_game_rejects_booleans_as_counts(obj, pointer):
    with pytest.raises(SchemaError) as info:
        game_from_json(obj)
    assert info.value.pointer == pointer


@pytest.mark.parametrize("field", ["h", "g"])
def test_clique_leaf_rejects_booleans_as_counts(field):
    obj = {"op": "clique", "vertices": ["a"], "h": {"a": 2}}
    obj[field] = {"a": True}
    with pytest.raises(SchemaError) as info:
        expr_from_json(obj)
    assert info.value.pointer == f"/{field}/a"


def test_strategy_rejects_booleans_as_colors():
    with pytest.raises(SchemaError) as info:
        strategy_from_json({"a": {"0": [True]}})
    assert info.value.pointer == "/a/0"
