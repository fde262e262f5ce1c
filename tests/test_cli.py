import json
from fractions import Fraction

import pytest

from hatlab import io as hio
from hatlab.certify import LosingCertificate
from hatlab.cli import main
from hatlab.games import make_game, uniform_game
from hatlab.graphs import complete_graph, make_graph, path_graph
from hatlab.io import frac_str, save_game, strategy_from_json
from hatlab.solver import verify_strategy


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _run_json(capsys, *argv):
    code, out = _run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def test_build_delta6_emits_game(capsys):
    obj = _run_json(capsys, "build", "delta6")
    assert len(obj["vertices"]) == 31
    assert set(obj["hatness"].values()) == {8}


def test_build_chain_writes_files(tmp_path, capsys):
    game_path = tmp_path / "chain.json"
    expr_path = tmp_path / "chain.expr.json"
    code, _ = _run(
        capsys,
        "build", "chain", "--n", "2", "--l", "4",
        "-o", str(game_path), "--expr", str(expr_path),
    )
    assert code == 0
    obj = json.loads(game_path.read_text())
    assert set(obj["hatness"].values()) == {4}
    expr = json.loads(expr_path.read_text())
    assert "op" in expr


@pytest.mark.parametrize(
    "argv, message",
    [
        (("scary", "--n", "0"), "build_scary requires n >= 3"),
        (("chain", "--n", "0", "--l", "0"), "a chain needs n >= 2 cliques"),
        (("chain", "--l", "0"), "chains need l >= 3"),
        (("delta-plus-k", "--k", "0"), "build_delta_plus_k requires k >= 1"),
        (("ex1", "--n", "0"), "extension examples need n >= 2"),
        (("ex3", "--n", "4", "--k", "1"), "ex3 with sizes (2, 1, 1, 2) builds no graph"),
    ],
)
def test_build_zero_option_is_not_the_default(capsys, argv, message):
    code = main(["build", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, to_file",
    [(("chain", "--variant", "tilde"), False),
     (("chain", "--variant", "minus"), True),
     (("ex1",), True)],
)
def test_build_expr_without_expression_writes_nothing(tmp_path, capsys, argv, to_file):
    # checked before any output: no payload on stdout, no -o file
    out_path, expr_path = tmp_path / "out.json", tmp_path / "expr.json"
    output = ["-o", str(out_path)] if to_file else []
    code = main(["build", *argv, *output, "--expr", str(expr_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {argv[0]!r} has no certificate expression\n"
    assert not out_path.exists() and not expr_path.exists()


def test_solve_winning_with_strategy(tmp_path, capsys):
    gp = tmp_path / "k2.json"
    sp = tmp_path / "strategy.json"
    save_game(uniform_game(complete_graph(["a", "b"]), 2), str(gp))
    obj = _run_json(capsys, "solve", str(gp), "--emit-strategy", str(sp))
    assert obj["status"] == "winning"
    strat = json.loads(sp.read_text())
    assert set(strat) == {"a", "b"}


def test_solve_winning_by_clique_replays(tmp_path, capsys):
    gp = tmp_path / "k2.json"
    sp = tmp_path / "strategy.json"
    game = uniform_game(complete_graph(["a", "b"]), 2)
    save_game(game, str(gp))
    obj = _run_json(capsys, "solve", str(gp), "--emit-strategy", str(sp))
    assert (obj["status"], obj["route"]) == ("winning", "clique")
    assert obj["reason"] == "clique (a, b) has sum g/h = 1"
    assert obj["num_vars"] == obj["num_clauses"] == obj["decisions"] == 0
    assert obj["conflicts"] == obj["propagations"] == obj["learned"] == 0
    strategy = strategy_from_json(json.loads(sp.read_text()))
    assert verify_strategy(game, strategy) is None


def test_solve_losing(tmp_path, capsys):
    # C4 at h = (3, 3, 3, 4) has no leaf, r lies outside Shearer's region,
    # and its heaviest clique, an edge, weighs 2/3 < 1: SAT route
    gp = tmp_path / "c4.json"
    c4 = make_graph(list("abcd"), {("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")})
    save_game(make_game(c4, {"a": 3, "b": 3, "c": 3, "d": 4}), str(gp))
    obj = _run_json(capsys, "solve", str(gp))
    assert obj["status"] == "losing"
    assert obj["route"] == "sat"
    assert obj["conflicts"] >= 1
    assert "restarts" in obj
    assert obj["learned"] == obj["conflicts"] - 1
    assert obj["propagations"] >= 1


def test_solve_losing_by_pendant(tmp_path, capsys):
    # Z(r) = 0 on P4 at h = 3, so r lies outside Shearer's region; the
    # leaves peel down to one vertex of hatness 2
    gp = tmp_path / "p4.json"
    save_game(uniform_game(path_graph(["a", "b", "c", "d"]), 3), str(gp))
    obj = _run_json(capsys, "solve", str(gp))
    assert (obj["status"], obj["route"]) == ("losing", "pendant")
    assert obj["num_clauses"] == obj["decisions"] == 0
    assert obj["reason"].startswith("peeled 3 leaves (a into b, ")
    assert obj["reason"].endswith("Z(r) = 1/2")


def test_solve_losing_by_region(tmp_path, capsys):
    # K3 has no leaf, and Z(r) = 1 - 3/4 at h = 4
    gp = tmp_path / "k3.json"
    save_game(uniform_game(complete_graph(["a", "b", "c"]), 4), str(gp))
    obj = _run_json(capsys, "solve", str(gp))
    assert obj["status"] == "losing"
    assert obj["route"] == "region"
    assert obj["num_clauses"] == obj["decisions"] == 0
    assert "Z(r) = 1/4" in obj["reason"]


def test_solve_in_region_with_a_leaf_reports_pendant(tmp_path, capsys):
    # K2 at h = (2, 3) lies in the region (Z(r) = 1/6), but b peels into a
    # first, with no drop, and the losing check tests the core {a}
    gp = tmp_path / "k2.json"
    save_game(make_game(complete_graph(["a", "b"]), {"a": 2, "b": 3}), str(gp))
    obj = _run_json(capsys, "solve", str(gp))
    assert (obj["status"], obj["route"]) == ("losing", "pendant")
    assert obj["num_clauses"] == obj["decisions"] == 0
    assert obj["reason"] == (
        "peeled 1 leaf (b into a); the core is in Shearer's region, Z(r) = 1/2"
    )


@pytest.mark.parametrize("value", ["0", "-5", "soon"])
def test_solve_rejects_timeout_below_one(tmp_path, capsys, value):
    gp = tmp_path / "k2.json"
    save_game(uniform_game(complete_graph(["a", "b"]), 2), str(gp))
    with pytest.raises(SystemExit) as stop:
        main(["solve", str(gp), "--timeout-ms", value])
    assert stop.value.code == 2
    assert "--timeout-ms" in capsys.readouterr().err


def test_solve_timeout_payload_leaves_out_phase_times(tmp_path, capsys):
    # C5 at h = 3 is losing, but no route settles it within 1 ms
    gp = tmp_path / "c5.json"
    names = list("abcde")
    c5 = make_graph(names, set(zip(names, names[1:] + names[:1])))
    save_game(uniform_game(c5, 3), str(gp))
    obj = _run_json(capsys, "solve", str(gp), "--timeout-ms", "1")
    assert (obj["status"], obj["route"]) == ("unknown", "sat")
    assert obj["reason"] == "timeout after 1 ms"
    assert set(obj) == {
        "status", "route", "reason", "num_vars", "num_clauses", "decisions",
        "conflicts", "restarts", "propagations", "learned",
    }


@pytest.mark.parametrize(
    "game, options, status",
    [
        (uniform_game(complete_graph(list("abc")), 4), [], "losing"),
        (
            uniform_game(make_graph(list("abcde"), set(zip("abcde", "bcdea"))), 3),
            ["--timeout-ms", "1"],
            "unknown",
        ),
    ],
    ids=["k3-region", "c5-timeout"],
)
def test_solve_emit_strategy_without_a_win_exits_2(tmp_path, capsys, game, options, status):
    # exit code 1 is left to verify-paper's failed criteria: no strategy
    # to write is an input error like any other, and no file is written
    gp, sp = tmp_path / "game.json", tmp_path / "none.json"
    save_game(game, str(gp))
    code = main(["solve", str(gp), *options, "--emit-strategy", str(sp)])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["status"] == status
    assert captured.err == "error: no strategy to emit (game not winning)\n"
    assert not sp.exists()


def test_certify_maximal_direct(tmp_path, capsys):
    gp = tmp_path / "k3.json"
    save_game(uniform_game(complete_graph(["a", "b", "c"]), 3), str(gp))
    obj = _run_json(capsys, "certify", "maximal", str(gp))
    assert obj["verdict"] == "maximal"
    assert obj["z_at_r"] == "0"
    assert obj["method"] == "chain"


def test_certify_maximal_direct_reports_no_corners(tmp_path, capsys):
    gp = tmp_path / "delta6.json"
    assert main(["build", "delta6", "-o", str(gp)]) == 0
    obj = _run_json(capsys, "certify", "maximal", str(gp))
    assert (obj["verdict"], obj["method"]) == ("maximal", "chain")
    assert "corners_checked" not in obj


def test_certify_losing(tmp_path, capsys):
    gp = tmp_path / "k2.json"
    save_game(make_game(complete_graph(["a", "b"]), {"a": 2, "b": 3}), str(gp))
    obj = _run_json(capsys, "certify", "losing", str(gp))
    assert obj["verdict"] == "losing"
    assert obj["z_at_r"] == "1/6"


@pytest.mark.parametrize(
    "game, pointer",
    [
        ({"vertices": ["a", "b"], "edges": [["a", "b"]],
          "hatness": {"a": True, "b": 2}}, "/hatness/a"),
        ({"vertices": ["a", "b"], "edges": [["a", "b"], ["a", "z"]],
          "hatness": {"a": 2, "b": 2}}, "/edges/1"),
    ],
)
def test_certify_losing_names_the_fault_of_a_malformed_game(tmp_path, capsys, game, pointer):
    gp = tmp_path / "bad.json"
    gp.write_text(json.dumps(game))
    assert main(["certify", "losing", str(gp)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {pointer}: ")


def test_indpoly_univariate(tmp_path, capsys):
    gp = tmp_path / "p4.json"
    save_game(uniform_game(path_graph(["a", "b", "c", "d"]), 2), str(gp))
    obj = _run_json(capsys, "indpoly", str(gp))
    assert obj["P"]["coefficients"] == ["1", "4", "3"]
    assert obj["U"]["coefficients"] == ["1", "-4", "3"]


def test_indpoly_at_point(tmp_path, capsys):
    gp = tmp_path / "k2.json"
    save_game(uniform_game(complete_graph(["a", "b"]), 2), str(gp))
    obj = _run_json(
        capsys, "indpoly", str(gp), "--at", "a=1/2", "b=1/2"
    )
    assert obj["P"] == "2"
    assert obj["Z"] == "0"


@pytest.mark.parametrize(
    "at, message",
    [
        (["a=1/2", "b=1/3", "zz=5"], "error: --at names unknown vertex 'zz'\n"),
        (["a=1/2", "b=1/3", "a=7"], "error: --at gives vertex 'a' twice\n"),
        ([], "error: --at missing vertices ['a', 'b']\n"),
        (["a=1/2", "b=x"], "error: not a rational number: 'x'\n"),
    ],
)
def test_indpoly_at_rejects_bad_input(tmp_path, capsys, at, message):
    # an unknown vertex, a repeated one and a bare --at used to be
    # dropped, overwritten and read as no --at at all; a value that is
    # not rational exited 1, where every other input error exits 2
    gp = tmp_path / "k2.json"
    save_game(uniform_game(complete_graph(["a", "b"]), 2), str(gp))
    code = main(["indpoly", str(gp), "--at", *at])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", message)


def test_muhat_p4(tmp_path, capsys):
    gp = tmp_path / "p4.json"
    save_game(uniform_game(path_graph(["a", "b", "c", "d"]), 2), str(gp))
    obj = _run_json(capsys, "muhat", str(gp), "--candidate", "1/3")
    assert obj["mu_hat"] == "3"


def test_roots_family(capsys):
    obj = _run_json(
        capsys, "roots", "--family", "Phi", "--n", "2",
        "--interval", "-2", "2", "--min-positive-root",
    )
    # Phi_2 = k^2 - 1: roots -1 and 1, all inside [-2, 2]
    assert obj["all_roots_inside"] is True
    assert obj["min_positive_root"] == "1"


def test_roots_readme_command(capsys):
    # A_8 = k^4 (k^4 + 8k^3 + 21k^2 + 20k + 5): its root 0 is not positive
    obj = _run_json(
        capsys, "roots", "--family", "A", "--n", "8",
        "--interval", "-4", "0", "--min-positive-root",
    )
    assert obj["all_roots_inside"] is True
    assert obj["min_positive_root"] is None


def test_roots_reversed_interval_is_error(capsys):
    code = main(["roots", "--family", "A", "--n", "3", "--interval", "0", "-4"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: empty interval\n"


def test_stats(tmp_path, capsys):
    gp = tmp_path / "p4.json"
    save_game(uniform_game(path_graph(["a", "b", "c", "d"]), 2), str(gp))
    obj = _run_json(capsys, "stats", str(gp))
    assert obj["vertices"] == 4
    assert obj["max_degree"] == 2
    assert obj["diameter"] == 3
    assert obj["chordal"] is True


def test_export_dot(tmp_path, capsys):
    gp = tmp_path / "k2.json"
    save_game(uniform_game(complete_graph(["a", "b"]), 2), str(gp))
    code, out = _run(capsys, "export", str(gp))
    assert code == 0
    assert out.startswith("graph {")
    assert '"a" -- "b";' in out


def test_verify_paper_single_item(capsys):
    code, out = _run(capsys, "verify-paper", "--only", "polynomial-identities")
    assert code == 0
    assert "PASS" in out
    assert "1/1 criteria passed" in out


def test_missing_file_is_error(tmp_path, capsys):
    code = main(["solve", str(tmp_path / "nope.json")])
    assert code == 2


def test_certify_malformed_expr_is_error(tmp_path, capsys):
    ep = tmp_path / "bad.expr.json"
    ep.write_text('{"op": "clique", "vertices": 5, "h": {}}')
    code = main(["certify", "maximal", str(ep)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: /vertices:")


@pytest.mark.parametrize(
    "command, obj",
    [
        (["solve"], {"vertices": ["a", "b"], "edges": [[["a"], "b"]],
                     "hatness": {"a": 2, "b": 2}}),
        (["stats"], {"vertices": ["a", "b"], "edges": [[{"x": 1}, "b"]]}),
    ],
)
def test_edge_endpoint_that_is_not_a_name_is_error(tmp_path, capsys, command, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code = main(command + [str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: /edges/0: edge {obj['edges'][0]!r} is not a pair of names\n"


@pytest.mark.parametrize(
    "command", [["stats"], ["indpoly"], ["muhat"], ["export"], ["certify", "maximal"]]
)
def test_non_object_json_is_error(tmp_path, capsys, command):
    path = tmp_path / "five.json"
    path.write_text("5\n")
    code = main(command + [str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: /: expected an object\n"


def test_certify_losing_deep_path(tmp_path, capsys):
    # Shearer's region of a long path ends near r = 1/4, so h = 5 is
    # inside it (h = 3 would not be, although Z(r) > 0 there)
    n = 1200
    gp = tmp_path / "p1200.json"
    save_game(uniform_game(path_graph([f"v{i}" for i in range(n)]), 5), str(gp))
    # z_k = z_{k-1} - x_k z_{k-2} with z_0 = z_{-1} = 1 and x_k = 1/5
    z, z_prev = Fraction(1), Fraction(1)
    for _ in range(n):
        z, z_prev = z - Fraction(1, 5) * z_prev, z
    assert z > 0
    obj = _run_json(capsys, "certify", "losing", str(gp))
    assert obj == {
        "verdict": "losing",
        "z_at_r": frac_str(z),
        "rule": LosingCertificate.rule,
    }


def test_certify_maximal_compositional_payload(tmp_path, capsys):
    game_path = tmp_path / "chain.json"
    expr_path = tmp_path / "chain.expr.json"
    code, _ = _run(
        capsys,
        "build", "chain", "--n", "2", "--l", "4",
        "-o", str(game_path), "--expr", str(expr_path),
    )
    assert code == 0
    assert _run_json(capsys, "certify", "maximal", str(expr_path)) == {
        "verdict": "maximal",
        "z_at_r": "0",
        "method": "compositional",
        "justification": "precise clique leaves are maximal; the sum "
        "constructor preserves maximality",
    }


def test_certify_maximal_refuted_payload(tmp_path, capsys):
    # P4 at h = 1: Z(r) = 1 - 4 + 3 = 0, and the chain's first prefix, one
    # vertex at r = 1, already has Z = 0: the witness keeps that vertex
    gp = tmp_path / "p4.json"
    save_game(uniform_game(path_graph(["a", "b", "c", "d"]), 1), str(gp))
    assert _run_json(capsys, "certify", "maximal", str(gp)) == {
        "verdict": "not-maximal",
        "reason": "Z = 0 on the first 1 of 4 vertices of the chain, a corner "
        "other than r with Z <= 0",
        "witness_point": {"a": "0", "b": "0", "c": "0", "d": "1"},
        "witness_value": "0",
    }


def test_certify_deeply_nested_expr_is_error(tmp_path, capsys):
    depth = 3000
    leaf = '{"op": "clique", "vertices": ["a"], "h": {"a": 1}}'
    text = '{"op": "sum", "S": [], "v": "a", "right": %s, "left": ' % leaf
    ep = tmp_path / "deep.expr.json"
    ep.write_text(text * depth + leaf + "}" * depth)
    code = main(["certify", "maximal", str(ep)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "recursion" in err


def test_build_too_deep_expr_is_error(tmp_path, capsys):
    # H_500^4 nests 1,001 JSON levels, past what json writes
    ep = tmp_path / "chain.expr.json"
    code = main(["build", "chain", "--n", "500", "--expr", str(ep)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: /: nested past the JSON nesting limit")
    assert not ep.exists()


def test_readme_payloads_match_json(tmp_path, capsys, monkeypatch):
    # every payload the README's commands write, through the joined
    # writer and through json itself
    payloads = []
    dumps = hio.canonical_dumps

    def recorded(obj):
        payloads.append(obj)
        return dumps(obj)

    monkeypatch.setattr(hio, "canonical_dumps", recorded)
    monkeypatch.chdir(tmp_path)
    save_game(make_game(complete_graph(["a", "b"]), {"a": 2, "b": 3}), "game.json")
    at = ["c0v0=1/2", "c0v1=1/4", "c0v2=1/4", "c1v0=1/2", "c1v1=1/4", "c1v2=1/4"]
    commands = [
        ["build", "delta6"],
        ["build", "chain", "--n", "2", "--l", "4", "-o", "chain.json",
         "--expr", "chain.expr.json"],
        ["build", "scary", "--n", "3"],
        ["solve", "chain.json", "--emit-strategy", "strategy.json"],
        ["certify", "maximal", "chain.json"],
        ["certify", "maximal", "chain.expr.json"],
        ["certify", "losing", "game.json"],
        ["indpoly", "chain.json"],
        ["indpoly", "chain.json", "--at", *at],
        ["muhat", "chain.json", "--candidate", "1/4"],
        ["roots", "--family", "A", "--n", "8", "--interval", "-4", "0",
         "--min-positive-root"],
        ["stats", "chain.json"],
    ]
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert len(payloads) == len(commands) + 3  # game, expression, strategy
    for obj in payloads:
        assert dumps(obj) == json.dumps(obj, sort_keys=True, indent=2) + "\n"


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
