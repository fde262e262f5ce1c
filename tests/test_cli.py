import json
from fractions import Fraction

import pytest

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
    ],
)
def test_build_zero_option_is_not_the_default(capsys, argv, message):
    code = main(["build", *argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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


def test_certify_maximal_direct(tmp_path, capsys):
    gp = tmp_path / "k3.json"
    save_game(uniform_game(complete_graph(["a", "b", "c"]), 3), str(gp))
    obj = _run_json(capsys, "certify", "maximal", str(gp))
    assert obj["verdict"] == "maximal"
    assert obj["z_at_r"] == "0"
    assert obj["method"] == "ray"


def test_certify_maximal_direct_reports_no_corners(tmp_path, capsys):
    gp = tmp_path / "delta6.json"
    assert main(["build", "delta6", "-o", str(gp)]) == 0
    obj = _run_json(capsys, "certify", "maximal", str(gp))
    assert (obj["verdict"], obj["method"]) == ("maximal", "ray")
    assert "corners_checked" not in obj


def test_certify_losing(tmp_path, capsys):
    gp = tmp_path / "k2.json"
    save_game(make_game(complete_graph(["a", "b"]), {"a": 2, "b": 3}), str(gp))
    obj = _run_json(capsys, "certify", "losing", str(gp))
    assert obj["verdict"] == "losing"
    assert obj["z_at_r"] == "1/6"


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


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
