import json

import pytest

from hatlab.cli import main
from hatlab.games import make_game, uniform_game
from hatlab.graphs import complete_graph, path_graph
from hatlab.io import save_game


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


def test_solve_winning_with_strategy(tmp_path, capsys):
    gp = tmp_path / "k2.json"
    sp = tmp_path / "strategy.json"
    save_game(uniform_game(complete_graph(["a", "b"]), 2), str(gp))
    obj = _run_json(capsys, "solve", str(gp), "--emit-strategy", str(sp))
    assert obj["status"] == "winning"
    strat = json.loads(sp.read_text())
    assert set(strat) == {"a", "b"}


def test_solve_losing(tmp_path, capsys):
    gp = tmp_path / "k2.json"
    save_game(make_game(complete_graph(["a", "b"]), {"a": 2, "b": 3}), str(gp))
    obj = _run_json(capsys, "solve", str(gp))
    assert obj["status"] == "losing"


def test_certify_maximal_direct(tmp_path, capsys):
    gp = tmp_path / "k3.json"
    save_game(uniform_game(complete_graph(["a", "b", "c"]), 3), str(gp))
    obj = _run_json(capsys, "certify", "maximal", str(gp))
    assert obj["verdict"] == "maximal"
    assert obj["z_at_r"] == "0"
    assert obj["method"] == "corner-check"


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


def test_certify_losing_deep_path_is_error(tmp_path, capsys):
    gp = tmp_path / "p1200.json"
    save_game(uniform_game(path_graph([f"v{i}" for i in range(1200)]), 3), str(gp))
    code = main(["certify", "losing", str(gp)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and "recursion" in err


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
