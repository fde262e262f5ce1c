from fractions import Fraction

import pytest

from hatlab.algebra import CliqueLeaf, ExprError, Product, SumLose
from hatlab.certify import (
    CertifyError,
    Inconclusive,
    LosingCertificate,
    MaximalityCertificate,
    Refutation,
    check_maximal_compositional,
    check_maximal_direct,
    losing_by_Z_positive,
    mu_hat_chordal,
)
from hatlab.games import make_game, uniform_game
from hatlab.graphs import complete_graph, make_graph, path_graph


def test_precise_clique_is_maximal_direct():
    game = uniform_game(complete_graph(["a", "b", "c"]), 3)
    cert = check_maximal_direct(game)
    assert isinstance(cert, MaximalityCertificate)
    assert cert.z_at_r == 0
    assert cert.method == "corner-check"
    assert cert.corner_count == 7


def test_losing_clique_refuted():
    game = uniform_game(complete_graph(["a", "b"]), 3)
    out = check_maximal_direct(game)
    assert isinstance(out, Refutation)
    assert out.witness_value == Fraction(1, 3)


def test_h2_path_is_maximal_direct():
    # the product of two precise K2s: P3 with h = (2, 4, 2)
    game = make_game(path_graph(["a", "b", "c"]), {"a": 2, "b": 4, "c": 2})
    cert = check_maximal_direct(game)
    assert isinstance(cert, MaximalityCertificate)


def test_direct_check_respects_cutoff():
    game = uniform_game(path_graph([f"v{i}" for i in range(23)]), 2)
    with pytest.raises(CertifyError, match="cutoff"):
        check_maximal_direct(game)


def test_compositional_maximality():
    k2 = CliqueLeaf(("a", "b"), {"a": 2, "b": 2}, {})
    e = Product(k2, "b", CliqueLeaf(("b", "c"), {"b": 2, "c": 2}, {}), "b")
    cert = check_maximal_compositional(e)
    assert isinstance(cert, MaximalityCertificate)
    assert cert.method == "compositional"
    assert cert.z_at_r == 0


def test_compositional_inconclusive_on_losing_rules():
    k3 = CliqueLeaf(("a", "b"), {"a": 3, "b": 3}, {})
    e = SumLose(k3, "a", CliqueLeaf(("v", "w"), {"v": 2, "w": 3}, {}), "v")
    out = check_maximal_compositional(e)
    assert isinstance(out, Inconclusive)


def test_compositional_raises_on_failed_sum_lose_hypothesis():
    # h2(v) = 3, not 2: the losing-sum theorem does not apply
    k3 = CliqueLeaf(("a", "b"), {"a": 3, "b": 3}, {})
    e = SumLose(k3, "a", CliqueLeaf(("v", "w"), {"v": 3, "w": 3}, {}), "v")
    with pytest.raises(ExprError, match="h2"):
        check_maximal_compositional(e)


def test_losing_by_Z_positive():
    game = make_game(complete_graph(["a", "b"]), {"a": 2, "b": 3})
    cert = losing_by_Z_positive(game)
    assert isinstance(cert, LosingCertificate)
    assert cert.z_at_r == Fraction(1, 6)


def test_losing_rule_silent_at_zero():
    game = uniform_game(complete_graph(["a", "b"]), 2)
    out = losing_by_Z_positive(game)
    assert isinstance(out, Inconclusive)


def test_mu_hat_chordal_p4():
    res = mu_hat_chordal(path_graph(["a", "b", "c", "d"]))
    assert res.value == 3
    assert res.interval is None
    assert sorted(res.elimination_ordering) == ["a", "b", "c", "d"]


def test_mu_hat_chordal_k3():
    res = mu_hat_chordal(complete_graph(["a", "b", "c"]))
    assert res.value == 3


def test_mu_hat_rejects_non_chordal():
    c4 = make_graph(
        ["a", "b", "c", "d"],
        {("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")},
    )
    with pytest.raises(CertifyError, match="chordal"):
        mu_hat_chordal(c4)


def test_mu_hat_candidate_speedup():
    res = mu_hat_chordal(path_graph(["a", "b", "c", "d"]), candidate=Fraction(1, 3))
    assert res.value == 3
