from fractions import Fraction

import pytest

from hatlab.algebra import (
    CliqueLeaf,
    ExprError,
    LOSING,
    PendantLose,
    Product,
    Substitute,
    Sum,
    SumLose,
    UNKNOWN,
    WINNING,
    conclude_hg,
    conclude_muhat,
    eval_expr,
)


def _k(verts, h, g=None):
    vs = tuple(verts)
    hd = {v: h for v in vs} if isinstance(h, int) else dict(h)
    gd = {} if g is None else ({v: g for v in vs} if isinstance(g, int) else dict(g))
    return CliqueLeaf(vs, hd, gd)


def test_precise_clique_leaf_is_winning_and_maximal():
    cert = eval_expr(_k("abc", 3))
    assert cert.status == WINNING
    assert cert.maximal and cert.obstacle == ""


def test_losing_clique_leaf():
    cert = eval_expr(_k("abc", 4))
    assert cert.status == LOSING
    assert not cert.maximal
    assert cert.obstacle == "non-precise clique leaf on ['a', 'b', 'c']"


def test_product_of_precise_k2s_is_winning_path():
    e = Product(_k("ab", 2), "b", _k("bc", 2), "b")
    cert = eval_expr(e)
    assert cert.status == WINNING
    # hatness multiplies on the glued vertex: 2*2 = 4
    assert cert.game.h == {"L/a": 2, "L/b": 4, "R/c": 2}
    assert set(cert.game.graph.vertices) == {"L/a", "L/b", "R/c"}


def test_sum_glues_whole_clique():
    e = Sum(_k("abc", 3), ("a", "b"), _k("vw", 2), "v")
    cert = eval_expr(e)
    assert cert.status == WINNING
    assert cert.game.h["L/a"] == 6 and cert.game.h["L/b"] == 6
    assert cert.game.h["L/c"] == 3 and cert.game.h["R/w"] == 2


def test_substitute_complete_graph_multiplies_hatness():
    e = Substitute(_k("ij", 2), _k("abc", 3), "b")
    cert = eval_expr(e)
    assert cert.status == WINNING
    # both inner copies carry 2*3 = 6
    inner = [v for v in cert.game.h if v.startswith("L/")]
    assert sorted(cert.game.h[v] for v in inner) == [6, 6]


def test_sum_of_losing_operand_is_unknown():
    e = Sum(_k("ab", 3), ("a",), _k("vw", 2), "v")
    assert eval_expr(e).status == UNKNOWN


def test_sum_with_empty_clique_is_rejected():
    # S = () would drop v without gluing it anywhere: the disjoint union
    # of two precise K2s minus a vertex is winning but not maximal
    with pytest.raises(ExprError, match="empty"):
        eval_expr(Sum(_k("ab", 2), (), _k("ab", 2), "a"))


def test_obstacle_passes_on_first_operand_reason():
    e = Product(_k("ab", 3), "a", _k("vw", 4), "v")
    assert eval_expr(e).obstacle == "non-precise clique leaf on ['a', 'b']"
    lose = PendantLose(_k("ab", 3), "a", "p")
    assert "constructors" in eval_expr(lose).obstacle


def test_sum_lose_requires_losing_operands():
    with pytest.raises(ExprError, match="Losing"):
        eval_expr(SumLose(_k("ab", 2), "a", _k("vw", 3), "v"))


def test_sum_lose_requires_h2_equal_two():
    with pytest.raises(ExprError, match="h2"):
        eval_expr(SumLose(_k("ab", 3), "a", _k("vw", 3), "v"))


def test_sum_lose_glues_without_multiplying():
    left = _k("ab", 3)
    right = _k("vw", {"v": 2, "w": 3})
    cert = eval_expr(SumLose(left, "a", right, "v"))
    assert cert.status == LOSING
    assert cert.game.h == {"L/a": 3, "L/b": 3, "R/w": 3}
    assert cert.game.graph.has_edge("L/a", "R/w")
    assert not cert.game.graph.has_edge("L/b", "R/w")


def test_pendant_lose_updates_hatness():
    cert = eval_expr(PendantLose(_k("ab", 3), "a", "p"))
    assert cert.status == LOSING
    assert cert.game.h == {"a": 5, "b": 3, "p": 2}
    assert cert.game.graph.has_edge("a", "p")


def test_pendant_lose_rejects_winning_base():
    with pytest.raises(ExprError, match="Losing"):
        eval_expr(PendantLose(_k("ab", 2), "a", "p"))


def test_conclude_hg_constant_hatness():
    e = Product(_k("ab", 2), "b", _k("bc", 2), "b")
    # resulting h: L/a=2, L/b=4, R/c=2 -- not constant
    assert not conclude_hg(e).applicable
    # substituting K2 into both vertices of K2 gives K4 with h identically 4
    e4 = Substitute(_k("ij", 2), Substitute(_k("ij", 2), _k("ab", 2), "a"), "R/b")
    got = conclude_hg(e4)
    assert got.value == 4


def test_conclude_hg_rejects_losing_rules():
    e = SumLose(_k("ab", 3), "a", _k("vw", {"v": 2, "w": 3}), "v")
    got = conclude_hg(e)
    assert got.value is None and "constructors" in got.reason


def test_conclude_muhat_constant_ratio():
    e = Product(
        _k("ab", {"a": 2, "b": 2}),
        "b",
        _k("bc", {"b": 2, "c": 2}),
        "b",
    )
    # L/b has h=4, g=1 -- ratio 4 differs from 2
    assert not conclude_muhat(e).applicable
    e2 = Product(
        _k("ab", {"a": 3, "b": 3}, {"a": 1, "b": 1}),
        "b",
        _k("bc", {"b": 3, "c": 3}, {"b": 1, "c": 1}),
        "b",
    )
    assert not conclude_muhat(e2).applicable


def test_conclude_muhat_constant_ratio_chain():
    from hatlab.gallery import build_chain

    got = conclude_muhat(build_chain(2, 3).muhat_expr)
    assert got.value == Fraction(3)


def test_conclude_hg_rejects_glued_multi_guess_leaf():
    # the right leaf is precise (2/4 + 1/2 = 1) but guesses twice at v;
    # gluing v away carries g(v) = 2 onto L/b, so the game is not classic
    right = _k("vw", {"v": 4, "w": 2}, {"v": 2, "w": 1})
    e = Product(_k("ab", 2), "b", right, "v")
    assert eval_expr(e).maximal
    got = conclude_hg(e)
    assert not got.applicable and "g != 1" in got.reason
