from fractions import Fraction

import pytest

from hatlab.algebra import LOSING, WINNING, conclude_hg, conclude_muhat, eval_expr
from hatlab.gallery import (
    GalleryError,
    build_chain,
    build_chain_graph,
    build_delta6_hg8,
    build_delta_plus_k,
    build_extension_example,
    build_scary,
    delta_plus_k_ratio,
)
from hatlab.graphs import stats
from hatlab.poly import UnivariatePoly


def test_delta6_shape_and_status():
    e = build_delta6_hg8()
    cert = eval_expr(e)
    st = stats(cert.game.graph)
    assert len(cert.game.graph.vertices) == 31
    assert st.max_degree == 6
    assert cert.status == WINNING
    assert set(cert.game.h.values()) == {8}
    assert conclude_hg(e).value == 8


def test_scary_3():
    e = build_scary(3)
    cert = eval_expr(e)
    st = stats(cert.game.graph)
    assert len(cert.game.graph.vertices) == 31
    assert st.max_degree == 6
    assert conclude_hg(e).value == 8
    assert Fraction(8, 6) == Fraction(4, 3)


def test_scary_4():
    e = build_scary(4)
    cert = eval_expr(e)
    st = stats(cert.game.graph)
    assert len(cert.game.graph.vertices) == 585
    assert st.max_degree == 12
    assert conclude_hg(e).value == 16


def test_scary_rejects_small_n():
    with pytest.raises(GalleryError):
        build_scary(2)


def test_delta_plus_k_ratio_formula():
    assert delta_plus_k_ratio(1) == Fraction(4, 3)
    assert delta_plus_k_ratio(100) == Fraction(800, 699)


def test_delta_plus_2():
    built = build_delta_plus_k(2)
    cert = eval_expr(built.expr)
    st = stats(cert.game.graph)
    assert built.m == 1
    assert len(cert.game.graph.vertices) == 31
    assert st.max_degree == 6
    assert conclude_hg(built.expr).value == 8


def test_delta_plus_3():
    built = build_delta_plus_k(3)
    cert = eval_expr(built.expr)
    st = stats(cert.game.graph)
    assert built.m == 2
    assert len(cert.game.graph.vertices) == 62
    assert st.max_degree == 13
    assert conclude_hg(built.expr).value == 16
    assert built.ratio == Fraction(16, 13)


def test_chain_graph_sizes():
    g = build_chain_graph(3, 6)
    # end cliques K5, inner K4: 14 vertices, bridges add 2 edges
    assert len(g.vertices) == 14
    gt = build_chain_graph(3, 6, "tilde")
    assert len(gt.vertices) == 13
    gm = build_chain_graph(3, 6, "minus")
    assert len(gm.edges) == len(g.edges) - 1


def test_even_chain_certificate():
    built = build_chain(2, 4)
    cert = eval_expr(built.expr)
    assert cert.status == WINNING
    assert set(cert.game.h.values()) == {4}
    assert conclude_hg(built.expr).value == 4


def test_odd_chain_certificates():
    built = build_chain(2, 3)
    lose = eval_expr(built.expr)
    assert lose.status == LOSING
    assert set(lose.game.h.values()) == {3}
    assert conclude_muhat(built.muhat_expr).value == 3


@pytest.mark.parametrize("n", range(2, 7))
def test_l3_chain_certificate_is_the_chain(n):
    # for l = 3 the inner cliques are K_1 and the chain is the path P_{n+2}
    lose = eval_expr(build_chain(n, 3).expr)
    assert lose.status == LOSING
    assert set(lose.game.h.values()) == {3}
    chain = build_chain_graph(n, 3)
    got, want = stats(lose.game.graph), stats(chain)
    # connected, n + 1 edges and degrees at most 2: both are P_{n+2}
    assert got.connected and want.connected
    assert len(lose.game.graph.edges) == len(chain.edges) == n + 1
    assert sorted(got.degrees.values()) == sorted(want.degrees.values())
    assert want.max_degree == 2


def test_chain_rejects_bad_variant():
    with pytest.raises(GalleryError):
        build_chain_graph(2, 4, "plus")


def test_extension_example_1_shape():
    n, k = 4, 2
    ex = build_extension_example(1, n, k)
    assert ex.u_poly.degree() == n
    assert ex.kind == 1
    assert ex.sizes == (3, 3, 3, 3)


def test_extension_example_2_sizes():
    ex = build_extension_example(2, 5, 1)
    assert ex.sizes == (4, 2, 2, 2, 4)
    assert ex.kind == 1


def test_extension_example_3_second_kind():
    ex = build_extension_example(3, 4, 2)
    assert ex.kind == 2
    assert ex.sizes == (3, 2, 2, 3)
    assert len(ex.graph.vertices) == sum(ex.sizes)


def test_extension_example_root_candidates():
    # smallest positive roots: 1/(k+4) for example 2, 1/(k+2) for example 3
    k = 2
    ex2 = build_extension_example(2, 4, k)
    assert ex2.u_poly(Fraction(1, k + 4)) == 0
    ex3 = build_extension_example(3, 4, k)
    assert ex3.u_poly(Fraction(1, k + 2)) == 0


def test_extension_example_without_a_graph_keeps_u():
    # H(2, 1, 1, 2): the inner cliques are smaller than their degree 2,
    # so no graph exists, but U of the recurrence still has the root 1/3
    ex = build_extension_example(3, 4, 1)
    assert ex.graph is None
    assert ex.sizes == (2, 1, 1, 2)
    assert ex.u_poly == UnivariatePoly.of(1, -6, 10, -2, -3)
    assert ex.u_poly(Fraction(1, 3)) == 0


def test_extension_example_rejects_bad_which():
    with pytest.raises(GalleryError):
        build_extension_example(4, 3, 1)
