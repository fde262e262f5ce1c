import random
from fractions import Fraction

import pytest

from hatlab import gallery, graphs
from hatlab.algebra import (
    CliqueLeaf,
    Certificate,
    ExprError,
    LOSING,
    LOSING_RULES,
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
from hatlab.games import GameError, fraction_vector, glue_hatness, make_game
from hatlab.graphs import GraphError, complete_graph


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
    assert conclude_hg(e).value is None
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
    assert conclude_muhat(e).value is None
    e2 = Product(
        _k("ab", {"a": 3, "b": 3}, {"a": 1, "b": 1}),
        "b",
        _k("bc", {"b": 3, "c": 3}, {"b": 1, "c": 1}),
        "b",
    )
    assert conclude_muhat(e2).value is None


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
    assert got.value is None and "g != 1" in got.reason


# -- reference evaluator ------------------------------------------------
#
# The recursive evaluator eval_expr replaced: it rebuilds the composite
# game at every node from graphs.clique_join and games.glue_hatness.  It
# sums the clique criterion on its own, in Fractions.


def _reference_leaf(leaf):
    game = make_game(complete_graph(leaf.vertices), leaf.h, leaf.g)
    total = sum(fraction_vector(game).values(), Fraction(0))
    status = WINNING if total >= 1 else LOSING
    return Certificate(
        game,
        status,
        "" if total == 1 else f"non-precise clique leaf on {list(leaf.vertices)}",
    )


def _reference_join(rule, cl, S, cr, v):
    if not S:
        raise ExprError(f"{rule}: the glued clique S must not be empty")
    for s in S:
        if s not in cl.game.graph.index:
            raise ExprError(f"{rule}: vertex {s!r} missing from left operand")
    if v not in cr.game.graph.index:
        raise ExprError(f"{rule}: vertex {v!r} missing from right operand")
    graph = graphs.clique_join(cl.game.graph, S, cr.game.graph, v)
    h = glue_hatness(cl.game.h, S, cr.game.h, v)
    g = glue_hatness(cl.game.g, S, cr.game.g, v)
    game = make_game(graph, h, g)
    status = WINNING if cl.status == WINNING and cr.status == WINNING else UNKNOWN
    return Certificate(game, status, cl.obstacle or cr.obstacle)


def _reference_eval(e):
    if isinstance(e, CliqueLeaf):
        return _reference_leaf(e)
    if isinstance(e, Sum):
        return _reference_join(
            "sum", _reference_eval(e.left), e.S, _reference_eval(e.right), e.v
        )
    if isinstance(e, Product):
        return _reference_join(
            "product", _reference_eval(e.left), (e.A,), _reference_eval(e.right), e.v
        )
    if isinstance(e, Substitute):
        inner = _reference_eval(e.inner)
        outer = _reference_eval(e.outer)
        return _reference_join(
            "substitute", inner, inner.game.graph.vertices, outer, e.at
        )
    if isinstance(e, SumLose):
        cl, cr = _reference_eval(e.left), _reference_eval(e.right)
        if cl.status != LOSING or cr.status != LOSING:
            raise ExprError("sum_lose: both operands must carry Losing status")
        if not (cl.game.is_classic() and cr.game.is_classic()):
            raise ExprError("sum_lose: the losing-sum theorem covers classic games")
        if e.A not in cl.game.h:
            raise ExprError(f"sum_lose: vertex {e.A!r} missing from left operand")
        if e.v not in cr.game.h:
            raise ExprError(f"sum_lose: vertex {e.v!r} missing from right operand")
        if cr.game.h[e.v] != 2:
            raise ExprError(
                f"sum_lose: failed hypothesis h2(A) = 2 (got {cr.game.h[e.v]})"
            )
        if cl.game.h[e.A] < 2:
            raise ExprError("sum_lose: failed hypothesis h1(A) >= h2(A) = 2")
        graph = graphs.vertex_glue(cl.game.graph, e.A, cr.game.graph, e.v)
        h = {"L/" + u: val for u, val in cl.game.h.items()}
        h.update(("R/" + u, val) for u, val in cr.game.h.items() if u != e.v)
        return Certificate(make_game(graph, h), LOSING, LOSING_RULES)
    if isinstance(e, PendantLose):
        base = _reference_eval(e.base)
        if base.status != LOSING:
            raise ExprError("pendant_lose: the base game must carry Losing status")
        if not base.game.is_classic():
            raise ExprError("pendant_lose: the pendant theorem covers classic games")
        if e.B not in base.game.h:
            raise ExprError(f"pendant_lose: vertex {e.B!r} missing from base")
        if e.A in base.game.h:
            raise ExprError(f"pendant_lose: pendant name {e.A!r} already in base")
        bg = base.game.graph
        graph = graphs.make_graph(
            tuple(bg.vertices) + (e.A,), set(bg.edges) | {(e.A, e.B)}
        )
        h = dict(base.game.h)
        h[e.B] = 2 * h[e.B] - 1
        h[e.A] = 2
        return Certificate(make_game(graph, h), LOSING, LOSING_RULES)
    raise ExprError(f"not a game expression: {e!r}")


def _outcome(evaluate, e):
    """The certificate with its vertex and h orders, or the error."""
    try:
        cert = evaluate(e)
    except (ExprError, GraphError, GameError) as err:
        return type(err), str(err)
    return cert, cert.game.graph.vertices, list(cert.game.h), list(cert.game.g)


def _gallery_exprs():
    yield "delta6", gallery.build_delta6_hg8()
    yield "scary3", gallery.build_scary(3)
    yield "scary4", gallery.build_scary(4)
    for k in (2, 3, 4):
        yield f"delta_plus_{k}", gallery.build_delta_plus_k(k).expr
    for n in range(2, 6):
        for l in range(3, 7):
            built = gallery.build_chain(n, l)
            yield f"chain_{n}_{l}", built.expr
            if built.muhat_expr is not None:
                yield f"chain_{n}_{l}_muhat", built.muhat_expr


@pytest.mark.parametrize("name, e", list(_gallery_exprs()))
def test_eval_matches_reference_on_gallery(name, e):
    assert _outcome(eval_expr, e) == _outcome(_reference_eval, e)


# leaf names include composite-looking ones, so that a name resolves
# only by its full path
_NAMES = ("a", "b", "c", "d", "L/a", "R/b")
_ABSENT = ("zz", "L/zz", "R/R/a")


def _random_leaf(rng, losing=False):
    verts = rng.sample(_NAMES, rng.choice((0, 1, 1, 2, 2, 3, 3, 4)))
    if losing:
        h = {v: rng.randint(len(verts) + 1, 5) for v in verts}  # loses at g = 1
    elif verts and rng.random() < 0.3:
        h = {v: len(verts) for v in verts}  # precise
    else:
        h = {v: rng.choice((1, 2, 2, 3, 4, 5)) for v in verts}
    g = {}
    if verts and rng.random() < 0.15:
        g = {verts[0]: rng.randint(1, 3)}
    fault = rng.random() if verts else 1
    if fault < 0.02:
        verts.append(verts[0])
    elif fault < 0.035:
        h[verts[0]] = rng.choice((0, True, "2", 1.0))
    elif fault < 0.045:
        del h[verts[0]]
    elif fault < 0.055:
        h["zz"] = 2
    elif fault < 0.065:
        g[verts[-1]] = rng.choice((0, True))
    return CliqueLeaf(tuple(verts), h, g)


def _live_names(e):
    try:
        return list(_reference_eval(e).game.vertices)
    except (ExprError, GraphError, GameError):
        return []


def _pick(rng, names):
    """Mostly a vertex of the operand, sometimes one it lacks."""
    if names and rng.random() < 0.93:
        return rng.choice(names)
    return rng.choice(_ABSENT)


def _random_expr(rng, depth, losing=False):
    """A random expression; `losing` favours operands of the losing rules."""
    if depth <= 0 or rng.random() < 0.2:
        return _random_leaf(rng, losing and rng.random() < 0.8)
    if rng.random() < 0.01:
        return "not an expression"
    ops = ("sum_lose", "pendant_lose") if losing and rng.random() < 0.7 else (
        "sum", "product", "substitute", "sum_lose", "pendant_lose")
    op = rng.choice(ops)
    if op == "pendant_lose":
        base = _random_expr(rng, depth - 1, losing=True)
        names = _live_names(base)
        fresh = "p" if rng.random() < 0.8 else _pick(rng, names)
        return PendantLose(base, _pick(rng, names), fresh)
    if op == "substitute":
        inner = _random_leaf(rng) if rng.random() < 0.7 else _random_expr(rng, 1)
        outer = _random_expr(rng, depth - 1)
        return Substitute(inner, outer, _pick(rng, _live_names(outer)))
    lose = op == "sum_lose"
    left = _random_expr(rng, depth - 1, lose)
    if lose and rng.random() < 0.5:
        # a pendant brick supplies the h = 2 vertex the theorem glues
        right = PendantLose(_random_leaf(rng, losing=True), "a", "p")
        v = "p"
    else:
        right = _random_expr(rng, depth - 1, lose)
        v = _pick(rng, _live_names(right))
    names = _live_names(left)
    if op == "sum":
        size = min(len(names), rng.randint(1, 3)) if rng.random() < 0.9 else 0
        S = rng.sample(names, size)
        if rng.random() < 0.1:
            S.append(_pick(rng, names))
        return Sum(left, tuple(S), right, v)
    if op == "product":
        return Product(left, _pick(rng, names), right, v)
    return SumLose(left, _pick(rng, names), right, v)


def test_eval_matches_reference_on_random_expressions():
    rng = random.Random(20260419)
    statuses, errors = [], []
    for _ in range(400):
        e = _random_expr(rng, rng.randint(1, 4))
        got = _outcome(eval_expr, e)
        assert got == _outcome(_reference_eval, e), e
        if isinstance(got[0], Certificate):
            statuses.append(got[0].status)
        else:
            errors.append(got[1])
    # the sample reaches every status and every failed check but one:
    # a losing operand has h >= 2 everywhere, so h1(A) >= 2 always holds
    assert min(statuses.count(s) for s in (WINNING, LOSING, UNKNOWN)) >= 10
    for text in (
        "must not be empty",
        "missing from left operand",
        "missing from right operand",
        "is not a clique",
        "must carry Losing status",
        "covers classic games",
        "h2(A) = 2",
        "missing from base",
        "already in base",
        "duplicate vertex",
        "invalid hatness",
        "invalid guess count",
        "not a game expression",
    ):
        assert any(text in message for message in errors), text


def test_eval_resolves_names_by_their_full_path():
    k = lambda *vs: CliqueLeaf(vs, {v: 3 for v in vs})
    # L/a, L/b, R/c; the pendant vertex R/p is glued away
    brick = SumLose(k("a", "b"), "a", PendantLose(k("c"), "c", "p"), "p")
    valid = [
        # a pendant named as a vertex glued away before it
        PendantLose(brick, "L/a", "R/p"),
        # a pendant above a join, named like a composite vertex, and the
        # join's own vertices seen through it
        Product(PendantLose(brick, "L/a", "L/q"), "L/q", _k("vw", 2), "v"),
        Product(PendantLose(brick, "L/a", "L/q"), "L/b", _k("vw", 2), "v"),
        Sum(PendantLose(brick, "L/a", "q"), ("L/a", "q"), _k("vw", 2), "v"),
        # a name that extends a pendant's name, below a join
        Product(
            Product(_k("vw", 2), "v", PendantLose(k("pb", "c"), "c", "p"), "c"),
            "R/pb", _k("xy", 2), "x",
        ),
        # leaf vertices whose own names look composite
        Product(k("L/a", "a"), "L/a", _k("vw", 2), "v"),
        Product(_k("vw", 2), "v", k("L/a", "a"), "L/a"),
        Substitute(k("L/a", "a"), brick, "R/c"),
    ]
    invalid = [
        Product(k("L/a", "a"), "L/L/a", _k("vw", 2), "v"),
        PendantLose(brick, "R/p", "q"),  # R/p is gone
        PendantLose(brick, "L/a", "R/c"),
        Sum(brick, ("R/c",), _k("vw", 2), "R/v"),
        Sum(brick, ("L/b", "R/c", "L/b"), _k("vw", 2), "v"),  # not a clique
    ]
    for e in valid + invalid:
        got = _outcome(eval_expr, e)
        assert got == _outcome(_reference_eval, e), e
        assert isinstance(got[0], Certificate) == (e in valid), got


def test_eval_has_no_recursion_limit():
    # H_2000^4 nests 4,000 joins, beyond the reference's recursion depth,
    # so the composite is compared with the chain graph instead
    cert = eval_expr(gallery.build_chain(2000, 4).expr)
    graph = gallery.build_chain_graph(2000, 4)
    assert cert.status == WINNING
    assert len(cert.game.vertices) == len(graph.vertices) == 4002
    assert len(cert.game.graph.edges) == len(graph.edges)
