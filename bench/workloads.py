"""The solve and certify workloads: seeded inputs, one item, and its check.

An item is a dict with a ``kind``, the JSON ``text`` hatlab receives, and
``meta`` that only the oracle reads.  ``run`` calls hatlab and returns a
small observation; ``check`` compares it with an answer from ``oracles``.
Checks run after the timed passes.
"""

from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

import oracles

# Per-solve time budget of the solve workload, in milliseconds.  The
# slowest regular solve takes about 0.9 s on the 2-core machine the
# benchmark was written on, and 2 s in that machine's slow phases.
SOLVE_BUDGET_MS = 5000


def _game_text(verts, edges, h, g=None) -> str:
    obj = {"vertices": list(verts), "edges": [list(e) for e in edges],
           "hatness": dict(h)}
    if g:
        obj["guesses"] = dict(g)
    return json.dumps(obj)


def _shuffled(rng, names):
    names = list(names)
    rng.shuffle(names)
    return names


def _complete(n):
    names = [f"k{i}" for i in range(n)]
    return names, [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]


def _path(n):
    names = [f"p{i}" for i in range(n)]
    return names, list(zip(names, names[1:]))


def _cycle(n):
    names = [f"c{i}" for i in range(n)]
    return names, [(names[i], names[(i + 1) % n]) for i in range(n)]


def _star(leaves):
    names = ["hub"] + [f"s{i}" for i in range(leaves)]
    return names, [("hub", f"s{i}") for i in range(leaves)]


def _random_tree(rng, n):
    names = [f"t{i}" for i in range(n)]
    return names, [(names[rng.randrange(i)], names[i]) for i in range(1, n)]


# -- solve --------------------------------------------------------------


def _solve_item(rng, family, verts, edges, h, g=None, shuffle=True):
    verts = _shuffled(rng, verts) if shuffle else list(verts)
    hv = {v: h[v] if isinstance(h, dict) else h for v in verts}
    gv = {v: g[v] for v in verts if g and g.get(v, 1) != 1}
    text = _game_text(verts, edges, hv, gv)
    game = json.loads(text)
    if family == "complete":
        expect = oracles.clique_status(game)
    elif family == "tree":
        expect = oracles.tree_status(hv[verts[0]])
    else:
        expect = oracles.cycle_status(len(verts), hv[verts[0]])
    return {"kind": "solve", "text": text,
            "meta": {"family": family, "game": game, "expect": expect}}


def _every_order(rng, family, verts, edges, h):
    """One item per vertex-order class: orders that differ only by an
    automorphism give the solver the same formula, so each class appears
    once, in an order the seed picks among its members."""
    hv = {v: h[v] if isinstance(h, dict) else h for v in verts}
    classes: dict = {}
    for perm in itertools.permutations(verts):
        pos = {v: i for i, v in enumerate(perm)}
        key = (tuple(hv[v] for v in perm),
               frozenset(frozenset((pos[a], pos[b])) for a, b in edges))
        classes.setdefault(key, []).append(perm)
    return [_solve_item(rng, family, rng.choice(perms), edges, hv, shuffle=False)
            for perms in classes.values()]


def _random_complete(rng, n, want_winning, hmax):
    """A complete game with h <= hmax and g <= 2 on the requested side of
    sum g/h = 1; losing ones keep g = 1."""
    verts, edges = _complete(n)
    while True:
        h = {v: rng.randint(1, hmax) for v in verts}
        g = {v: rng.choice((1, 2)) if want_winning else 1 for v in verts}
        total = sum(Fraction(min(g[v], h[v]), h[v]) for v in verts)
        if (total >= 1) == want_winning:
            return verts, edges, h, g


def solve_items(rng) -> list[dict]:
    """The heavier games come in every vertex-order class, so the seed moves
    their order but not their cost; the light ones, which all take less than
    the median item, are drawn at random."""
    items = []
    k3, k3_edges = _complete(3)
    for hs in ((3, 3, 4), (4, 4, 4), (2, 4, 4), (3, 3, 3)):
        items += _every_order(rng, "complete", k3, k3_edges, dict(zip(k3, hs)))
    k4, k4_edges = _complete(4)
    items += _every_order(rng, "complete", k4, k4_edges, 4)
    items += _every_order(rng, "complete", k4, k4_edges, dict(zip(k4, (2, 3, 4, 5))))
    items += _every_order(rng, "cycle", *_cycle(3), 3)
    items += _every_order(rng, "cycle", *_cycle(4), 3)
    items += _every_order(rng, "tree", *_path(4), 3)
    items += _every_order(rng, "tree", *_star(3), 3)
    items += _every_order(rng, "tree", *_star(4), 3)
    for n, wins, loses, hmax in ((1, 1, 1, 2), (2, 7, 7, 5), (4, 4, 0, 3)):
        for want in [True] * wins + [False] * loses:
            verts, edges, h, g = _random_complete(rng, n, want, hmax)
            items.append(_solve_item(rng, "complete", verts, edges, h, g))
    for n in (2, 3, 4, 5, 6, 7):
        items.append(_solve_item(rng, "tree", *_path(n), 2))
    for n in (2, 3):
        items.append(_solve_item(rng, "tree", *_path(n), 3))
    for k in (3, 4, 5, 6):
        items.append(_solve_item(rng, "tree", *_star(k), 2))
    for n in (5, 6, 6, 7, 7, 8):
        items.append(_solve_item(rng, "tree", *_random_tree(rng, n), 2))
    for n in (3, 4, 5, 6, 7):
        items.append(_solve_item(rng, "cycle", *_cycle(n), 2))
    rng.shuffle(items)
    return items


def solve_hard(rng) -> list[dict]:
    """Known-hard solves: the solver ends in unknown within the budget."""
    return [
        _solve_item(rng, "complete", *_complete(4), 5),
        _solve_item(rng, "cycle", *_cycle(5), 3),
    ]


def run_solve(mods, item):
    io, solver = mods["io"], mods["solver"]
    game = io.game_from_json(json.loads(item["text"]))
    verdict = solver.decide_game(game, SOLVE_BUDGET_MS)
    emitted = None
    if verdict.status == solver.WINNING:
        emitted = io.canonical_dumps(io.strategy_to_json(verdict.strategy))
    return verdict.status, emitted


def check_solve(item, obs, _cache) -> bool | None:
    """True when right, False when wrong, None when undecided (unknown)."""
    status, emitted = obs
    if status == "unknown":
        return None
    meta = item["meta"]
    if status != meta["expect"]:
        return False
    return status == "losing" or oracles.strategy_wins(meta["game"], emitted)


# -- certify ------------------------------------------------------------

# chains H_n^l with even l: maximal at uniform h = l (the stegosaur lemma)
CHAINS = ((2, 4), (3, 4), (4, 4), (5, 4), (2, 6), (3, 6))
GALLERY_HG = (("delta6", 8), ("scary3", 8), ("scary4", 16), ("delta_plus_3", 16))


def certify_gallery(mods) -> dict:
    """Gallery expressions as JSON and chain graphs, built through hatlab."""
    gallery, io = mods["gallery"], mods["io"]
    exprs = {
        "delta6": gallery.build_delta6_hg8(),
        "scary3": gallery.build_scary(3),
        "scary4": gallery.build_scary(4),
        "delta_plus_3": gallery.build_delta_plus_k(3).expr,
    }
    out = {name: io.canonical_dumps(io.expr_to_json(e)) for name, e in exprs.items()}
    for n, l in CHAINS + ((2, 5), (3, 5), (4, 5)):
        out[("chain", n, l)] = io.graph_to_json(gallery.build_chain_graph(n, l))
    return out


def _connected_graph(rng, n):
    verts, edges = _random_tree(rng, n)
    extra = {(verts[i], verts[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < 1.5 / n}
    return verts, sorted(set(edges) | extra)


def _boundary_game(rng, n, hmin, hmax):
    """A connected game with Z(r) = 0: r = 1/h off one vertex v, with h drawn
    from [hmin, hmax], and r_v solved from the affine equation Z = 0 (a
    fraction g_v/h_v in (0, 1]).  Small r elsewhere gives maximal games,
    large r games that are not maximal."""
    while True:
        verts, edges = _connected_graph(rng, n)
        h = {v: rng.randint(hmin, hmax) for v in verts}
        game = {"vertices": verts, "edges": edges, "hatness": h}
        vi = rng.randrange(n)
        rv = oracles.solve_boundary(game, vi)
        if 0 < rv <= 1:
            v = verts[vi]
            h[v] = rv.denominator
            guesses = {v: rv.numerator} if rv.numerator != 1 else {}
            return verts, edges, h, guesses


def _item(kind, text, **meta):
    return {"kind": kind, "text": text, "meta": meta}


def _chain_text(rng, chain, l, edges=None):
    """The chain at uniform h = l, in a seeded vertex order."""
    verts = chain["vertices"]
    return _game_text(_shuffled(rng, verts), chain["edges"] if edges is None else edges,
                      {v: l for v in verts})


def certify_items(rng, built) -> list[dict]:
    items = []
    for n, l in CHAINS:
        items.append(_item("direct", _chain_text(rng, built[("chain", n, l)], l),
                           expect="maximal"))
    for n in (8, 8, 9, 9, 10, 10, 11, 12):
        for hmin, hmax in ((2, 4), (6, 10)):
            verts, edges, h, g = _boundary_game(rng, n, hmin, hmax)
            items.append(_item("direct", _game_text(_shuffled(rng, verts), edges, h, g),
                               expect=None))
    for name, hg in GALLERY_HG:
        items.append(_item("compositional", built[name], hg=hg))
    for n, l in CHAINS + ((2, 5), (3, 5), (4, 5)):
        chain = built[("chain", n, l)]
        for _ in range(3):
            edges = list(chain["edges"])
            edges.pop(rng.randrange(len(edges)))
            items.append(_item("losing", _chain_text(rng, chain, l, edges)))
    for n, l in CHAINS:
        text = _chain_text(rng, built[("chain", n, l)], l)
        items.append(_item("muhat", text, candidate=f"1/{l}", muhat=l))
        items.append(_item("muhat", text, candidate=None, muhat=l))
    for n in (4, 6, 7, 8, 9, 10, 11, 12, 14, 16, 18, 20, 24):
        verts, edges = _path(n)
        text = _game_text(_shuffled(rng, verts), edges, {v: 2 for v in verts})
        items.append(_item("muhat", text, candidate="1/3" if n == 4 else None,
                           muhat=3 if n == 4 else None, path=n))
    # ten paths of one length sit at the 90th percentile of the item times
    for n in (30, 45, 60, 90, 200, 300, 400, 800) + (600,) * 10:
        items.append(_path_item(rng, n))
    # a fixed grid, dense at n = 5 and 6: these items sit at the median of
    # the item times
    for which in (2, 3):
        for n, k in [(3, 1), (4, 2), (7, 3), (8, 0)] + [(n, k) for n in (5, 6) for k in range(4)]:
            root = Fraction(1, k + 4) if which == 2 else Fraction(1, k + 2)
            text = json.dumps({"which": which, "n": n, "k": k})
            items.append(_item("minroot", text, root=root, candidate=n == 6))
    rng.shuffle(items)
    return items


def _path_item(rng, n):
    """Z of a path at random r = 1/h.  Paths up to 100 vertices are listed
    in a seeded order; longer ones in path order from a seeded end, since a
    shuffled order makes the evaluator's memo grow quadratically."""
    verts, edges = _path(n)
    h = {v: rng.randint(2, 5) for v in verts}
    x = [Fraction(1, h[v]) for v in verts]
    listed = _shuffled(rng, verts) if n <= 100 else verts[::rng.choice((1, -1))]
    return _item("path_z", _game_text(listed, edges, h), x=x)


def certify_hard(rng) -> list[dict]:
    """Known-hard: Z of a 1,000-vertex path (the recursion is too deep)."""
    return [_path_item(rng, 1000)]


def run_certify(mods, item):
    io, certify = mods["io"], mods["certify"]
    kind = item["kind"]
    if kind == "minroot":
        p = json.loads(item["text"])
        ex = mods["gallery"].build_extension_example(p["which"], p["n"], p["k"])
        cand = item["meta"]["root"] if item["meta"]["candidate"] else None
        return mods["roots"].smallest_positive_root(ex.u_poly, candidate=cand).exact_root
    if kind == "compositional":
        e = io.expr_from_json(json.loads(item["text"]))
        cert = certify.check_maximal_compositional(e)
        hg = mods["algebra"].conclude_hg(e)
        return type(cert).__name__, cert.z_at_r, hg.value
    game = io.game_from_json(json.loads(item["text"]))
    if kind == "direct":
        cert = certify.check_maximal_direct(game)
        if isinstance(cert, certify.MaximalityCertificate):
            return "maximal", cert.z_at_r, cert.corner_count
        return "refuted", cert.witness_point, cert.witness_value
    if kind == "losing":
        cert = certify.losing_by_Z_positive(game)
        return type(cert).__name__, getattr(cert, "z_at_r", None)
    if kind == "muhat":
        meta = item["meta"]
        cand = Fraction(meta["candidate"]) if meta["candidate"] else None
        res = certify.mu_hat_chordal(game.graph, candidate=cand)
        iv = res.interval
        return res.value, (iv.lower, iv.upper) if iv else None
    if kind == "path_z":
        return mods["indpoly"].eval_Z(game.graph, mods["games"].fraction_vector(game))
    raise ValueError(f"unknown item kind {kind!r}")


def _corner_game(game: dict, point: dict) -> dict:
    """The induced game on the vertices the witness keeps at r."""
    keep = [v for v in game["vertices"] if point[v] != 0]
    return dict(game, vertices=keep,
                edges=[e for e in game["edges"] if e[0] in keep and e[1] in keep])


def check_certify(item, obs, cache) -> bool:
    kind, meta = item["kind"], item["meta"]
    if kind == "minroot":
        return obs == meta["root"]
    if kind == "compositional":
        return obs == ("MaximalityCertificate", 0, meta["hg"])
    game = json.loads(item["text"])
    if kind == "path_z":
        return obs == oracles.path_z(meta["x"])
    if kind == "direct":
        key = item["text"]
        if key not in cache:
            z = oracles.corner_values(game)
            cache[key] = (z[-1] == 0 and all(v > 0 for v in z[:-1]), z[-1])
        is_max, z_full = cache[key]
        if meta["expect"] == "maximal" and not is_max:
            return False  # the reference and the paper disagree
        n = len(game["vertices"])
        if is_max:
            return obs == ("maximal", 0, 2 ** n - 1)
        if obs[0] != "refuted":
            return False
        point, value = obs[1], obs[2]
        if z_full != 0:
            return value == z_full
        return value <= 0 and value == oracles.z_value(_corner_game(game, point))
    if kind == "losing":
        z = oracles.z_value(game)
        if z > 0:
            return obs == ("LosingCertificate", z)
        return obs == ("Inconclusive", None)
    if kind == "muhat":
        value, interval = obs
        if meta["muhat"] is not None:
            return value == meta["muhat"] and interval is None
        n = meta["path"]
        lo, hi = interval
        u = oracles.path_u(n)
        # the root interval of U is [1/hi, 1/lo]; U changes sign across it
        a, b = oracles.poly_at(u, 1 / hi), oracles.poly_at(u, 1 / lo)
        first, second = oracles.path_muhat_float(n), oracles.path_muhat_float(n, 2)
        return (value is None and a * b <= 0 and hi - lo < Fraction(1, 10**6)
                and float(lo) - 1e-9 <= first <= float(hi) + 1e-9
                and second < float(lo) - 1e-6)
    raise ValueError(f"unknown item kind {kind!r}")


# -- the workload table -----------------------------------------------


def solve_setup(mods, seed):
    rng = random.Random(f"solve:{seed}")
    return solve_items(rng), solve_hard(rng)


def certify_setup(mods, seed):
    rng = random.Random(f"certify:{seed}")
    built = certify_gallery(mods)
    return certify_items(rng, built), certify_hard(rng)


WORKLOADS = {
    "solve": (solve_setup, run_solve, check_solve),
    "certify": (certify_setup, run_certify, check_certify),
}
