"""The acceptance suite: eleven named checks reproducing the headline
results at desk scale.  Shared by the `verify-paper` CLI command and the
test suite; every check returns an exact pass/fail with the values it
computed.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .algebra import CliqueLeaf, Product, conclude_hg, conclude_muhat, eval_expr
from .certify import (
    LosingCertificate,
    MaximalityCertificate,
    check_maximal_compositional,
    check_maximal_direct,
    losing_by_Z_positive,
    mu_hat_chordal,
)
from .extensions import (
    build_first_kind,
    build_second_kind,
    clique_of_vertex,
    leading_f,
    reduced_P_first,
    reduced_P_second,
)
from .gallery import (
    build_chain,
    build_chain_graph,
    build_delta6_hg8,
    build_delta_plus_k,
    build_extension_example,
    build_scary,
    delta_plus_k_ratio,
)
from .games import LOSING, WINNING, clique_criterion, make_game, uniform_game
from .graphs import (
    Graph,
    complete_graph,
    independent_sets,
    make_graph,
    path_graph,
    stats,
)
from .indpoly import eval_P, eval_P_brute
from .io import frac_str
from .poly import UnivariatePoly
from .roots import family, smallest_positive_root, verify_root_interval
from .solver import hg_search, search_game

# rational lower bound of e, enough digits for every corpus comparison
E_LOWER = Fraction(2718281828, 10**9)

_VERDICT_CACHE: dict = {}


def search_status(game) -> str:
    """The status of search_game, memoized so cross-checking items do not
    pay for the same search twice.  The criteria use the search alone:
    with the region route of solver.decide_game, the checks of the solver
    against the clique criterion and the region rule would compare a
    routine with itself.

    The key is the formula that solver.encode builds, which reads h and
    g in vertex order and the edges as pairs of vertex indices, and
    nothing else; so games that differ only in vertex names share one
    search.  Only the status is kept: a strategy names the vertices of
    the game it was found for."""
    index = {v: i for i, v in enumerate(game.vertices)}
    key = (
        tuple(game.h[v] for v in game.vertices),
        tuple(game.g[v] for v in game.vertices),
        frozenset(tuple(sorted((index[u], index[v]))) for u, v in game.graph.edges),
    )
    if key not in _VERDICT_CACHE:
        _VERDICT_CACHE[key] = search_game(game).status
    return _VERDICT_CACHE[key]


@dataclass
class CheckResult:
    name: str
    ok: bool
    details: str
    seconds: float


@dataclass(frozen=True)
class CheckItem:
    index: int
    name: str
    group: str
    fn: Callable[[], tuple[bool, str]]


# -- 1. clique criterion vs solver -------------------------------------


def _check_clique_criterion():
    count = 0
    for n in (1, 2, 3):
        g = complete_graph([f"v{i}" for i in range(n)])
        for hs in itertools.product(range(1, 5), repeat=n):
            game = make_game(g, {f"v{i}": hs[i] for i in range(n)})
            status = search_status(game)
            crit = clique_criterion(game)
            if (status == WINNING) != crit.winning:
                return False, f"disagreement on K{n} h={hs}: solver {status}"
            count += 1
    g = complete_graph(["a", "b"])
    for h1, h2, g1, g2 in itertools.product(
        range(1, 5), range(1, 5), (1, 2), (1, 2)
    ):
        game = make_game(
            g, {"a": h1, "b": h2}, {"a": min(g1, h1), "b": min(g2, h2)}
        )
        status = search_status(game)
        crit = clique_criterion(game)
        if (status == WINNING) != crit.winning:
            return False, f"disagreement on K2 h=({h1},{h2}) g=({g1},{g2})"
        count += 1
    return True, f"{count} complete games, solver == criterion on all"


# -- 2. Delta=6 / HG=8 -------------------------------------------------


def _check_delta6():
    e = build_delta6_hg8()
    cert = check_maximal_compositional(e)
    if not isinstance(cert, MaximalityCertificate) or cert.z_at_r != 0:
        return False, "compositional maximality certificate failed"
    game = cert.game
    st = stats(game.graph)
    if len(game.vertices) != 31:
        return False, f"vertex count {len(game.vertices)} != 31"
    if st.max_degree != 6:
        return False, f"max degree {st.max_degree} != 6"
    if set(game.h.values()) != {8}:
        return False, f"hatness values {sorted(set(game.h.values()))} != {{8}}"
    hg = conclude_hg(e)
    if hg.value != 8:
        return False, f"conclude_hg {hg.value} != 8 ({hg.reason})"
    mh = mu_hat_chordal(game.graph, candidate=Fraction(1, 8))
    if mh.value != 8:
        return False, f"mu-hat {mh.value} != 8"
    return True, "31 vertices, Delta=6, h=8, Z(r)=0, maximal, HG=8, mu-hat=8"


# -- 3. the 4/3 theorem ------------------------------------------------


def _check_four_thirds():
    details = []
    for n in (3, 4):
        hg = conclude_hg(build_scary(n))
        game = hg.game
        st = stats(game.graph)
        if hg.value != 2**n:
            return False, f"n={n}: conclude_hg {hg.value} != {2 ** n}"
        if st.max_degree != 3 * 2 ** (n - 2):
            return False, f"n={n}: Delta {st.max_degree} != {3 * 2 ** (n - 2)}"
        ratio = Fraction(int(hg.value), st.max_degree)
        if ratio != Fraction(4, 3):
            return False, f"n={n}: ratio {frac_str(ratio)} != 4/3"
        details.append(f"n={n}: {len(game.vertices)} vertices, HG={2 ** n}, "
                       f"Delta={st.max_degree}")
    return True, "; ".join(details) + "; ratio 4/3 exact"


# -- 4. Delta + k ------------------------------------------------------


def _check_delta_plus_k():
    hg = conclude_hg(build_delta_plus_k(3).expr)
    game = hg.game
    st = stats(game.graph)
    if len(game.vertices) != 62 or st.max_degree != 13:
        return False, (
            f"m=2: {len(game.vertices)} vertices, Delta {st.max_degree} "
            "(expected 62, 13)"
        )
    if hg.value != 16:
        return False, f"m=2: conclude_hg {hg.value} != 16"
    r100 = delta_plus_k_ratio(100)
    gap = abs(r100 - Fraction(8, 7))
    if r100 != Fraction(800, 699) or gap >= Fraction(1, 500):
        return False, f"ratio at m=100 is {frac_str(r100)}, gap {frac_str(gap)}"
    return True, (
        f"m=2: 62 vertices, Delta=13, HG=16=Delta+3; "
        f"ratio(100)={frac_str(r100)}, |ratio-8/7|={frac_str(gap)} < 1/500"
    )


# -- 5. minimal-root theorems ------------------------------------------


def _check_minimal_roots():
    count = 0
    for k in range(4):
        for n in range(2, 9):
            for which, root in ((2, Fraction(1, k + 4)), (3, Fraction(1, k + 2))):
                u = build_extension_example(which, n, k).u_poly
                iso = smallest_positive_root(u, candidate=root)
                if iso.exact_root != root:
                    return False, (
                        f"example {which}, n={n}, k={k}: min root "
                        f"{iso.exact_root} != {frac_str(root)}"
                    )
                count += 1
    return True, f"{count} (example, n, k) cases: min roots 1/(k+4) and 1/(k+2)"


# -- 6. root intervals -------------------------------------------------


def _check_root_intervals():
    for n in range(13):
        if not verify_root_interval("A", n):
            return False, f"A_{n} has a root outside [-4, 0]"
        if not verify_root_interval("Phi", n):
            return False, f"Phi_{n} has a root outside [-2, 2]"
    return True, "A_n roots in [-4,0] and Phi_n roots in [-2,2] for n <= 12"


# -- 7. polynomial identities ------------------------------------------


def _check_identities():
    k = UnivariatePoly.x()
    for n in range(2, 11):
        lhs = family("L", n).poly * k
        rhs = family("A", n).poly * (k + 4)
        if lhs != rhs:
            return False, f"L_{n}*k != A_{n}*(k+4)"
    for n in range(2, 11):
        lhs = family("E", n).poly
        rhs = family("Phi", n - 1).poly * (k + 2)
        if lhs != rhs:
            return False, f"E_{n} != (k+2)*Phi_{n - 1}"
    return True, "L_n*k = A_n*(k+4) and E_n = (k+2)*Phi_(n-1) for n <= 10"


# -- 8. stegosaur lemma at desk scale ----------------------------------


def _check_stegosaur():
    chain = build_chain(2, 4)
    game = uniform_game(chain.graph, 4)
    direct = check_maximal_direct(game)
    if not isinstance(direct, MaximalityCertificate):
        return False, f"H2^4 direct maximality failed: {direct}"
    comp = check_maximal_compositional(chain.expr)
    if not isinstance(comp, MaximalityCertificate):
        return False, f"H2^4 compositional maximality failed: {comp}"
    status = search_status(game)
    if status != WINNING:
        return False, f"solver on H2^4 at h=4: {status}"
    p4 = search_status(uniform_game(build_chain_graph(2, 3), 3))
    if p4 != LOSING:
        return False, f"solver on H2^3 = P4 at h=3: {p4}"
    # minimality: every single-edge deletion (covering both named
    # edge-deleted variants) is losing by Shearer's region
    for edge in sorted(chain.graph.edges):
        sub = make_graph(chain.graph.vertices, set(chain.graph.edges) - {edge})
        cert = losing_by_Z_positive(uniform_game(sub, 4))
        if not isinstance(cert, LosingCertificate):
            return False, f"H2^4 minus {edge}: region rule inconclusive"
    for variant in ("tilde", "minus"):
        sub = build_chain_graph(2, 4, variant)
        cert = losing_by_Z_positive(uniform_game(sub, 4))
        if not isinstance(cert, LosingCertificate):
            return False, f"{variant} variant: region rule inconclusive"
    return True, (
        "H2^4 maximal winning (ray + composition + solver); P4 losing "
        "by solver; all 7 edge deletions and both variants losing by region"
    )


# -- 9. mu-hat vs HG gap -----------------------------------------------


def _check_muhat_gap():
    p4 = path_graph(["a", "b", "c", "d"])
    mh = mu_hat_chordal(p4)
    if mh.value != 3:
        return False, f"mu-hat(P4) = {mh.value} != 3"
    expected = UnivariatePoly.of(1, -4, 3)
    if mh.poly != expected:
        return False, f"U_P4 = {mh.poly} != 1 - 4x + 3x^2"
    hg = hg_search(p4, 3)
    if hg != 2:
        return False, f"hg_search(P4, 3) = {hg} != 2"
    gap = build_chain(2, 3)
    muhat = conclude_muhat(gap.muhat_expr)
    if muhat.value != 3:
        return False, f"generalized-chain mu-hat claim {muhat.value} != 3"
    return True, "mu-hat(P4) = 3 exactly (root 1/3 of 1-4x+3x^2), HG(P4) = 2"


# -- 10. oracle equivalence --------------------------------------------


def _corpus_graphs() -> list[Graph]:
    graphs = [
        complete_graph([f"v{i}" for i in range(n)]) for n in (1, 2, 3, 4, 5)
    ]
    graphs += [path_graph([f"p{i}" for i in range(n)]) for n in (2, 4, 6)]
    for n in (4, 5, 6):
        names = [f"c{i}" for i in range(n)]
        edges = {(names[i], names[(i + 1) % n]) for i in range(n)}
        graphs.append(make_graph(names, edges))
    star = make_graph(
        ["hub"] + [f"s{i}" for i in range(5)],
        {("hub", f"s{i}") for i in range(5)},
    )
    graphs.append(star)
    graphs.append(build_chain_graph(2, 4))
    graphs.append(build_chain_graph(2, 4, "tilde"))
    graphs.append(build_chain_graph(3, 4))
    graphs.append(build_chain_graph(2, 5))
    return graphs


def _check_oracles():
    rng = random.Random(20240824)
    graphs = [g for g in _corpus_graphs() if len(g.vertices) <= 15]
    points = 0
    for g in graphs:
        for _ in range(20):
            x = {
                v: Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                for v in g.vertices
            }
            if eval_P(g, x) != eval_P_brute(g, x):
                return False, f"P mismatch on {len(g.vertices)}-vertex graph at {x}"
            points += 1
    # reduced polynomial and f_n recurrences vs direct counts
    ext_cases = 0
    for n in range(2, 6):
        base = path_graph([f"v{i}" for i in range(n)])
        size_choices = [(a,) * n for a in (2, 3, 4)]
        size_choices += [
            tuple(rng.randint(2, 4) for _ in range(n)) for _ in range(5)
        ]
        for sizes in size_choices:
            x = [Fraction(rng.randint(1, 4), rng.randint(1, 4)) for _ in range(n)]
            built = build_first_kind(base, sizes)
            cl = clique_of_vertex(base, sizes)
            direct = eval_P(built, {v: x[cl[v]] for v in built.vertices})
            if reduced_P_first(base, sizes, x) != direct:
                return False, f"first-kind reduced P mismatch, sizes {sizes}"
            fn = leading_f(base, sizes)
            count = sum(
                1 for s in independent_sets(built, 24) if len(s) == n
            )
            if fn != count:
                return False, f"f_n mismatch, sizes {sizes}: {fn} != {count}"
            built2 = build_second_kind(base, sizes)
            cl2 = clique_of_vertex(base, sizes)
            direct2 = eval_P(built2, {v: x[cl2[v]] for v in built2.vertices})
            if reduced_P_second(base, sizes, x) != direct2:
                return False, f"second-kind reduced P mismatch, sizes {sizes}"
            ext_cases += 1
    return True, (
        f"{points} random rational points across {len(graphs)} graphs; "
        f"{ext_cases} extension size vectors vs direct evaluation"
    )


# -- 11. soundness cross-checks ----------------------------------------


def _check_soundness():
    checked = []
    # solver vs constructor certificates on overlapping desk-scale instances
    chain = build_chain(2, 4)
    expr_cert = eval_expr(chain.expr)
    status = search_status(uniform_game(chain.graph, 4))
    if expr_cert.status != status:
        return False, f"H2^4: expression {expr_cert.status}, solver {status}"
    checked.append("H2^4 winning")
    p4chain = build_chain(2, 3)
    lose_cert = eval_expr(p4chain.expr)
    p4status = search_status(uniform_game(p4chain.graph, 3))
    if not (lose_cert.status == LOSING and p4status == LOSING):
        return False, (
            f"P4: expression {lose_cert.status}, solver {p4status}"
        )
    checked.append("P4 losing")
    # solver vs the region rule on losing instances
    p2 = make_game(path_graph(["a", "b"]), {"a": 2, "b": 3})
    k3 = uniform_game(complete_graph(["a", "b", "c"]), 4)
    for label, game in (("P2 (2,3)", p2), ("K3 h=4", k3)):
        zcert = losing_by_Z_positive(game)
        status = search_status(game)
        if not (isinstance(zcert, LosingCertificate) and status == LOSING):
            return False, f"{label}: region rule vs solver {status}"
        checked.append(f"{label} losing both ways")
    # small product certificate vs solver
    k2 = CliqueLeaf(("a", "b"), {"a": 2, "b": 2}, {})
    p3 = Product(k2, "b", CliqueLeaf(("b", "c"), {"b": 2, "c": 2}, {}), "b")
    p3cert = eval_expr(p3)
    p3status = search_status(p3cert.game)
    if not (p3cert.status == WINNING and p3status == WINNING):
        return False, f"P3 (2,4,2): product {p3cert.status}, solver {p3status}"
    checked.append("P3 (2,4,2) winning both ways")
    # every certified HG satisfies HG < e * Delta (exact rational bound)
    hg_cases = [
        build_delta6_hg8(),
        build_scary(3),
        build_chain(2, 4).expr,
        build_chain(3, 6).expr,
    ]
    for e in hg_cases:
        hg = conclude_hg(e)
        delta = stats(hg.game.graph).max_degree
        if hg.value is None or not hg.value < E_LOWER * delta:
            return False, f"HG {hg.value} vs e*Delta bound with Delta={delta}"
    checked.append(f"{len(hg_cases)} HG < e*Delta bounds")
    return True, "; ".join(checked)


CHECKS: list[CheckItem] = [
    CheckItem(1, "clique-criterion-vs-solver", "solver", _check_clique_criterion),
    CheckItem(2, "delta6-hg8", "gallery", _check_delta6),
    CheckItem(3, "four-thirds-ratio", "gallery", _check_four_thirds),
    CheckItem(4, "delta-plus-k", "gallery", _check_delta_plus_k),
    CheckItem(5, "minimal-roots", "roots", _check_minimal_roots),
    CheckItem(6, "root-intervals", "roots", _check_root_intervals),
    CheckItem(7, "polynomial-identities", "roots", _check_identities),
    CheckItem(8, "stegosaur-desk-scale", "solver", _check_stegosaur),
    CheckItem(9, "muhat-vs-hg-gap", "muhat", _check_muhat_gap),
    CheckItem(10, "oracle-equivalence", "indpoly", _check_oracles),
    CheckItem(11, "soundness-cross-checks", "solver", _check_soundness),
]


def run_check(item: CheckItem) -> CheckResult:
    start = time.monotonic()
    try:
        ok, details = item.fn()
    except Exception as exc:  # a crash is a failure, not an abort
        ok, details = False, f"exception: {exc!r}"
    return CheckResult(item.name, ok, details, time.monotonic() - start)


def run_all(only: Optional[str] = None) -> list[CheckResult]:
    return [
        run_check(c)
        for c in CHECKS
        if only is None or c.group == only or c.name == only
    ]
