"""Exact decision of small hat games by propositional search.

The encoding has one boolean y[v][sigma][c] per vertex v, visible
configuration sigma (colors of the open neighborhood in fixed vertex
order) and color c, meaning "on seeing sigma, sage v guesses c".  For
every full coloring phi there is one clause requiring some sage to guess
his own color, plus at-most-g(v) cardinality constraints per (v, sigma).
Satisfiable iff the sages win.  "At most" (not "exactly") g guesses is
sound: extra guesses never hurt the sages.
"""

from __future__ import annotations

import itertools
import os
import time
from dataclasses import dataclass, field
from typing import Optional

from .games import LOSING, UNKNOWN, WINNING, HatGame
from .graphs import Graph

COLORING_GUARD = 10**7
CONFIG_GUARD = 10**5


class SolverError(ValueError):
    pass


class GuardExceeded(SolverError):
    pass


@dataclass
class CNF:
    num_vars: int
    clauses: list[list[int]]
    # (vertex, sigma, color) -> 1-based variable index
    var_of: dict[tuple, int]
    visible: dict[str, tuple[str, ...]]
    coloring_clauses: int


def _visible_order(game: HatGame) -> dict[str, tuple[str, ...]]:
    order = {v: i for i, v in enumerate(game.vertices)}
    return {
        v: tuple(sorted(game.graph.neighbors(v), key=order.get))
        for v in game.vertices
    }


def _at_most(k: int, lits: list[int], fresh: int) -> tuple[list[list[int]], int]:
    """Cardinality clauses: pairwise for k <= 2, sequential counter above.
    Returns (clauses, next fresh variable index)."""
    if len(lits) <= k:
        return [], fresh
    if k <= 2:
        return [
            [-a for a in combo] for combo in itertools.combinations(lits, k + 1)
        ], fresh
    # sequential counter s[i][j]: among lits[0..i] at least j+1 are true
    n = len(lits)
    clauses = []
    s = [[0] * k for _ in range(n)]
    for i in range(n):
        for j in range(k):
            s[i][j] = fresh
            fresh += 1
    for i in range(n):
        clauses.append([-lits[i], s[i][0]])
        if i > 0:
            for j in range(k):
                clauses.append([-s[i - 1][j], s[i][j]])
            for j in range(1, k):
                clauses.append([-lits[i], -s[i - 1][j - 1], s[i][j]])
            clauses.append([-lits[i], -s[i - 1][k - 1]])
    return clauses, fresh


def encode(game: HatGame) -> CNF:
    """CNF whose satisfiability is equivalent to the sages winning."""
    if game.num_colorings() > COLORING_GUARD:
        raise GuardExceeded(
            f"{game.num_colorings()} colorings exceed the guard {COLORING_GUARD}"
        )
    visible = _visible_order(game)
    for v in game.vertices:
        configs = 1
        for u in visible[v]:
            configs *= game.h[u]
        if configs > CONFIG_GUARD:
            raise GuardExceeded(
                f"vertex {v!r} has {configs} visible configurations, "
                f"guard is {CONFIG_GUARD}"
            )
    var_of: dict[tuple, int] = {}
    fresh = 1
    for v in game.vertices:
        for sigma in itertools.product(*(range(game.h[u]) for u in visible[v])):
            for c in range(game.h[v]):
                var_of[(v, sigma, c)] = fresh
                fresh += 1
    clauses: list[list[int]] = []
    coloring_clauses = 0
    names = game.vertices
    for phi in itertools.product(*(range(game.h[v]) for v in names)):
        col = dict(zip(names, phi))
        clause = [
            var_of[(v, tuple(col[u] for u in visible[v]), col[v])] for v in names
        ]
        clauses.append(clause)
        coloring_clauses += 1
    for v in names:
        for sigma in itertools.product(*(range(game.h[u]) for u in visible[v])):
            lits = [var_of[(v, sigma, c)] for c in range(game.h[v])]
            extra, fresh = _at_most(game.g[v], lits, fresh)
            clauses.extend(extra)
    return CNF(fresh - 1, clauses, var_of, visible, coloring_clauses)


# -- DPLL with watched literals ---------------------------------------


@dataclass
class GameVerdict:
    status: str
    strategy: Optional[dict] = None
    num_vars: int = 0
    num_clauses: int = 0
    decisions: int = 0
    reason: str = ""


def solver_timeout_ms() -> Optional[int]:
    raw = os.environ.get("HATLAB_SOLVER_TIMEOUT_MS")
    return int(raw) if raw else None


def _dpll(num_vars: int, clauses: list[list[int]], timeout_ms=None):
    """Deterministic CDCL: unit propagation over two watched literals,
    first-UIP clause learning with non-chronological backjumping,
    integer conflict-activity branching (ties to the lowest variable
    index, false first with phase saving) and geometric restarts.
    Returns (model | None, decisions), or raises TimeoutError."""
    assign = [0] * (num_vars + 1)  # 0 unknown, 1 true, -1 false
    level = [0] * (num_vars + 1)
    reason: list = [None] * (num_vars + 1)  # clause index for implied vars
    activity = [0] * (num_vars + 1)
    phase = [-1] * (num_vars + 1)  # last assigned polarity; initially false
    watches: list[list[int]] = [[] for _ in range(2 * num_vars + 2)]

    def windex(lit: int) -> int:
        return 2 * lit if lit > 0 else -2 * lit + 1

    def value(lit: int) -> int:
        v = assign[abs(lit)]
        return v if lit > 0 else -v

    def watch_clause(ci: int):
        cl = clauses[ci]
        if len(cl) == 1:
            cl.append(cl[0])  # duplicate literal; keeps two watch slots
        watches[windex(cl[0])].append(ci)
        watches[windex(cl[1])].append(ci)

    for ci in range(len(clauses)):
        watch_clause(ci)

    trail: list[int] = []
    trail_lim: list[int] = []  # trail length at each decision
    qhead = 0
    decisions = 0
    conflicts = 0
    deadline = time.monotonic() + timeout_ms / 1000.0 if timeout_ms else None

    def enqueue(lit: int, why):
        v = abs(lit)
        assign[v] = 1 if lit > 0 else -1
        level[v] = len(trail_lim)
        reason[v] = why
        trail.append(lit)

    def propagate():
        nonlocal qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            fl = -lit  # literal that became false
            wl = watches[windex(fl)]
            i = 0
            while i < len(wl):
                ci = wl[i]
                cl = clauses[ci]
                if cl[0] == fl:
                    cl[0], cl[1] = cl[1], cl[0]
                # cl[1] is the false watch now
                if value(cl[0]) == 1:
                    i += 1
                    continue
                moved = False
                for k in range(2, len(cl)):
                    if value(cl[k]) != -1:
                        cl[1], cl[k] = cl[k], cl[1]
                        watches[windex(cl[1])].append(ci)
                        wl[i] = wl[-1]
                        wl.pop()
                        moved = True
                        break
                if moved:
                    continue
                if value(cl[0]) == -1:
                    return ci  # conflict
                enqueue(cl[0], ci)
                i += 1
        return None

    def analyze(conflict_ci: int):
        """First-UIP learned clause and the backjump level."""
        learned = [0]  # slot 0 for the asserting (UIP) literal
        seen = [False] * (num_vars + 1)
        counter = 0  # literals of the current level still to resolve
        lit = 0
        ci = conflict_ci
        idx = len(trail) - 1
        cur_level = len(trail_lim)
        while True:
            for q in clauses[ci] if lit == 0 else clauses[ci][1:]:
                v = abs(q)
                if seen[v] or level[v] == 0:
                    continue
                seen[v] = True
                activity[v] += 1
                if level[v] == cur_level:
                    counter += 1
                else:
                    learned.append(q)
            while not seen[abs(trail[idx])]:
                idx -= 1
            lit = trail[idx]
            v = abs(lit)
            seen[v] = False
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            ci = reason[v]
            # put the resolved variable's literal first so the [1:] skip
            # above drops it
            cl = clauses[ci]
            if cl[0] != lit:
                cl[cl.index(lit)] = cl[0]
                cl[0] = lit
        learned[0] = -lit
        if len(learned) == 1:
            return learned, 0
        # backjump to the second-highest level in the clause
        bj = max(level[abs(q)] for q in learned[1:])
        # watch a literal of the backjump level in slot 1
        for k in range(1, len(learned)):
            if level[abs(learned[k])] == bj:
                learned[1], learned[k] = learned[k], learned[1]
                break
        return learned, bj

    def backjump(lvl: int):
        nonlocal qhead
        target = trail_lim[lvl]
        while len(trail) > target:
            v = abs(trail.pop())
            phase[v] = assign[v]
            assign[v] = 0
            reason[v] = None
        del trail_lim[lvl:]
        qhead = len(trail)

    def rescale():
        for v in range(num_vars + 1):
            activity[v] >>= 1

    restart_limit = 100
    conflicts_since_restart = 0
    while True:
        conflict = propagate()
        if conflict is not None:
            conflicts += 1
            conflicts_since_restart += 1
            if not trail_lim:
                return None, decisions
            learned, bj = analyze(conflict)
            backjump(bj)
            clauses.append(learned)
            watch_clause(len(clauses) - 1)
            enqueue(learned[0], len(clauses) - 1)
            if conflicts % 256 == 0:
                rescale()
            if deadline and time.monotonic() > deadline:
                raise TimeoutError
            continue
        if conflicts_since_restart >= restart_limit:
            conflicts_since_restart = 0
            restart_limit = restart_limit * 3 // 2
            if trail_lim:
                backjump(0)
            continue
        best = 0
        best_act = -1
        for v in range(1, num_vars + 1):
            if assign[v] == 0 and activity[v] > best_act:
                best = v
                best_act = activity[v]
        if best == 0:
            model = [assign[v] == 1 for v in range(num_vars + 1)]
            return model, decisions
        if deadline and time.monotonic() > deadline:
            raise TimeoutError
        decisions += 1
        trail_lim.append(len(trail))
        enqueue(best * phase[best], None)  # saved phase; false on first use



def decide_game(game: HatGame, timeout_ms: Optional[int] = None) -> GameVerdict:
    """Winning with an extracted (verified) strategy, or Losing after
    exhaustive refutation; Unknown only on timeout, never a guess."""
    if timeout_ms is None:
        timeout_ms = solver_timeout_ms()
    cnf = encode(game)
    try:
        model, decisions = _dpll(
            cnf.num_vars, [list(c) for c in cnf.clauses], timeout_ms
        )
    except TimeoutError:
        return GameVerdict(
            UNKNOWN,
            num_vars=cnf.num_vars,
            num_clauses=len(cnf.clauses),
            reason=f"timeout after {timeout_ms} ms",
        )
    if model is None:
        return GameVerdict(
            LOSING,
            num_vars=cnf.num_vars,
            num_clauses=len(cnf.clauses),
            decisions=decisions,
        )
    strategy = extract_strategy(game, cnf, model)
    bad = verify_strategy(game, strategy)
    if bad is not None:
        raise SolverError(f"internal error: model strategy misses coloring {bad}")
    return GameVerdict(
        WINNING,
        strategy=strategy,
        num_vars=cnf.num_vars,
        num_clauses=len(cnf.clauses),
        decisions=decisions,
    )


def extract_strategy(game: HatGame, cnf: CNF, model: list[bool]) -> dict:
    """Per-vertex guess tables from a satisfying assignment.  Configurations
    whose guess set came out empty get color 0: extra guesses never hurt."""
    strategy: dict[str, dict[tuple, tuple]] = {}
    for v in game.vertices:
        table = {}
        for sigma in itertools.product(
            *(range(game.h[u]) for u in cnf.visible[v])
        ):
            guesses = tuple(
                c
                for c in range(game.h[v])
                if model[cnf.var_of[(v, sigma, c)]]
            )
            table[sigma] = guesses[: game.g[v]] or (0,)
        strategy[v] = table
    return strategy


def verify_strategy(game: HatGame, strategy: dict):
    """None if the strategy wins on all colorings, else the first coloring
    on which every sage misses."""
    visible = _visible_order(game)
    names = game.vertices
    for v in names:
        if v not in strategy:
            raise SolverError(f"partial strategy: vertex {v!r} missing")
        table = strategy[v]
        for sigma in itertools.product(*(range(game.h[u]) for u in visible[v])):
            if sigma not in table:
                raise SolverError(
                    f"partial strategy: vertex {v!r} missing configuration {sigma}"
                )
            if len(table[sigma]) > game.g[v]:
                raise SolverError(
                    f"strategy at {v!r}{sigma} exceeds g={game.g[v]} guesses"
                )
    for phi in itertools.product(*(range(game.h[v]) for v in names)):
        col = dict(zip(names, phi))
        if not any(
            col[v] in strategy[v][tuple(col[u] for u in visible[v])]
            for v in names
        ):
            return col
    return None


def hg_search(graph: Graph, h_max: int, timeout_ms: Optional[int] = None):
    """Largest constant hatness up to h_max at which the game is winning.
    Returns an int, or a (winning_level, undecided_level) bracket when a
    guard or timeout stops the sweep."""
    from .games import uniform_game

    best = 0
    for h in range(1, h_max + 1):
        try:
            verdict = decide_game(uniform_game(graph, h), timeout_ms)
        except GuardExceeded:
            return (best, h)
        if verdict.status == UNKNOWN:
            return (best, h)
        if verdict.status == LOSING:
            return best
        best = h
    return best
