"""Exact decision of small hat games by propositional search.

`decide_game` tries three routes in this order and returns the verdict of
the first that settles the game, which names its route:

1. "clique" (`_clique_route`), only within the guards of `encode`: a game
   with a clique K of weight sum_K g/h >= 1 is winning (the criterion of
   Kokhas & Latyshev on complete games); the sages of K play the strategy
   below, the others guess 0, and nothing is encoded.  It is the one
   route that enumerates before the search, and beyond the guards it
   returns None.
2. The losing check (`_losing_route`): it peels the leaves by the leaf
   lemma below and loses when the core left lies in Shearer's region
   (proof in the `certify` docstring): route "pendant" when some leaf
   peeled, "region" when none did.  By the preservation lemma below it
   misses no game of the region.  It encodes and enumerates nothing, so
   it also settles games beyond the guards.
3. "sat": `search_game`, the search alone; its timeout_ms bounds the
   CDCL search, not `encode` nor the routes before it.  On a game beyond
   the guards `encode` raises GuardExceeded.

The order changes no verdict: a game with a heavy clique is winning, and
the losing check is sound, so on such a game it could only have come back
inconclusive.

The leaf lemma.  Let A be a leaf whose one neighbor is B, with
g_A < h_A, and let G' be G - A with h_B replaced by
h'_B = ceil(h_B (h_A - g_A) / h_A) and g_B by min(g_B, h'_B).  If G' is
losing, so is G.  Proof: take a winning strategy on G, and let F(c) be
A's guesses when B has color c; A sees nothing else.  Then
sum_a |{c : a not in F(c)}| = sum_c (h_A - |F(c)|) >= h_B (h_A - g_A),
so some color a of A is missed by F(c) for at least h'_B colors c of B;
fix a set M of h'_B of them.  On G', give B the colors of M (relabelled
0..h'_B - 1) and play G's strategy with c_A = a fixed; B keeps only its
guesses in M.  Only B sees A, so every other table is G's.  A coloring
of G' with c_A = a added is a coloring of G on which A misses, so some
other sage guesses right on it, and it makes the same guess on G'.  So
G' is winning.  The pendant theorem of Kokhas & Latyshev
(`algebra.PendantLose`) is the case h_A = 2, g_A = 1, where h_B = 2k - 1
gives h'_B = k.  `_peel_leaves` skips a leaf whose peel would leave
g_B >= h'_B: sage B alone would win that core.

The preservation lemma.  A peel keeps r in Shearer's region (Z_W(r) > 0
for every vertex set W, notation of `certify`).  Let A be a leaf with
neighbor B and r_A < 1, and r* be r on G - A with r*_B = r_B / (1 - r_A).
Recurrence (1) of `certify` at A, then at B, gives for W containing A, B

    Z_W(r) = (1 - r_A) Z_{W-A-B}(r) - r_B Z_{W-A-N[B]}(r)
           = (1 - r_A) Z_{W-A}(r*).

So if G is in the region at r, G - A is in it at r*: a W without B has
Z_W(r*) = Z_W(r) > 0, and a W with B has Z_W(r*) = Z_{W+A}(r) / (1 - r_A)
> 0.  The peel leaves r'_B = g_B / ceil(h_B (h_A - g_A) / h_A) <= r*_B,
and the region is closed downwards (Scott & Sokal, J. Stat. Phys. 2005,
section 2), so G - A is in it at r' too, and by induction so is the core.

The clique strategy.  Let L be the lcm of h over K, step_v = L / h_v, and
take the vertices of K in vertex order.  Sage v owns the half-open
interval [lo_v, hi_v) of Z/L, where lo_v = min(sum_{u before v} g_u
step_u, L) and hi_v = min(lo_v + g_v step_v, L).  As the intervals follow
each other and sum_K g_v step_v = L sum_K g/h >= L, they tile [0, L).  On
a coloring c, let s = sum_{u in K} c_u step_u mod L.  Sage v sees the
colors of the rest of K, so it knows t = sum_{u in K - v} c_u step_u, and
guesses every color c with (t + c step_v) mod L in [lo_v, hi_v).  Its own
color gives the point s, which lies in exactly one interval, so the
owner of that interval is right.  The points t + c step_v, c < h_v, are
step_v apart, so an interval of length at most g_v step_v holds at most
g_v of them: no sage exceeds its guesses.  `verify_strategy` checks the
result on every coloring all the same.

The encoding has one boolean y[v][sigma][c] per vertex v, visible
configuration sigma (colors of the open neighborhood in fixed vertex
order) and color c, meaning "on seeing sigma, sage v guesses c".  For
every full coloring phi there is one clause requiring some sage to guess
his own color, plus at-most-g(v) cardinality constraints per (v, sigma).
Satisfiable iff the sages win.

The guess variables are numbered vertex by vertex in vertex order, each
table's configurations in `itertools.product` order, colors innermost:
on its j-th configuration sigma,

    y[v][sigma][c] = base_v + j h_v + c
                   = base_v + sum_{u in vis(v)} sigma_u stride(v, u) + c,

where stride(v, u) is h_v times the product of h_w over the vertices w
after u in vis(v), and base_v is 1 plus the number of variables of the
vertices before v.  `CNF.base` keeps base_v by position, and no table
maps variables back: `extract_strategy` reads the model at
base_v + j h_v + c.  The solver reads vertices by position, vis(v) as
the sorted positions of v's neighbours; names appear only in the
strategies it returns.  On a coloring phi, sage v's literal is the sum
with sigma = phi|vis(v) and c = phi_v, affine in phi, so `_affine`, the
one expansion of an affine form over product order, builds the coloring
clauses, as it builds the clique strategy's weighted sums.
`verify_strategy` does not use the numbering: it looks the tables up by
tuples of visible colors, so that the checker shares no arithmetic with
the encoder and a numbering fault in the encoder cannot pass its own
check.

Two families of symmetry-breaking clauses follow, which keep
satisfiability but not every model:

* Exactly one guess: for g(v) = 1, at least one guess per (v, sigma).
* Value precedence: for each v of a greedy independent set I of the
  vertices with g = 1 and h >= 2, built in order of decreasing h (ties
  in vertex order), v's table read in `itertools.product` order of its
  configurations uses color c >= 1 only after it has used color c - 1.
  Precedence on v removes h_v! relabellings, so the greedy order spends
  it on the largest color sets; with uniform h, I is the first-fit set
  in vertex order.  State variables m[j][c] mean "color c appears on
  configurations 0..j"; row 0 is the first configuration's own
  y-variables, so a table with at most 2 configurations adds none.

Soundness.  Suppose a winning strategy exists; we build one that also
satisfies the added clauses.

1. Completion.  Winning is monotone in the guess sets: adding a guess
   to a table entry can only add correct guesses on each coloring.  So
   any entry of a g = 1 table with no guess can be given one (color 0,
   say) and the strategy still wins, now with exactly one guess.
2. Relabelling.  Let pi be a permutation of v's colors.  Replace v's
   table T_v by pi(T_v(sigma)), and every neighbor w's table T_w by
   sigma' -> T_w(sigma with v's coordinate pi^-1(sigma'_v)); all other
   tables stay.  On the coloring phi' that recolors v by pi, the new
   strategy makes the same correct guesses as the old one on phi, and
   phi -> phi' is a bijection of colorings, so the new strategy wins
   exactly when the old one does.  Entry sizes do not change, so guess
   counts, and exactly one guess, are kept.
3. Independence.  For v in I, pi_v changes the outputs of T_v and the
   inputs of the tables of v's neighbors, none of which is in I.  So
   pi_v moves no output and no input of the table of any other u in I.
   Choose pi_v to number v's colors in the order in which T_v first
   uses them; this makes T_v value-precedent.  Applying all pi_v, v in
   I, one after another, leaves the earlier tables of I as they were, so
   at the end every table of I is value-precedent and the strategy still
   wins with exactly one guess wherever g = 1.  Each state variable
   m[j][c] takes the value its definition gives.

Hence the formula with the added clauses is satisfiable iff the plain one
is.  The clauses are not implied by the plain formula (they cut off
models, not colorings), so a refutation is a proof relative to them.
`CNF.symmetry_clauses` counts them; they come last in `CNF.clauses`.
"""

from __future__ import annotations

import itertools
import logging
import math
import operator
import time
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Optional

from .certify import LosingCertificate, losing_by_Z_positive
from .games import (
    LOSING,
    UNKNOWN,
    WINNING,
    HatGame,
    criterion_of_counts,
    uniform_game,
)
from .graphs import Graph, maximal_cliques

logger = logging.getLogger(__name__)

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
    # base[i]: the first guess variable of vertex i (module docstring)
    base: list[int]
    coloring_clauses: int
    # exactly-one and value-precedence clauses, at the end of `clauses`
    symmetry_clauses: int


def _precedence_vertices(game: HatGame) -> list[int]:
    """Greedy independent set of the vertices with g = 1 and h >= 2,
    visited in order of decreasing h, ties in vertex order, as positions:
    the tables whose colors value precedence orders.  Any independent set
    is sound (step 3 of the module docstring); this one spends it on the
    largest color sets."""
    names, adj = game.vertices, game.graph.adj
    chosen: list[int] = []
    taken: set[int] = set()
    for i in sorted(range(len(names)), key=lambda i: -game.h[names[i]]):
        v = names[i]
        if game.g[v] == 1 and game.h[v] >= 2 and i not in taken:
            chosen.append(i)
            taken.update(adj[i])
    return chosen


def _at_most(k: int, lits: list[int], fresh: int) -> tuple[list[list[int]], int]:
    """Cardinality clauses: pairwise for k <= 2, sequential counter above.
    Returns (clauses, next fresh variable index)."""
    if len(lits) <= k:
        return [], fresh
    if k <= 2:
        negs = [-a for a in lits]  # one int per literal, shared by the clauses
        return [list(combo) for combo in itertools.combinations(negs, k + 1)], fresh
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


def _value_precedence(
    rows: list[list[int]], fresh: int
) -> tuple[list[list[int]], int]:
    """Clauses making a table, given as one row of per-color variables per
    configuration, use color c >= 1 only on a row after one that uses
    c - 1.  seen[c] stands for "color c is used on the rows before this
    one"; the first row's own variables serve as seen, so two rows need no
    new variable.  Returns (clauses, next fresh variable index)."""
    seen = rows[0]
    clauses = [[-y] for y in seen[1:]]
    for j, row in enumerate(rows[1:], 1):
        clauses.extend([-row[c], seen[c - 1]] for c in range(1, len(row)))
        if j == len(rows) - 1:
            break
        nxt = list(range(fresh, fresh + len(row) - 1))
        fresh += len(nxt)
        for c, m in enumerate(nxt):  # m <-> seen[c] or row[c]
            clauses += [[-m, seen[c], row[c]], [-seen[c], m], [-row[c], m]]
        seen = nxt
    return clauses, fresh


def _guarded_configs(game: HatGame) -> list[int]:
    """The number of visible configurations of each vertex, by position,
    or GuardExceeded when the game has more colorings than COLORING_GUARD
    or a vertex has more visible configurations than CONFIG_GUARD: the
    games no route may enumerate.  The coloring count stops growing once
    it passes the guard, so a huge game costs a few products and its
    message stays short."""
    colorings = 1
    for v in game.vertices:
        colorings *= game.h[v]
        if colorings > COLORING_GUARD:
            raise GuardExceeded(
                f"more than {COLORING_GUARD} colorings exceed the guard"
            )
    h = [game.h[v] for v in game.vertices]
    out = []
    for v, nb in zip(game.vertices, game.graph.adj):
        configs = math.prod(h[u] for u in nb)
        if configs > CONFIG_GUARD:
            raise GuardExceeded(
                f"vertex {v!r} has {configs} visible configurations, "
                f"guard is {CONFIG_GUARD}"
            )
        out.append(configs)
    return out


def _affine(start: int, weights, sizes) -> list[int]:
    """start + sum_k c_k * weights[k] for every c in
    `itertools.product(*map(range, sizes))`, in that order: the list
    starts as [start], and each k in turn expands every entry into
    sizes[k] entries, the c-th shifted by c * weights[k]."""
    out = [start]
    for w, size in zip(weights, sizes):
        steps = [c * w for c in range(size)]
        out = [y + s for y in out for s in steps]
    return out


def _coloring_clauses(adj, h: list[int], base: list[int]) -> list[list[int]]:
    """One clause per coloring of the vertices (adjacency `adj`, color
    counts `h`, by position), in `itertools.product` order, holding each
    sage's variable of its own color on what it sees, in vertex order.  That variable is affine in the coloring (module docstring):
    sage i's weight on vertex x is stride(i, x) on vis(i), 1 on i itself
    and 0 elsewhere, and its column of literals over all colorings is
    `_affine` from base_i.  The clauses are the rows of the columns."""
    if not base:
        return [[]]  # the one empty coloring, on which no sage can win
    columns = []
    for i, nb in enumerate(adj):
        weight = [0] * len(h)
        weight[i] = 1
        stride = h[i]
        for u in sorted(nb, reverse=True):
            weight[u] = stride
            stride *= h[u]
        columns.append(_affine(base[i], weight, h))
    return list(map(list, zip(*columns)))


def encode(game: HatGame) -> CNF:
    """CNF whose satisfiability is equivalent to the sages winning."""
    configs = _guarded_configs(game)
    h = [game.h[v] for v in game.vertices]
    g = [game.g[v] for v in game.vertices]
    base = list(itertools.accumulate(map(operator.mul, configs, h), initial=1))
    fresh = base.pop()  # the first variable after the guess variables
    # rows[i][j]: vertex i's variables on its j-th configuration, one per
    # color
    rows = [
        [list(range(y, y + hi)) for y in range(b, b + k * hi, hi)]
        for b, k, hi in zip(base, configs, h)
    ]
    clauses = _coloring_clauses(game.graph.adj, h, base)
    coloring_clauses = len(clauses)
    for gi, table in zip(g, rows):
        for row in table:
            extra, fresh = _at_most(gi, row, fresh)
            clauses.extend(extra)
    # symmetry breaking comes last, so that dropping the last
    # symmetry_clauses clauses leaves the plain formula
    symmetry = [list(row) for gi, table in zip(g, rows) if gi == 1 for row in table]
    for i in _precedence_vertices(game):
        extra, fresh = _value_precedence(rows[i], fresh)
        symmetry.extend(extra)
    clauses.extend(symmetry)
    return CNF(fresh - 1, clauses, base, coloring_clauses, len(symmetry))


# -- DPLL with watched literals ---------------------------------------


@dataclass
class GameVerdict:
    status: str
    strategy: Optional[dict] = None
    num_vars: int = 0
    num_clauses: int = 0
    decisions: int = 0
    conflicts: int = 0
    restarts: int = 0
    propagations: int = 0  # assignments made other than decisions
    learned: int = 0  # learned clauses
    reason: str = ""
    # "region" or "pendant" (the losing check), "clique" or "sat"
    route: str = "sat"
    # wall seconds of each phase that ran, by name: "encode", "search",
    # "extract" and "verify"; equal verdicts may differ here
    seconds: dict[str, float] = field(default_factory=dict, compare=False)


def _lap(seconds: dict[str, float], phase: str, start: float) -> float:
    """Record the time since `start` as `phase`; returns the time now."""
    now = time.perf_counter()
    seconds[phase] = now - start
    return now


class _Timeout(Exception):
    """The search passed its deadline; args is (counts so far,)."""


def _dpll(num_vars: int, clauses: list[list[int]], timeout_ms=None):
    """Deterministic CDCL: unit propagation over two watched literals,
    first-UIP clause learning with local minimisation and
    non-chronological backjumping, integer conflict-activity branching
    (ties to the lowest variable index, false first with phase saving)
    and geometric restarts.

    Local minimisation (MiniSat's basic mode; Sorensson & Biere, SAT 2009)
    drops a literal q below the conflict level from the first-UIP clause C
    when every other literal of q's reason is in C or false at level 0;
    decisions have no reason and stay.  The shorter clause C' is sound:
    every removed literal is implied by the other literals of its reason,
    which were all assigned before it.  So resolving the removed literals
    out of C in reverse trail order, each with its reason, and then the
    level-0 literals this brings in with the reasons that fixed them,
    derives C' from the clause database.  C' keeps the UIP literal, and
    its other literals are all below the conflict level, so it still
    asserts at the same UIP.  It is also RUP: falsifying C' and
    propagating falsifies the level-0 literals, then the removed literals
    in trail order through their reasons, hence all of C, which is RUP as
    a first-UIP clause.  A DRUP log of the learned clauses therefore
    checks by unit propagation alone.

    Decisions come from a binary heap with lazy deletion (the order heap
    of MiniSat, Een & Sorensson, SAT 2003).  Variable v's entry is the int
    v - activity[v] * (num_vars + 1), so entries order as the pairs
    (-activity[v], v); an entry is current while v's activity is the one
    it was made from.  Every unassigned variable keeps a current entry:
    `analyze` bumps only assigned variables, `backjump` pushes each
    variable it unassigns unless that variable's current entry is still
    queued, and `rescale`, which changes every activity, rebuilds the
    heap from the unassigned variables.  A popped entry is used only when
    its variable is unassigned and the entry is current; any other is
    dropped.  So the entry used is the one of the unassigned variable of
    highest activity, ties to the lowest index: exactly the variable a
    scan of all variables picks.  The search is the scan's, at O(log n)
    per heap entry instead of O(n) per decision.

    The search works on `clauses` in place and appends the clauses it
    learns, as lists of the int objects that `neg` and the given clauses
    hold.  Returns (model | None, counts), or raises _Timeout with
    args (counts,).  counts holds decisions, conflicts, restarts,
    propagations (assignments other than decisions) and learned (clauses
    added).  Any timeout_ms other than None sets a deadline, checked
    after each conflict and before each decision.  Each restart logs the
    counts so far, the literals of the learned clauses and those that
    minimisation removed, and the seconds since the search began to the
    "hatlab.solver" logger at DEBUG level."""
    # val[lit] is 1 when lit is true, -1 when false, 0 when unassigned;
    # negative literals index from the end, so val[-v] == -val[v]
    val = [0] * (2 * num_vars + 1)
    # neg[lit] is -lit, one int object per literal: propagate stores
    # false literals into clauses and analyze builds learned clauses from
    # it, so all clauses share these ints instead of holding fresh ones
    neg = [0] * (2 * num_vars + 1)
    for v in range(1, num_vars + 1):
        neg[v], neg[-v] = -v, v
    level = [0] * (num_vars + 1)
    reason: list = [None] * (num_vars + 1)  # clause of implied vars
    activity = [0] * (num_vars + 1)
    phase = [-1] * (num_vars + 1)  # last assigned polarity; initially false
    # watched clauses by literal; lists hold the clauses themselves, not
    # their indices, which spares a lookup per visit and an int per clause
    watches: list[list[list[int]]] = [[] for _ in range(2 * num_vars + 1)]

    def watch_clause(cl: list[int]):
        if len(cl) == 1:
            cl.append(cl[0])  # duplicate literal; keeps two watch slots
        watches[cl[0]].append(cl)
        watches[cl[1]].append(cl)

    if not all(clauses):
        # an empty clause is false under every assignment: a conflict at
        # level 0 before any search
        return None, dict(
            decisions=0, conflicts=1, restarts=0, propagations=0, learned=0
        )
    for cl in clauses:
        watch_clause(cl)
    given = len(clauses)
    # the order heap; all activities start at 0, so the sorted entries
    # form a heap.  queued[v] is v's newest entry still in order, or 0; a
    # variable gets no second copy of a current entry, so the heap holds
    # one entry per variable plus the stale ones that bumps leave until
    # they pop or a rescale drops them
    stride = num_vars + 1
    queued = list(range(num_vars + 1))
    order = queued[1:]

    trail: list[int] = []
    trail_lim: list[int] = []  # trail length at each decision
    seen = [False] * (num_vars + 1)  # analyze's marks, all False between calls
    qhead = 0
    decisions = 0
    conflicts = 0
    restarts = 0
    undone = 0  # trail entries popped by backjumps
    # literals of the learned clauses, and those minimisation removed
    literals_kept = literals_removed = 0
    start = time.monotonic()
    deadline = None if timeout_ms is None else start + timeout_ms / 1000.0

    def enqueue(lit: int, why):
        val[lit] = 1
        val[-lit] = -1
        v = lit if lit > 0 else -lit
        level[v] = len(trail_lim)
        reason[v] = why
        trail.append(lit)

    # the hot functions below bind the search state as default arguments,
    # which they read as fast locals rather than as cells of this frame

    def propagate(
        val=val, neg=neg, watches=watches, level=level, reason=reason,
        trail=trail, trail_lim=trail_lim,
    ):
        nonlocal qhead
        head = qhead  # local until the return
        lvl = len(trail_lim)  # no decision is made inside
        while head < len(trail):
            fl = neg[trail[head]]  # literal that became false
            head += 1
            wl = watches[fl]
            n = len(wl)  # only the swap-remove below changes it
            i = 0
            while i < n:
                cl = wl[i]
                first = cl[0]
                if first == fl:
                    first = cl[0] = cl[1]
                    cl[1] = fl
                # cl[1] is the false watch now
                val_first = val[first]
                if val_first == 1:
                    i += 1
                    continue
                for k in range(2, len(cl)):
                    other = cl[k]
                    if val[other] != -1:
                        cl[1] = other
                        cl[k] = fl
                        watches[other].append(cl)
                        n -= 1
                        wl[i] = wl[n]
                        wl.pop()
                        break
                else:
                    if val_first == -1:
                        qhead = head
                        return cl  # conflict
                    # enqueue(first, cl), inlined on this hot path
                    val[first] = 1
                    val[-first] = -1
                    v = first if first > 0 else -first
                    level[v] = lvl
                    reason[v] = cl
                    trail.append(first)
                    i += 1
        qhead = head
        return None

    def analyze(
        cl: list[int], seen=seen, neg=neg, level=level, reason=reason,
        activity=activity, trail=trail, trail_lim=trail_lim,
    ):
        """First-UIP learned clause, locally minimised, and the backjump
        level."""
        nonlocal literals_kept, literals_removed
        lower = []  # the clause's literals below the current level
        counter = 0  # literals of the current level still to resolve
        lit = 0
        idx = len(trail) - 1
        cur_level = len(trail_lim)
        while True:
            for q in cl if lit == 0 else cl[1:]:
                v = q if q > 0 else -q
                if seen[v]:
                    continue
                lv = level[v]
                if lv == 0:
                    continue
                seen[v] = True
                activity[v] += 1
                if lv == cur_level:
                    counter += 1
                else:
                    lower.append(q)
            lit = trail[idx]
            v = lit if lit > 0 else -lit
            while not seen[v]:
                idx -= 1
                lit = trail[idx]
                v = lit if lit > 0 else -lit
            seen[v] = False
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            cl = reason[v]
            # put the resolved variable's literal first so the [1:] skip
            # above drops it
            if cl[0] != lit:
                cl[cl.index(lit)] = cl[0]
                cl[0] = lit
        # every mark of the current level was cleared as it resolved, so
        # the marks left are lower's.  Local minimisation: drop q when
        # each literal of its reason is marked (q's own variable among
        # them) or at level 0; decisions have no reason and stay
        kept = []
        for q in lower:
            why = reason[q if q > 0 else -q]
            if why is not None:
                for p in why:
                    u = p if p > 0 else -p
                    if not seen[u] and level[u]:
                        break
                else:
                    continue
            kept.append(q)
        for q in lower:
            seen[q if q > 0 else -q] = False
        # the asserting (UIP) literal first.  No learned clause is ever
        # deleted, so they are most of a long search's memory: a list of
        # shared ints takes 8 bytes a literal, but propagate reads it
        # without making an int per visit
        learned = [neg[lit], *kept]
        literals_kept += len(learned)
        literals_removed += len(lower) - len(kept)
        # backjump to the second-highest level in the clause, and watch
        # its first literal of that level in slot 1
        bj = 0
        slot = 1
        for k, q in enumerate(kept, 1):
            lv = level[q if q > 0 else -q]
            if lv > bj:
                bj, slot = lv, k
        if bj:
            learned[1], learned[slot] = learned[slot], learned[1]
        return learned, bj

    def backjump(
        lvl: int, val=val, phase=phase, reason=reason, activity=activity,
        queued=queued, order=order, trail=trail, trail_lim=trail_lim,
        stride=stride,
    ):
        nonlocal qhead, undone
        target = trail_lim[lvl]
        for lit in trail[target:]:
            v = lit if lit > 0 else -lit
            phase[v] = val[v]
            val[v] = val[-v] = 0
            reason[v] = None
            entry = v - activity[v] * stride
            if queued[v] != entry:
                queued[v] = entry
                heappush(order, entry)
        undone += len(trail) - target
        del trail[target:]
        del trail_lim[lvl:]
        qhead = target

    def rescale():
        for v in range(1, num_vars + 1):
            activity[v] >>= 1
            queued[v] = v - activity[v] * stride if val[v] == 0 else 0
        order[:] = [entry for entry in queued if entry]
        heapify(order)

    def counts() -> dict:
        return dict(
            decisions=decisions,
            conflicts=conflicts,
            restarts=restarts,
            propagations=undone + len(trail) - decisions,
            learned=len(clauses) - given,
        )

    restart_limit = 100
    conflicts_since_restart = 0
    while True:
        conflict = propagate()
        if conflict is not None:
            conflicts += 1
            conflicts_since_restart += 1
            if not trail_lim:
                return None, counts()
            learned, bj = analyze(conflict)
            backjump(bj)
            clauses.append(learned)
            watch_clause(learned)
            enqueue(learned[0], learned)
            if conflicts % 256 == 0:
                rescale()
            if deadline is not None and time.monotonic() > deadline:
                raise _Timeout(counts())
            continue
        if conflicts_since_restart >= restart_limit:
            conflicts_since_restart = 0
            restarts += 1
            restart_limit = restart_limit * 3 // 2
            logger.debug(
                "restart %d: %d conflicts, %d decisions, %d learned, "
                "%d literals kept, %d removed, %.3f s",
                restarts, conflicts, decisions, len(clauses) - given,
                literals_kept, literals_removed, time.monotonic() - start,
            )
            if trail_lim:
                backjump(0)
            continue
        while order:
            entry = heappop(order)
            best = entry % stride
            if queued[best] == entry:
                queued[best] = 0
            if val[best] == 0 and entry == best - activity[best] * stride:
                break
        else:
            model = [val[v] == 1 for v in range(num_vars + 1)]
            return model, counts()
        if deadline is not None and time.monotonic() > deadline:
            raise _Timeout(counts())
        decisions += 1
        trail_lim.append(len(trail))
        enqueue(best * phase[best], None)  # saved phase; false on first use


def decide_game(game: HatGame, timeout_ms: Optional[int] = None) -> GameVerdict:
    """The verdict of the first route that settles the game, in the order
    of the module docstring.  Beyond the guards only the losing check
    decides, and a game it leaves open raises GuardExceeded."""
    return _clique_route(game) or _losing_route(game) or search_game(game, timeout_ms)


def _clique_route(game: HatGame) -> Optional[GameVerdict]:
    """Winning by the strategy of `_clique_strategy` on the clique that
    `_heavy_clique` finds, checked on every coloring; None when no clique
    weighs 1.  The check enumerates, so beyond the guards None."""
    try:
        _guarded_configs(game)
    except GuardExceeded:
        return None
    found = _heavy_clique(game)
    if found is None:
        return None
    clique, total = found
    strategy = _clique_strategy(game, clique)
    start = time.perf_counter()
    bad = verify_strategy(game, strategy)
    seconds = {"verify": time.perf_counter() - start}
    if bad is not None:
        raise SolverError(f"internal error: clique strategy misses coloring {bad}")
    reason = f"clique ({', '.join(clique)}) has sum g/h = {total}"
    return GameVerdict(
        WINNING, strategy=strategy, route="clique", reason=reason, seconds=seconds
    )


def _losing_route(game: HatGame) -> Optional[GameVerdict]:
    """Losing when the core left by `_peel_leaves` lies in Shearer's
    region: route "region" when no leaf peeled, else "pendant"; None when
    the core is not shown to lie there."""
    peels, core = _peel_leaves(game)
    cert = losing_by_Z_positive(core)
    if not isinstance(cert, LosingCertificate):
        return None
    reason = f"Shearer's region, Z(r) = {cert.z_at_r}"
    if not peels:
        return GameVerdict(LOSING, route="region", reason=f"r in {reason}")
    steps = ", ".join(f"{a} into {b}" for a, b in peels)
    leaves = "1 leaf" if len(peels) == 1 else f"{len(peels)} leaves"
    reason = f"peeled {leaves} ({steps}); the core is in {reason}"
    return GameVerdict(LOSING, route="pendant", reason=reason)


def _peel_leaves(game: HatGame) -> tuple[list[tuple[str, str]], HatGame]:
    """(The peels (A, B) in order, the core left): the leaf lemma of the
    module docstring, applied while some leaf A with g_A < h_A peels into
    its neighbor B keeping g_B < h'_B.

    The smallest drop h_B - h'_B goes first, then the smallest h_A, then
    vertex order; soundness does not depend on the order.  Candidates
    wait in a heap keyed that way.  A peel into B can change the keys of
    B (it may become a leaf) and, when h_B falls, of B's leaves; those
    are pushed again, and a popped entry that is no longer its vertex's
    key is dropped.  h_B falls fewer than h_B times, so there are fewer
    than max h pushes per edge; nothing is enumerated, and the route
    runs on games beyond the guards."""
    names = game.vertices
    h = [game.h[v] for v in names]
    g = [game.g[v] for v in names]
    adj = dict(enumerate(map(set, game.graph.adj)))

    def key(a: int) -> Optional[tuple[int, int, int]]:
        if a not in adj or len(adj[a]) != 1:
            return None
        (b,) = adj[a]
        kept = -(-h[b] * (h[a] - g[a]) // h[a])  # ceil, in integers
        if g[b] >= kept:  # also when g_A = h_A, as then kept = 0
            return None
        return h[b] - kept, h[a], a

    heap = [k for k in map(key, adj) if k is not None]
    heapify(heap)
    peels = []
    while heap:
        entry = heappop(heap)
        a = entry[2]
        if key(a) != entry:
            continue  # stale; the change that made it so pushed the new key
        (b,) = adj.pop(a)
        adj[b].remove(a)
        h[b] -= entry[0]
        peels.append((names[a], names[b]))
        for c in (b, *adj[b]) if entry[0] else (b,):
            if (k := key(c)) is not None:
                heappush(heap, k)
    if not peels:
        return peels, game
    # trusted: the counts come from a checked game, and peels keep g_B < h'_B
    core = game.graph.induced(names[i] for i in adj)
    return peels, HatGame(
        core, {names[i]: h[i] for i in adj}, {names[i]: g[i] for i in adj}
    )


def _heavy_clique(game: HatGame) -> Optional[tuple[list[str], Fraction]]:
    """(K, sum over K of g/h) for a clique K, in vertex order, of weight at
    least 1: the first vertex with g = h, else the first such maximal
    clique; None if there is none.  Without a vertex of g = h every
    h >= 2, so the coloring guard keeps the graph below 24 vertices and
    the clique enumeration small."""
    for v in game.vertices:
        if game.g[v] == game.h[v]:
            return [v], Fraction(1)
    for clique in maximal_cliques(game.graph):
        crit = criterion_of_counts(
            {v: game.h[v] for v in clique}, {v: game.g[v] for v in clique}
        )
        if crit.winning:
            return clique, crit.total
    return None


def _clique_strategy(game: HatGame, clique: list[str]) -> dict:
    """The interval strategy of the module docstring on `clique`, whose
    vertices come in vertex order; every other sage guesses 0.  Sage v's
    sum t over its configurations is affine in them, so `_affine`
    expands it over `itertools.product` order, and the guesses, which
    depend on t mod L alone, are found once per residue."""
    names = game.vertices
    h = [game.h[v] for v in names]
    lcm = math.lcm(*(game.h[v] for v in clique))
    step = [0] * len(names)  # 0 off the clique
    for v in clique:
        step[game.graph.index[v]] = lcm // game.h[v]
    strategy = {}
    lo = 0
    for i, v in enumerate(names):
        seen = sorted(game.graph.adj[i])
        configs = itertools.product(*(range(h[u]) for u in seen))
        if not step[i]:
            strategy[v] = dict.fromkeys(configs, (0,))
            continue
        hi = min(lo + game.g[v] * step[i], lcm)
        sums = _affine(0, [step[u] for u in seen], [h[u] for u in seen])
        residues = [t % lcm for t in sums]
        guesses = {
            t: tuple(
                c for c in range(h[i]) if lo <= (t + c * step[i]) % lcm < hi
            ) or (0,)
            for t in set(residues)
        }
        strategy[v] = dict(zip(configs, map(guesses.__getitem__, residues)))
        lo = hi
    return strategy


def search_game(game: HatGame, timeout_ms: Optional[int] = None) -> GameVerdict:
    """Winning with an extracted (verified) strategy, or Losing after
    exhaustive refutation; Unknown only on timeout, never a guess.

    timeout_ms (None: no limit) bounds the CDCL search alone.  Its clock
    starts when the search does, so `encode` before it, and strategy
    extraction and verification after it, are not counted; on a large
    formula the encoding alone can outlast the budget."""
    seconds: dict[str, float] = {}
    start = time.perf_counter()
    cnf = encode(game)
    start = _lap(seconds, "encode", start)
    size = dict(num_vars=cnf.num_vars, num_clauses=len(cnf.clauses))
    try:
        # the search rewrites and extends the clause list in place; no one
        # reads cnf.clauses after it, so it gets the list and not a copy
        model, counts = _dpll(cnf.num_vars, cnf.clauses, timeout_ms)
    except _Timeout as stop:
        _lap(seconds, "search", start)
        (counts,) = stop.args
        reason = f"timeout after {timeout_ms} ms"
        return GameVerdict(UNKNOWN, **size, **counts, reason=reason, seconds=seconds)
    start = _lap(seconds, "search", start)
    counts.update(size, seconds=seconds)
    if model is None:
        return GameVerdict(LOSING, **counts)
    strategy = extract_strategy(game, cnf, model)
    start = _lap(seconds, "extract", start)
    bad = verify_strategy(game, strategy)
    _lap(seconds, "verify", start)
    if bad is not None:
        raise SolverError(f"internal error: model strategy misses coloring {bad}")
    return GameVerdict(WINNING, strategy=strategy, **counts)


def extract_strategy(game: HatGame, cnf: CNF, model: list[bool]) -> dict:
    """Per-vertex guess tables from a satisfying assignment, read at the
    variables base_i + j h_i + c of the module docstring.  Configurations
    whose guess set came out empty get color 0: extra guesses never hurt."""
    names = game.vertices
    h = [game.h[v] for v in names]
    strategy: dict[str, dict[tuple, tuple]] = {}
    for i, (v, nb) in enumerate(zip(names, game.graph.adj)):
        hi, gi = h[i], game.g[v]
        y = cnf.base[i]
        table = {}
        for sigma in itertools.product(*(range(h[u]) for u in sorted(nb))):
            guesses = tuple(c for c in range(hi) if model[y + c])
            table[sigma] = guesses[:gi] or (0,)
            y += hi
        strategy[v] = table
    return strategy


def verify_strategy(game: HatGame, strategy: dict):
    """None if the strategy wins on all colorings, else the first coloring
    on which every sage misses; GuardExceeded beyond the guards."""
    _guarded_configs(game)
    names = game.vertices
    h = [game.h[v] for v in names]
    for v, nb in zip(names, game.graph.adj):
        if v not in strategy:
            raise SolverError(f"partial strategy: vertex {v!r} missing")
        table = strategy[v]
        for sigma in itertools.product(*(range(h[u]) for u in sorted(nb))):
            if sigma not in table:
                raise SolverError(
                    f"partial strategy: vertex {v!r} missing configuration {sigma}"
                )
            if len(table[sigma]) > game.g[v]:
                raise SolverError(
                    f"strategy at {v!r}{sigma} exceeds g={game.g[v]} guesses"
                )
    # per sage: its table, the function reading what it sees off a
    # coloring tuple, and the position of its own color
    sages = []
    for i, v in enumerate(names):
        seen = sorted(game.graph.adj[i])
        if not seen:
            sees = lambda phi: ()
        elif len(seen) == 1:
            sees = lambda phi, j=seen[0]: (phi[j],)
        else:
            sees = operator.itemgetter(*seen)
        sages.append((strategy[v], sees, i))
    for phi in itertools.product(*(range(game.h[v]) for v in names)):
        for table, sees, i in sages:
            if phi[i] in table[sees(phi)]:
                break
        else:
            return dict(zip(names, phi))
    return None


def hg_search(graph: Graph, h_max: int, timeout_ms: Optional[int] = None):
    """Largest constant hatness up to h_max at which the game is winning.
    Returns an int, or a (winning_level, undecided_level) bracket when a
    guard or timeout stops the sweep."""
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
