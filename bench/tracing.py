"""In-memory spans around hatlab's public functions, installed from outside.

The tracer replaces each traced function in every hatlab module that binds
it (``verify`` binds ``solver.decide_game`` as ``_decide_game_uncached``,
``certify`` binds ``eval_Z``, ``univariate_U`` and ``z_corner_evaluator`` at
import time, and so on), records one span per call, and restores the
originals afterwards.  ``poly`` arithmetic is never wrapped: it runs millions
of times and its cost stays in the self time of its callers.

A span's self time is its length minus the length of its direct children.
Bookkeeping done by the tracer inside a span is recorded as a child named
``trace``, so it counts as overhead and in no layer.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

perf = time.perf_counter

# (module, function, span name, outermost only).  Recursive entry points
# are traced at their outermost call only, so a tree walk is one span.
TRACED = [
    ("solver", "decide_game", "solver.decide", False),
    ("solver", "encode", "solver.encode", False),
    ("solver", "extract_strategy", "solver.extract", False),
    ("solver", "verify_strategy", "solver.verify", False),
    ("io", "game_from_json", "io.load", False),
    ("io", "expr_from_json", "io.load", False),
    ("io", "strategy_to_json", "io.dump", False),
    ("io", "canonical_dumps", "io.dump", False),
    ("certify", "check_maximal_direct", "certify.direct", False),
    ("certify", "check_maximal_compositional", "certify.compositional", False),
    ("algebra", "conclude_hg", "certify.compositional", False),
    ("algebra", "conclude_muhat", "certify.compositional", False),
    ("certify", "losing_by_Z_positive", "certify.losing", False),
    ("certify", "mu_hat_chordal", "certify.muhat", False),
    ("indpoly", "eval_P", "indpoly.eval", False),
    ("indpoly", "eval_Z", "indpoly.eval", False),
    ("indpoly", "univariate_P", "indpoly.eval", False),
    ("indpoly", "univariate_U", "indpoly.eval", False),
    ("indpoly", "eval_P_brute", "indpoly.eval", False),
    ("roots", "sturm_roots", "roots.sturm", False),
    ("roots", "count_real_roots", "roots.sturm", False),
    ("roots", "smallest_positive_root", "roots.spr", False),
    ("algebra", "eval_expr", "algebra.eval_expr", True),
    ("extensions", "build_first_kind", "extensions", True),
    ("extensions", "build_second_kind", "extensions", True),
    ("extensions", "clique_of_vertex", "extensions", True),
    ("extensions", "reduced_P_first", "extensions", True),
    ("extensions", "reduced_P_second", "extensions", True),
    ("extensions", "leading_f", "extensions", True),
    ("extensions", "leading_f_second", "extensions", True),
    ("extensions", "U_from_f", "extensions", True),
    ("gallery", "build_delta6_hg8", "gallery.build", True),
    ("gallery", "build_scary", "gallery.build", True),
    ("gallery", "build_delta_plus_k", "gallery.build", True),
    ("gallery", "build_chain", "gallery.build", True),
    ("gallery", "build_chain_graph", "gallery.build", True),
    ("gallery", "build_extension_example", "gallery.build", True),
]

# per-layer time metric -> span name whose self time it sums
SELF_TIME = {
    "solver.search_s": "solver.decide",
    "solver.encode_s": "solver.encode",
    "solver.extract_s": "solver.extract",
    "solver.verify_s": "solver.verify",
    "io.load_s": "io.load",
    "io.dump_s": "io.dump",
    "certify.direct_s": "certify.direct",
    "certify.compositional_s": "certify.compositional",
    "certify.losing_s": "certify.losing",
    "certify.muhat_s": "certify.muhat",
    "indpoly.eval_s": "indpoly.eval",
    "roots.sturm_s": "roots.sturm",
    "roots.spr_s": "roots.spr",
    "algebra.eval_expr_s": "algebra.eval_expr",
    "extensions.s": "extensions",
    "gallery.build_s": "gallery.build",
}

COUNTS = (
    "solver.decisions",
    "solver.clauses",
    "solver.unknown",
    "solver.max_decisions",
    "io.bytes_out",
    "certify.corners",
    "indpoly.memo_entries",
    "roots.sturm_calls",
    "roots.sturm_seq_len",
    "roots.coeff_bits_max",
)


class Tracer:
    """Spans as (name, start, end, parent index, item id), kept in memory."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.active: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)
        self.item = None
        self.evaluators: list = []
        self.largest = (0, 0, 0)  # (decisions, variables, clauses) of one solve
        self._saved: list = []

    # -- spans ---------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf(), None, parent, self.item])
        self.stack.append(idx)
        return idx

    def close(self, idx: int):
        self.spans[idx][2] = perf()
        self.stack.pop()

    def bookkeeping(self, start: float):
        """Record tracer work since `start` as a child of the open span."""
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(["trace", start, perf(), parent, self.item])

    def wrap(self, fn, name: str, outermost: bool, after=None):
        tracer = self

        def traced(*args, **kwargs):
            if outermost and tracer.active[name]:
                return fn(*args, **kwargs)
            tracer.active[name] += 1
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                tracer.active[name] -= 1
            if after is not None:
                start = perf()
                after(out)
                tracer.bookkeeping(start)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- counters read from return values ----------------------------

    def _after_decide(self, verdict):
        c = self.counts
        c["solver.decisions"] += verdict.decisions
        c["solver.clauses"] += verdict.num_clauses
        c["solver.unknown"] += verdict.status == "unknown"
        c["solver.max_decisions"] = max(c["solver.max_decisions"], verdict.decisions)
        self.largest = max(self.largest,
                           (verdict.decisions, verdict.num_vars, verdict.num_clauses))

    def _after_dumps(self, text):
        self.counts["io.bytes_out"] += len(text.encode())

    def _after_sturm_sequence(self, seq):
        c = self.counts
        c["roots.sturm_seq_len"] += len(seq)
        bits = max(
            (max(q.numerator.bit_length(), q.denominator.bit_length())
             for p in seq for q in p.coeffs),
            default=0,
        )
        c["roots.coeff_bits_max"] = max(c["roots.coeff_bits_max"], bits)

    def _after_sturm(self, _):
        self.counts["roots.sturm_calls"] += 1

    def _after_direct(self, _):
        # corners: top-level value() queries after the first, which is Z(r)
        for ev, calls in self.evaluators:
            self.counts["certify.corners"] += max(calls[0] - 1, 0)
            self.counts["indpoly.memo_entries"] += len(ev.memo)
        self.evaluators.clear()

    def _corner_evaluator(self, fn):
        tracer = self

        def make(*args, **kwargs):
            ev = fn(*args, **kwargs)
            calls = [0]

            def value(sub):
                # count the outermost query; recursion inside it finds the
                # class method again while the instance attribute is gone
                calls[0] += 1
                del ev.value
                try:
                    return type(ev).value(ev, sub)
                finally:
                    ev.value = value

            ev.value = value
            tracer.evaluators.append((ev, calls))
            return ev

        make.__wrapped__ = fn
        return make

    # -- install / remove ---------------------------------------------

    def install(self, mods: dict):
        after = {
            "decide_game": self._after_decide,
            "canonical_dumps": self._after_dumps,
            "sturm_roots": self._after_sturm,
            "count_real_roots": self._after_sturm,
            "check_maximal_direct": self._after_direct,
        }
        replacements = []
        for modname, fname, span, outermost in TRACED:
            fn = getattr(mods[modname], fname)
            hook = after.get(fname)
            replacements.append((fn, self.wrap(fn, span, outermost, hook)))
        seq = mods["roots"].sturm_sequence
        replacements.append((seq, self._counting(seq, self._after_sturm_sequence)))
        zc = mods["indpoly"].z_corner_evaluator
        replacements.append((zc, self._corner_evaluator(zc)))
        for fn, new in replacements:
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, new)
                        self._saved.append((mod, attr, fn))

    def _counting(self, fn, after):
        tracer = self

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            start = perf()
            after(out)
            tracer.bookkeeping(start)
            return out

        counted.__wrapped__ = fn
        return counted

    def remove(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    # -- results -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def metrics(self) -> dict[str, float]:
        selfs = self.self_times()
        out = {metric: selfs.get(span, 0.0) for metric, span in SELF_TIME.items()}
        out.update(self.counts)
        return out

    def dump(self, path: str):
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"name": n, "start_us": round((s - t0) * 1e6, 1),
             "dur_us": round((e - s) * 1e6, 1), "parent": p, "item": item}
            for n, s, e, p, item in self.spans
        ]
        with open(path, "w") as f:
            json.dump(rows, f)
