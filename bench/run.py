"""hatlab benchmark: one closed-loop client, one process, standard library only.

    python3 bench/run.py --workload {paper,solve,certify} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; hatlab is imported from ``src/``.
Set-up (a fresh import plus building the seeded inputs) is repeated and
timed.  Then the workload's items run one after another, in passes over the
same list, until the next pass would end after ``--seconds``; at least one
pass runs.  Garbage is collected between items, outside the timers.  Known-
hard items run once, after the passes.  Outputs are checked against
``oracles`` after every timer has stopped.

End-to-end times are in reference seconds (see ``calibrate``): each measured
interval times the machine speed sampled during it, so that a slow phase of
a shared host does not read as a change of the program.  The raw seconds
are printed next to them.  Per-layer times are raw.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics instead: it runs two untraced passes, the second being
the baseline of ``trace.overhead``, then repeats the set-up and one pass with spans around
hatlab's public functions (see ``tracing``), runs the known-hard items
traced, and writes the spans to ``.bench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts
wrong outputs, and ``unknown`` verdicts or exceptions on items that are not
known-hard; on known-hard items these lower ``correct_frac`` only.  The exit
code is 0 when nothing failed, 1 otherwise, and 2 when hatlab's sources are
missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

LAYERS = ("graphs", "games", "poly", "indpoly", "algebra", "certify", "roots",
          "extensions", "solver", "gallery", "io", "verify")
SETUPS = 9
perf = time.perf_counter


def import_hatlab() -> dict:
    """A fresh import of every hatlab module from this checkout."""
    for name in [m for m in sys.modules if m == "hatlab" or m.startswith("hatlab.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module("hatlab." + name) for name in LAYERS}
    if not mods["verify"].__file__.startswith(SRC + os.sep):
        raise ImportError(f"hatlab was imported from {mods['verify'].__file__}")
    return mods


# -- paper ---------------------------------------------------------------


def paper_setup(mods, seed):
    """The items are the eleven criteria, which fix their own inputs; the
    seed is unused."""
    return mods["verify"].CHECKS, []


def paper_pass(mods, items, tracer=None):
    """One serial verify.run_all(), or the given criteria one by one, as
    (start, end) per criterion and the CheckResults.  The verdict cache must
    be empty when the pass starts."""
    verify = mods["verify"]
    verify._VERDICT_CACHE.clear()
    if verify._VERDICT_CACHE:
        raise RuntimeError("the verdict cache is not empty at the start of a pass")
    gc.collect()
    start = perf()
    if len(items) == len(verify.CHECKS):
        results = verify.run_all()
    else:
        results = [verify.run_check(c) for c in items]
    spans = []
    for r in results:
        spans.append((start, start + r.seconds))
        start += r.seconds
    return spans, results


# -- solve and certify ---------------------------------------------------


def item_pass(run, mods, items, tracer=None):
    """Each item in turn, as (start, end) per item and its output or the
    exception it raised."""
    spans, outs = [], []
    for i, item in enumerate(items):
        gc.collect()
        if tracer is not None:
            tracer.item = i
            span = tracer.open("item")
        start = perf()
        try:
            out = run(mods, item)
        except Exception as exc:  # one failing item must not abort the run
            out = exc
        spans.append((start, perf()))
        if tracer is not None:
            tracer.close(span)
        outs.append(out)
    return spans, outs


def judge(check, item, out, cache) -> str:
    """'ok', 'wrong', or 'undecided' (unknown verdict or exception)."""
    if isinstance(out, Exception):
        return "undecided"
    try:
        verdict = check(item, out, cache)
    except Exception:  # a malformed output is a wrong output
        return "wrong"
    return {True: "ok", False: "wrong", None: "undecided"}[verdict]


# -- the run -------------------------------------------------------------


def quantiles(samples):
    if len(samples) < 2:
        return samples[0], samples[0]
    cuts = statistics.quantiles(samples, n=10)
    return cuts[4], cuts[8]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("paper", "solve", "certify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "hatlab", "__init__.py")):
        print(f"bench: no hatlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import calibrate
    import tracing
    import workloads

    if args.workload == "paper":
        setup, one_pass, run, check = paper_setup, paper_pass, None, None
    else:
        setup, run, check = workloads.WORKLOADS[args.workload]

        def one_pass(mods, items, tracer=None):
            return item_pass(run, mods, items, tracer)

    with calibrate.Speedometer() as speed:
        setup_spans = []
        for _ in range(SETUPS):
            start = perf()
            mods = import_hatlab()
            items, hard = setup(mods, args.seed)
            setup_spans.append((start, perf()))
            gc.collect()

        # untraced item spans per pass; (item indices, outputs) per pass run
        everything = list(range(len(items)))
        passes, outputs = [], []
        if args.trace:
            # the untraced baseline of trace.overhead: the second of two
            # passes, the first warming up; on paper the criteria outside the
            # solver group, since criterion 08 is one solve of 40 s or more
            # that carries a single span
            base = [i for i in everything
                    if args.workload != "paper" or items[i].group != "solver"]
            for _ in range(2):
                base_spans, outs = one_pass(mods, [items[i] for i in base])
                outputs.append((base, outs))
            tracer = tracing.Tracer()
            tracer.install(mods)
            try:
                items, hard = setup(mods, args.seed)
                traced, outs = one_pass(mods, items, tracer)
                outputs.append((everything, outs))
                hard_outs = item_pass(run, mods, hard, tracer)[1] if hard else []
            finally:
                tracer.remove()
        else:
            start = perf()
            while True:
                spans, outs = one_pass(mods, items)
                passes.append(spans)
                outputs.append((everything, outs))
                elapsed = perf() - start
                if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                    break
            hard_outs = item_pass(run, mods, hard)[1] if hard else []

    def ref(spans):
        return [speed.reference_seconds(s, e) for s, e in spans]

    # -- checks, outside every timer ------------------------------------
    attempted = failed = 0
    item_ok = [True] * len(items)
    cache: dict = {}
    for indices, outs in outputs:
        for i, out in zip(indices, outs):
            item = items[i]
            if args.workload == "paper":
                verdict = "ok" if out.ok else "wrong"
                detail = f"criterion {out.name}: {out.details}"
            else:
                verdict = judge(check, item, out, cache)
                detail = f"item {i} ({item['kind']}): {out!r:.300}"
            attempted += 1
            if verdict != "ok":
                failed += 1
                item_ok[i] = False
                print(f"{verdict}: {detail}", file=sys.stderr)
    hard_ok = []
    for item, out in zip(hard, hard_outs):
        verdict = judge(check, item, out, cache)
        attempted += 1
        failed += verdict == "wrong"
        hard_ok.append(verdict == "ok")
        print(f"known-hard {item['kind']} item: {verdict}: {out!r:.60}")

    print(f"workload {args.workload}, seed {args.seed}: {len(items)} items, "
          f"machine speed {statistics.median(speed.speeds):.3g} "
          f"({len(speed.speeds)} samples)")
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        tracer.dump(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.json"))
        print("largest solve: {} decisions, {} variables, {} clauses".format(*tracer.largest))
        metrics = {}
        for name, value in tracer.metrics().items():
            metrics[name] = (value, "s" if name.endswith("_s") or name.endswith(".s") else "count")
        for i in range(11):
            seconds = outputs[-1][1][i].seconds if args.workload == "paper" else 0.0
            metrics[f"verify.c{i + 1:02d}_s"] = (seconds, "s")
        overhead = sum(ref(traced[i] for i in base)) / sum(ref(base_spans)) - 1
        metrics["trace.overhead"] = (overhead, "ratio")
    else:
        pass_times = [sum(ref(spans)) for spans in passes]
        samples = [t for spans in passes for t in ref(spans)]
        p50, p90 = quantiles(samples)
        raw = statistics.median(sum(e - s for s, e in spans) for spans in passes)
        print(f"{len(passes)} pass(es), {len(samples)} item samples, "
              f"{sum(t > p90 for t in samples)} above p90; median raw pass {raw:.4g} s")
        correct = sum(item_ok) + sum(hard_ok)
        metrics = {
            "setup_s": (statistics.median(ref(setup_spans)), "s"),
            "wall_s": (statistics.median(pass_times), "s"),
            "item_p50_ms": (p50 * 1000, "ms"),
            "item_p90_ms": (p90 * 1000, "ms"),
            "correct_frac": (correct / (len(items) + len(hard)), "fraction"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name:26s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
