"""Command-line surface: build gallery constructions, solve and certify
games, evaluate independence polynomials, isolate roots, and run the
reproduction suite.

All verdict payloads are canonical JSON; exact rationals print as "p/q"
in lowest terms and no floating point appears anywhere.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from fractions import Fraction

from . import io as hio
from .algebra import eval_expr
from .certify import (
    Inconclusive,
    LosingCertificate,
    MaximalityCertificate,
    Refutation,
    check_maximal_compositional,
    check_maximal_direct,
    losing_by_Z_positive,
    mu_hat_chordal,
)
from .gallery import (
    build_chain,
    build_delta6_hg8,
    build_delta_plus_k,
    build_extension_example,
    build_scary,
)
from .games import uniform_game
from .graphs import diameter, is_chordal, stats
from .indpoly import eval_P, eval_Z, univariate_P, univariate_U
from .poly import UnivariatePoly
from .roots import family, smallest_positive_root, verify_root_interval
from .solver import GameVerdict, decide_game
from .verify import run_all


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a rational number: {text!r}") from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _poly_payload(p: UnivariatePoly) -> dict:
    return {
        "coefficients": [hio.frac_str(c) for c in p.coeffs],
        "integer_cleared": [str(c) for c in p.integer_cleared()],
    }


def _emit(payload: dict):
    sys.stdout.write(hio.canonical_dumps(payload))


def _load_object(path: str) -> dict:
    obj = hio.read_json(path)
    if not isinstance(obj, dict):
        raise hio.SchemaError("/", "expected an object")
    return obj


def _load_game_or_graph(path: str):
    """A game when hatness is present, else the bare graph."""
    obj = _load_object(path)
    if "hatness" in obj:
        return hio.game_from_json(obj)
    return hio.graph_from_json(obj)


def _as_graph(loaded):
    return loaded.graph if hasattr(loaded, "graph") else loaded


def _given(value, default):
    """An option's value, or the default when it was left out; 0 counts
    as given."""
    return default if value is None else value


# -- subcommands -------------------------------------------------------


def _cmd_build(args) -> int:
    name = args.name
    expr = None
    graph = None
    game = None
    if name == "delta6":
        expr = build_delta6_hg8()
    elif name == "scary":
        expr = build_scary(_given(args.n, 3))
    elif name == "delta-plus-k":
        expr = build_delta_plus_k(_given(args.k, 1)).expr
    elif name == "chain":
        l = _given(args.l, 4)
        built = build_chain(_given(args.n, 2), l, args.variant)
        graph = built.graph
        expr = built.expr
        game = uniform_game(graph, l)
    elif name in ("ex1", "ex2", "ex3"):
        n, k = _given(args.n, 2), _given(args.k, 0)
        graph = build_extension_example(int(name[2]), n, k).graph
        if graph is None:
            raise ValueError(
                f"{name} with n = {n}, k = {k} builds no graph: "
                "a clique is smaller than the bridges it carries"
            )
    else:
        raise SystemExit(f"error: unknown construction {name!r}")
    if args.expr_output and expr is None:
        raise ValueError(f"{name!r} has no certificate expression")
    if game is None and expr is not None:
        game = eval_expr(expr).game
    if game is None:
        payload = hio.graph_to_json(graph)
    else:
        payload = hio.game_to_json(game)
    if args.output:
        hio.write_text(args.output, hio.canonical_dumps(payload))
    else:
        _emit(payload)
    if args.expr_output:
        hio.save_expr(expr, args.expr_output)
    return 0


def _cmd_solve(args) -> int:
    game = hio.load_game(args.game)
    verdict = decide_game(game, timeout_ms=args.timeout_ms)
    payload = {
        f.name: getattr(verdict, f.name)
        for f in fields(GameVerdict)
        if f.name not in ("strategy", "seconds", "reason")
    }
    if verdict.reason:
        payload["reason"] = verdict.reason
    _emit(payload)
    if args.emit_strategy:
        if verdict.strategy is None:
            raise ValueError("no strategy to emit (game not winning)")
        hio.write_text(
            args.emit_strategy,
            hio.canonical_dumps(hio.strategy_to_json(verdict.strategy)),
        )
    return 0


def _certificate_payload(cert) -> dict:
    if isinstance(cert, MaximalityCertificate):
        return {
            "verdict": "maximal",
            "z_at_r": hio.frac_str(cert.z_at_r),
            "method": cert.method,
            "justification": cert.justification,
        }
    if isinstance(cert, Refutation):
        return {
            "verdict": "not-maximal",
            "reason": cert.reason,
            "witness_point": {
                v: hio.frac_str(x) for v, x in cert.witness_point.items()
            },
            "witness_value": hio.frac_str(cert.witness_value),
        }
    if isinstance(cert, LosingCertificate):
        return {
            "verdict": "losing",
            "z_at_r": hio.frac_str(cert.z_at_r),
            "rule": cert.rule,
        }
    if isinstance(cert, Inconclusive):
        return {"verdict": "inconclusive", "reason": cert.reason}
    raise SystemExit(f"error: unrecognized certificate {cert!r}")


def _cmd_certify(args) -> int:
    obj = _load_object(args.path)
    if args.what == "maximal":
        if "op" in obj:
            cert = check_maximal_compositional(hio.expr_from_json(obj))
        else:
            cert = check_maximal_direct(hio.game_from_json(obj))
    else:  # losing
        cert = losing_by_Z_positive(hio.game_from_json(obj))
    _emit(_certificate_payload(cert))
    return 0


def _cmd_indpoly(args) -> int:
    loaded = _load_game_or_graph(args.path)
    graph = _as_graph(loaded)
    payload: dict = {"vertices": len(graph.vertices)}
    if args.at is not None:  # a bare --at gives no vertex a value
        x = {}
        for spec in args.at:
            v, eq, val = spec.partition("=")
            if not eq:
                raise ValueError(f"--at expects vertex=p/q, got {spec!r}")
            if v not in graph.index:
                raise ValueError(f"--at names unknown vertex {v!r}")
            if v in x:
                raise ValueError(f"--at gives vertex {v!r} twice")
            x[v] = _parse_fraction(val)
        missing = [v for v in graph.vertices if v not in x]
        if missing:
            raise ValueError(f"--at missing vertices {missing}")
        payload["P"] = hio.frac_str(eval_P(graph, x))
        payload["Z"] = hio.frac_str(eval_Z(graph, x))
    else:
        payload["P"] = _poly_payload(univariate_P(graph))
        payload["U"] = _poly_payload(univariate_U(graph))
    _emit(payload)
    return 0


def _cmd_muhat(args) -> int:
    loaded = _load_game_or_graph(args.path)
    graph = _as_graph(loaded)
    candidate = _parse_fraction(args.candidate) if args.candidate else None
    result = mu_hat_chordal(graph, candidate=candidate)
    payload = {
        "U": _poly_payload(result.poly),
        "elimination_ordering": result.elimination_ordering,
        "note": result.note,
    }
    if result.value is not None:
        payload["mu_hat"] = hio.frac_str(result.value)
    else:
        payload["mu_hat_interval"] = [
            hio.frac_str(result.interval.lower),
            hio.frac_str(result.interval.upper),
        ]
    _emit(payload)
    return 0


def _cmd_roots(args) -> int:
    poly = family(args.family, args.n)
    payload: dict = {
        "family": args.family,
        "n": args.n,
        "poly": _poly_payload(poly),
    }
    if args.k is not None:
        payload["value_at_k"] = hio.frac_str(poly(Fraction(args.k)))
    if args.interval:
        lo, hi = (_parse_fraction(t) for t in args.interval)
        payload["interval"] = [hio.frac_str(lo), hio.frac_str(hi)]
        payload["all_roots_inside"] = verify_root_interval(
            args.family, args.n, (lo, hi)
        )
    if args.min_positive_root:
        iso = smallest_positive_root(poly)
        if iso is None:
            payload["min_positive_root"] = None
        elif iso.exact_root is not None:
            payload["min_positive_root"] = hio.frac_str(iso.exact_root)
        else:
            payload["min_positive_root_interval"] = [
                hio.frac_str(iso.lower),
                hio.frac_str(iso.upper),
            ]
    _emit(payload)
    return 0


def _cmd_stats(args) -> int:
    loaded = _load_game_or_graph(args.path)
    graph = _as_graph(loaded)
    st = stats(graph)
    payload = {
        "vertices": len(graph.vertices),
        "edges": sum(map(len, graph.adj)) // 2,
        "degrees": dict(st.degrees),
        "max_degree": st.max_degree,
        "connected": st.connected,
        "chordal": is_chordal(graph) is not None,
    }
    if st.connected:
        payload["diameter"] = diameter(graph)
    if hasattr(loaded, "h"):
        payload["hatness"] = dict(loaded.h)
        payload["guesses"] = dict(loaded.g)
    _emit(payload)
    return 0


def _cmd_export(args) -> int:
    loaded = _load_game_or_graph(args.path)
    if args.output:
        hio.export_dot(loaded, args.output)
    else:
        sys.stdout.write(hio.dot_text(loaded))
    return 0


def _cmd_verify_paper(args) -> int:
    results = run_all(only=args.only)
    if not results:
        print(f"no criteria match --only {args.only!r}", file=sys.stderr)
        return 2
    failed = 0
    for r in results:
        mark = "PASS" if r.ok else "FAIL"
        print(f"{mark}  {r.name:30s} {r.seconds:8.2f}s  {r.details}")
        failed += 0 if r.ok else 1
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hatlab",
        description="exact workbench for hat-guessing games on graphs",
    )
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build a gallery construction")
    b.add_argument(
        "name",
        choices=["delta6", "scary", "delta-plus-k", "chain", "ex1", "ex2", "ex3"],
    )
    b.add_argument("--n", type=int)
    b.add_argument("--k", type=int)
    b.add_argument("--l", type=int)
    b.add_argument("--variant", default="standard",
                   choices=["standard", "tilde", "minus"])
    b.add_argument("-o", "--output")
    b.add_argument("--expr", dest="expr_output")
    b.set_defaults(fn=_cmd_build)

    s = sub.add_parser(
        "solve",
        help="decide a game: a clique with sum g/h >= 1; then leaves peeled, "
        "then Shearer's region; then exhaustive search",
    )
    s.add_argument("game")
    s.add_argument("--emit-strategy")
    s.add_argument(
        "--timeout-ms", type=_positive_int, metavar="N",
        help="give up with verdict unknown after N >= 1 ms of search; the "
        "budget covers only the CDCL search, not the encoding before it",
    )
    s.set_defaults(fn=_cmd_solve)

    c = sub.add_parser("certify", help="produce an exact certificate")
    c.add_argument("what", choices=["maximal", "losing"])
    c.add_argument("path")
    c.set_defaults(fn=_cmd_certify)

    i = sub.add_parser("indpoly", help="independence polynomial values")
    i.add_argument("path")
    i.add_argument("--at", nargs="*", metavar="VERTEX=P/Q")
    i.set_defaults(fn=_cmd_indpoly)

    m = sub.add_parser("muhat", help="fractional hat chromatic number (chordal)")
    m.add_argument("path")
    m.add_argument("--candidate")
    m.set_defaults(fn=_cmd_muhat)

    r = sub.add_parser("roots", help="recurrence polynomial families and roots")
    r.add_argument("--family", required=True, choices=["A", "B", "L", "Phi", "E"])
    r.add_argument("--n", type=int, required=True)
    r.add_argument("--k", type=int)
    r.add_argument("--interval", nargs=2, metavar=("LO", "HI"))
    r.add_argument("--min-positive-root", action="store_true")
    r.set_defaults(fn=_cmd_roots)

    st = sub.add_parser("stats", help="graph statistics")
    st.add_argument("path")
    st.set_defaults(fn=_cmd_stats)

    e = sub.add_parser("export", help="export to DOT")
    e.add_argument("path")
    e.add_argument("-o", "--output")
    e.set_defaults(fn=_cmd_export)

    v = sub.add_parser("verify-paper", help="run the reproduction suite")
    v.add_argument("--only")
    v.set_defaults(fn=_cmd_verify_paper)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
