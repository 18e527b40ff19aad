"""Command-line front end.

One subcommand per pipeline: ``validate`` (manifold + edge degrees),
``check`` (flagness / largeness / location), ``sd`` (descent property),
``metric`` (intervals, thinness, four-point constant), ``cover`` (ball
construction), ``links``, ``lemmas``, ``theorem-b`` and ``gen``.

Exit codes: 0 all checks passed, 1 some check failed (witness in the
report), 2 usage or input error, 3 internal error (one stderr line, no
traceback).  ``--json`` emits the machine-readable report on standard
output; progress goes to standard error.  With ``--json --timings`` the
report gains a ``timings`` object: the wall time in ms of ``load`` (reading
the input) and then of each library call the command makes, by function
name, in call order.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import cover as cover_mod
from . import manifold as manifold_mod
from .complexes import SimplicialComplex, is_flag
from .curvature import check_k_and_m, is_locally_k_large, is_m_located, located_and_large
from .errors import CombCurvError, NotASphere, NotPure
from .formats import dump_path, load_path, serialize_text
from .generators import generate, parse_generator_args
from .metric import DELTA_VERTEX_CAP, check_sd_prime, delta_four_point, interval, interval_thinness
from .verdicts import failed


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="combcurv",
                                description="curvature checkers for simplicial complexes")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--timings", action="store_true", help="add the wall time of each call to JSON")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="closed-3-manifold and edge-degree checks")
    sp.add_argument("path")

    sp = sub.add_parser("check", help="flagness / largeness / location")
    sp.add_argument("path")
    sp.add_argument("--m", type=int, help="verify m-location")
    sp.add_argument("--k", type=int, help="verify local k-largeness")
    sp.add_argument("--flag", action="store_true", help="verify flagness")
    sp.add_argument("--sphere-56", action="store_true", dest="sphere_56",
                    help="verify the degree-5/6 sphere condition")

    sp = sub.add_parser("sd", help="descent property around a base vertex")
    sp.add_argument("path")
    sp.add_argument("--base", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)

    sp = sub.add_parser("metric", help="intervals, thinness, four-point constant")
    sp.add_argument("path")
    sp.add_argument("--base", type=int)
    sp.add_argument("--other", type=int)
    sp.add_argument("--delta", action="store_true", help="four-point constant")
    sp.add_argument("--delta-cap", type=int, default=DELTA_VERTEX_CAP)

    sp = sub.add_parser("cover", help="build a universal-cover ball")
    sp.add_argument("path")
    sp.add_argument("--base", type=int, required=True)
    sp.add_argument("--radius", type=int, required=True)
    sp.add_argument("--out", help="write the final ball (complex JSON + sheet map)")
    sp.add_argument("--stage-limit", type=int, default=cover_mod.DEFAULT_STAGE_LIMIT)
    sp.add_argument("--vertex-limit", type=int, default=cover_mod.DEFAULT_VERTEX_LIMIT)

    sp = sub.add_parser("links", help="extract vertex links and run sphere checks")
    sp.add_argument("path")

    sp = sub.add_parser("lemmas", help="wheel and cycle filling suite")
    sp.add_argument("path")

    sp = sub.add_parser("theorem-b", help="full validation pipeline")
    sp.add_argument("path")

    sp = sub.add_parser("gen", help="emit a generated complex")
    sp.add_argument("spec", nargs="+", help="generator name and parameters")
    sp.add_argument("-o", "--out", help="output path (.json for JSON format)")
    return p


def _call(args, fn, *fargs, **kwargs):
    """``fn(*fargs, **kwargs)``, its wall time in ms kept in ``args.spent``
    under the name of ``fn``."""
    start = time.perf_counter()
    try:
        return fn(*fargs, **kwargs)
    finally:
        args.spent[fn.__name__] = round((time.perf_counter() - start) * 1000, 3)


def load(path) -> SimplicialComplex:
    return load_path(path).complex


def _load(args) -> SimplicialComplex:
    return _call(args, load, args.path)


def _print_json(args, doc):
    if args.timings:
        doc["timings"] = args.spent
    print(json.dumps(doc, indent=2))


def _emit(args, command, verdicts, extra=None):
    code = 0 if all(v.passed for v in verdicts) else 1
    if args.json:
        doc = {"command": command, "verdicts": [v.to_json() for v in verdicts]}
        if extra:
            doc.update(extra)
        _print_json(args, doc)
    else:
        for v in verdicts:
            line = f"[{v.status}] {v.check}"
            if v.detail:
                line += f": {v.detail}"
            print(line)
    return code


def cmd_validate(args):
    X = _load(args)
    try:
        report = _call(args, manifold_mod.validate_closed_3manifold, X)
    except NotPure as exc:
        return _emit(args, "validate", [failed("validate", exc.witness, detail=str(exc))])
    verdicts = [report.is_pseudomanifold, report.edge_link_cycles,
                report.vertex_links_spheres, report.five_six_star]
    return _emit(args, "validate", verdicts,
                 extra={"report": report.to_json()})


def cmd_check(args):
    X = _load(args)
    # a bad k or m is a usage error, reported before any flag test
    check_k_and_m(args.k, args.m)
    verdicts = []
    if args.flag or (args.m is None and args.k is None and not args.sphere_56):
        verdicts.append(_call(args, is_flag, X))
    # the checks test flagness themselves, once per complex
    if args.m is not None and args.k is not None:
        # one call reads each link once for both, largeness first
        verdicts.extend(_call(args, located_and_large, X, args.m, args.k)[1::-1])
    elif args.m is not None:
        verdicts.append(_call(args, is_m_located, X, args.m))
    elif args.k is not None:
        verdicts.append(_call(args, is_locally_k_large, X, args.k))
    if args.sphere_56:
        try:
            verdicts.append(_call(args, manifold_mod.is_5_6_star_sphere, X))
        except NotASphere as exc:
            verdicts.append(failed("is_5_6_star_sphere", {"kind": "not_a_sphere"},
                                   detail=str(exc)))
    return _emit(args, "check", verdicts)


def cmd_sd(args):
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    X = _load(args)
    report = _call(args, check_sd_prime, X, args.base, args.n)
    code = 0 if report.passed else 1
    if args.json:
        _print_json(args, {"command": "sd", "report": report.to_json()})
    else:
        print(f"[{'pass' if report.passed else 'fail'}] sd_prime base={args.base} n={args.n}")
        if not report.passed:
            print(f"  first failure: {report.first_failure().detail}")
    return code


def cmd_metric(args):
    if (args.base is None) != (args.other is None):
        missing = "--other" if args.other is None else "--base"
        raise ValueError(f"metric: {missing} is missing (--base and --other go together)")
    X = _load(args)
    out = {}
    if args.delta:
        out["delta"] = _call(args, delta_four_point, X, cap=args.delta_cap)
    if args.base is not None:
        itv = _call(args, interval, X, args.base, args.other)
        out["distance"] = itv.n
        out["layers"] = [sorted(layer) for layer in itv.layers]
        thin, pair = _call(args, interval_thinness, X, out["layers"])
        out["thinness"] = thin
        out["thinness_pair"] = list(pair) if pair else None
    if not out:
        print("metric: nothing requested (use --delta and/or --base/--other)",
              file=sys.stderr)
        return 2
    if args.json:
        doc = dict(out)
        if "delta" in doc:
            doc["delta"] = str(doc["delta"])
        _print_json(args, {"command": "metric", **doc})
    else:
        for k, v in out.items():
            print(f"{k}: {v}")
    return 0


def cmd_cover(args):
    X = _load(args)
    print(f"building cover ball of radius {args.radius} ...", file=sys.stderr)
    report = _call(args, cover_mod.build_cover, X, args.base, args.radius,
                   stage_limit=args.stage_limit, vertex_limit=args.vertex_limit)
    for (stage, nv, ne, fresh) in report.stage_stats:
        print(f"  stage {stage}: {nv} vertices, {ne} edges (+{fresh} classes)",
              file=sys.stderr)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report.state.to_json(), fh, indent=2)
    code = 0 if report.passed else 1
    if args.json:
        _print_json(args, {"command": "cover", "report": report.to_json()})
    else:
        print(f"[{'pass' if report.passed else 'fail'}] cover "
              f"radius={args.radius} vertices={report.state.ball.vertex_count} "
              f"thinness={report.max_interior_thinness}")
        for w in report.state.warnings:
            print(f"  warning: {w}")
    return code


def cmd_links(args):
    return _emit(args, "links", _call(args, manifold_mod.link_verdicts, _load(args)))


def cmd_lemmas(args):
    return _emit(args, "lemmas", _call(args, manifold_mod.lemma_verdicts, _load(args)))


def cmd_theorem_b(args):
    return _emit(args, "theorem-b", [_call(args, manifold_mod.verify_theorem_b, _load(args))])


def cmd_gen(args):
    spec = parse_generator_args(args.spec[0], args.spec[1:])
    X = generate(spec)
    if args.out:
        dump_path(X, args.out)
    else:
        sys.stdout.write(serialize_text(X))
    return 0


HANDLERS = {
    "validate": cmd_validate,
    "check": cmd_check,
    "sd": cmd_sd,
    "metric": cmd_metric,
    "cover": cmd_cover,
    "links": cmd_links,
    "lemmas": cmd_lemmas,
    "theorem-b": cmd_theorem_b,
    "gen": cmd_gen,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.spent = {}
    try:
        return HANDLERS[args.command](args)
    except (CombCurvError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
