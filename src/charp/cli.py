"""Command-line front end.

Subcommands: decompose, cartier (apply | compose | split-check | compat),
val, dvr distinguish, report (poly-ring | dvr), selftest.  Output is
compact JSON on stdout by default; --pretty renders aligned text.  Exit
codes: 0 success, 1 mathematical failure (precision exhausted, identical
streams, non-solid map, size bounds), 2 usage or parse errors, 141 when
stdout is closed before the output is written.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import excellence
from .cartier import (CartierMap, canonical_splitting, check_compatible,
                      check_linearity, compose)
from .errors import (CharpError, ContextMismatch, DegreeTooLarge, NotPrime,
                     PolySyntaxError, PrecisionMismatch)
from .ffield import make_context
from .frobenius import decompose as frob_decompose
from .frobenius import recompose
from .parser import parse_list, parse_poly, parse_rational
from .poly import MonomialIdeal, format_monomial, format_poly, random_poly
from .streams import (DEFAULT_PRECISION_CAP, distinguishing_fraction,
                      fraction_construction_string, parse_stream_spec)

USAGE_ERRORS = (NotPrime, DegreeTooLarge, PolySyntaxError, ContextMismatch,
                PrecisionMismatch, ValueError)


# Largest variable count, largest series precision, and largest count for
# the flags that set how often a command loops (--e-max, --trials,
# --samples).
MAX_VARS = 1000
MAX_PRECISION = 2 ** 20
MAX_COUNT = 10_000
# exit code when the reader of stdout is gone: 128 + SIGPIPE, as a shell
# reports a process that signal ends
EXIT_BROKEN_PIPE = 141


def _int_range(low=None, high=None):
    """An argparse type: an int in [low, high], either end open when None,
    else a usage error (exit 2)."""
    def parse(text):
        value = int(text)
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


_level = _int_range(1)

# Flags shared by several subcommands; --p, --m and --pretty go on every one.
_FLAGS = {
    "--p": dict(type=int, required=True, help="prime characteristic"),
    "--m": dict(type=int, default=1,
                help="extension degree of the coefficient field"),
    "--vars": dict(type=_int_range(0, MAX_VARS), required=True,
                   help=f"number of polynomial variables (0..{MAX_VARS})"),
    "--e": dict(type=_level, required=True, help="Frobenius level (>= 1)"),
    "--precision-cap": dict(type=_int_range(1, MAX_PRECISION),
                            default=DEFAULT_PRECISION_CAP,
                            help="largest series precision tried "
                                 f"(1..{MAX_PRECISION})"),
    "--stream": dict(action="append", default=None,
                     help="image stream for each variable after x (repeat "
                          "for more variables; default lacunary when "
                          "--vars is 2)"),
    "--seed": dict(type=int, default=0),
    "--pretty": dict(action="store_true", help="aligned text instead of JSON"),
}


def _command(subparsers, name, run, *flags, help=None, **defaults):
    """A subcommand that runs `run` and takes --p, --m, `flags` and --pretty.

    A default given here, keyed by dest (vars=2), makes that flag optional.
    """
    parser = subparsers.add_parser(name, help=help)
    for flag in ("--p", "--m", *flags, "--pretty"):
        spec = dict(_FLAGS[flag])
        dest = flag[2:].replace("-", "_")
        if dest in defaults:
            spec.update(default=defaults[dest], required=False)
        parser.add_argument(flag, **spec)
    parser.set_defaults(run=run)
    return parser


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="charp",
        description="Exact prime-characteristic algebra: Frobenius "
                    "pushforwards, maps inverse to Frobenius, and "
                    "power-series-embedded valuations.")
    sub = top.add_subparsers(dest="command", required=True)

    p_dec = _command(sub, "decompose", _decompose, "--vars", "--e",
                     help="pushforward decomposition of a polynomial")
    p_dec.add_argument("poly", help="polynomial text ('-' reads stdin)")

    p_car = sub.add_parser("cartier", help="operations on multiplier maps")
    car_sub = p_car.add_subparsers(dest="action", required=True)

    c_apply = _command(car_sub, "apply", _apply, "--vars", "--e")
    c_apply.add_argument("-g", required=True, help="multiplier polynomial")
    c_apply.add_argument("poly")

    c_comp = _command(car_sub, "compose", _compose, "--vars", "--e")
    c_comp.add_argument("-g", required=True, help="outer multiplier")
    c_comp.add_argument("--e2", type=_level, required=True,
                        help="inner level")
    c_comp.add_argument("--g2", required=True, help="inner multiplier")

    c_split = _command(car_sub, "split-check", _split_check, "--vars", "--e")
    c_split.add_argument("-g", required=True)

    c_compat = _command(car_sub, "compat", _compat, "--vars", "--e", e=None)
    c_compat.add_argument("--e-max", type=_int_range(1, MAX_COUNT),
                          default=None,
                          help="sweep every level from 1 to this bound "
                               f"(1..{MAX_COUNT})")
    c_compat.add_argument("-g", required=True,
                          help="multiplier polynomial, or several separated "
                               "by ';' to sweep a list")
    c_compat.add_argument("-J", required=True,
                          help="comma-separated monomial generators")

    p_val = _command(sub, "val", _val, "--vars", "--stream", "--precision-cap",
                     help="valuate a polynomial or fraction", vars=2)
    p_val.add_argument("poly",
                       help="polynomial or num/den ('-' reads stdin)")

    p_dvr = sub.add_parser("dvr", help="compare embedding valuation rings")
    dvr_sub = p_dvr.add_subparsers(dest="action", required=True)
    d_dist = _command(dvr_sub, "distinguish", _distinguish, "--precision-cap")
    d_dist.add_argument("--stream-a", required=True)
    d_dist.add_argument("--stream-b", required=True)

    p_rep = sub.add_parser("report", help="evidence-backed reports")
    rep_sub = p_rep.add_subparsers(dest="kind", required=True)
    _command(rep_sub, "poly-ring", _report_poly_ring, "--vars", "--e")
    r_dvr = _command(rep_sub, "dvr", _report_dvr, "--vars", "--stream",
                     "--seed", "--precision-cap", vars=2)
    r_dvr.add_argument("--versus", default=None,
                       help="cross-reference a second stream")
    r_dvr.add_argument("--samples", type=_int_range(high=MAX_COUNT),
                       default=50, help=f"residues sampled (<= {MAX_COUNT})")

    p_self = _command(sub, "selftest", _selftest, "--seed",
                      help="run a quick property bundle", p=2)
    p_self.add_argument("--trials", type=_int_range(high=MAX_COUNT),
                        default=100, help=f"trials per check (<= {MAX_COUNT})")

    return top


def _read_poly_arg(text: str) -> str:
    if text == "-":
        return sys.stdin.read()
    return text


def _json(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _pretty_flat(obj: dict) -> str:
    width = max(len(str(k)) for k in obj)
    return "\n".join(f"{str(k).ljust(width)}  {v}" for k, v in obj.items())


def _valuation(args, ctx):
    """The EmbeddingValuation x -> t, with one --stream image per further
    variable; lacunary is the default only when exactly one image is
    needed.  The specs are parsed before numpy is loaded."""
    if args.vars < 1:
        raise ValueError("--vars must be >= 1")
    count = args.vars - 1
    specs = args.stream or (["lacunary"] if count == 1 else [])
    if len(specs) != count:
        raise ValueError(
            f"--vars {args.vars} needs {count} --stream image(s), "
            f"got {len(specs)}")
    streams = [parse_stream_spec(s, ctx) for s in specs]
    from .valuation import EmbeddingValuation
    return EmbeddingValuation(ctx, streams, precision_cap=args.precision_cap)


def _decompose(args, ctx):
    f = parse_poly(_read_poly_arg(args.poly), ctx, args.vars)
    result = {format_monomial(rho, args.vars): format_poly(part)
              for rho, part in frob_decompose(f, args.e).sorted_components()}
    return result if result or not args.pretty else "(zero polynomial)"


def _apply(args, ctx):
    phi = CartierMap(args.e, parse_poly(args.g, ctx, args.vars))
    f = parse_poly(_read_poly_arg(args.poly), ctx, args.vars)
    return {"result": format_poly(phi.apply(f))}


def _compose(args, ctx):
    outer = CartierMap(args.e, parse_poly(args.g, ctx, args.vars))
    inner = CartierMap(args.e2, parse_poly(args.g2, ctx, args.vars))
    comp = compose(outer, inner)
    return {"e": comp.e, "multiplier": format_poly(comp.g)}


def _split_check(args, ctx):
    phi = CartierMap(args.e, parse_poly(args.g, ctx, args.vars))
    return {"is_splitting": phi.is_splitting()}


def _compat(args, ctx):
    if (args.e is None) == (args.e_max is None):
        raise ValueError("give exactly one of --e or --e-max")
    ideal = MonomialIdeal.from_polys(parse_list(args.J, ctx, args.vars, ","))
    multipliers = parse_list(args.g, ctx, args.vars, ";")
    levels = ([args.e] if args.e is not None
              else list(range(1, args.e_max + 1)))
    failures = [{"e": e, "g": format_poly(g)}
                for g in multipliers for e in levels
                if not check_compatible(CartierMap(e, g), ideal)]
    if len(multipliers) == 1 and len(levels) == 1:
        return {"compatible": not failures}
    return {"compatible": not failures,
            "checked": len(multipliers) * len(levels),
            "failures": failures}


def _val(args, ctx):
    V = _valuation(args, ctx)
    from .valuation import INFINITY
    r = parse_rational(_read_poly_arg(args.poly), ctx, args.vars)
    value, cert = V.valuate_with_certificate(r)
    return {"value": "inf" if value == INFINITY else value,
            "precision_certified": cert}


def _distinguish(args, ctx):
    stream_a = parse_stream_spec(args.stream_a, ctx)
    stream_b = parse_stream_spec(args.stream_b, ctx)
    # agreeing streams raise StreamsAgree here, before numpy is loaded
    i, frac = distinguishing_fraction(stream_a, stream_b,
                                      cap=args.precision_cap)
    from .valuation import EmbeddingValuation
    V_a, V_b = (EmbeddingValuation(ctx, [s], precision_cap=args.precision_cap)
                for s in (stream_a, stream_b))
    return {
        "i": i,
        "fraction": fraction_construction_string(stream_a, i),
        "in_ring_a": V_a.in_ring(frac),
        "in_ring_b": V_b.in_ring(frac),
    }


def _report_poly_ring(args, ctx):
    return excellence.f_finite_report(args.p, args.m, args.vars, args.e)


def _report_dvr(args, ctx):
    versus = parse_stream_spec(args.versus, ctx) if args.versus else None
    return excellence.dvr_report(_valuation(args, ctx), versus=versus,
                                 samples=args.samples, seed=args.seed)


def _selftest(args, ctx):
    rng = random.Random(args.seed)
    trials = args.trials
    checks = {}

    ok = 0
    for _ in range(trials):
        f = random_poly(ctx, 2, rng, max_terms=6, max_degree=10)
        e = rng.randint(1, 2)
        if recompose(frob_decompose(f, e)) == f:
            ok += 1
    checks["decompose_roundtrip"] = {"trials": trials, "ok": ok}

    phi = CartierMap(1, random_poly(ctx, 2, rng, 4, 4))
    checks["linearity"] = {
        "trials": trials,
        "ok": trials if check_linearity(phi, trials, rng) else 0}

    ok = 0
    for _ in range(max(trials // 2, 1)):
        outer = CartierMap(rng.randint(1, 2), random_poly(ctx, 2, rng, 3, 3))
        inner = CartierMap(rng.randint(1, 2), random_poly(ctx, 2, rng, 3, 3))
        f = random_poly(ctx, 2, rng, 4, 4)
        if compose(outer, inner).apply(f) == outer.apply(inner.apply(f)):
            ok += 1
    checks["compose"] = {"trials": max(trials // 2, 1), "ok": ok}

    splits = all(
        canonical_splitting(make_context(p), n, e).is_splitting()
        for p in (2, 3) for n in (1, 2) for e in (1, 2))
    checks["canonical_splitting"] = {"ok": splits}

    passed = (checks["decompose_roundtrip"]["ok"] == trials
              and checks["linearity"]["ok"] == trials
              and checks["compose"]["ok"] == checks["compose"]["trials"]
              and splits)
    return {"ok": passed} if args.pretty else {"ok": passed, "checks": checks}


def main(argv=None) -> int:
    # charp's arrays are int64, which numpy never hands to BLAS, so the
    # thread pool OpenBLAS starts when numpy loads would only cost start-up
    # time; a value the user set is kept
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        payload = args.run(args, make_context(args.p, args.m))
    except (CharpError, ValueError) as exc:
        print(_json({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2 if isinstance(exc, USAGE_ERRORS) else 1
    if isinstance(payload, excellence.ExcellenceReport):
        payload = payload.render_text() if args.pretty else payload.to_json()
    elif isinstance(payload, dict):
        payload = _pretty_flat(payload) if args.pretty else _json(payload)
    try:
        print(payload)
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout again at exit; send what is left to devnull
        # so that flush cannot fail as well
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return 0


if __name__ == "__main__":
    sys.exit(main())
