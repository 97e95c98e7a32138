"""Per-layer spans and counters, recorded from outside the package.

install() rebinds charp's public entry points to wrappers in every
namespace where each name is looked up: a function imported by name into
several modules (series_mul into charp.series, substitute_series into
charp.valuation, free_basis into charp.cartier, ...) is replaced in each of
them, and methods are replaced on their class.  Nothing in the package is
edited, and uninstall() puts every original back.

A span wrapper keeps a stack of open spans.  A layer's self time is its
span's duration minus the time its child spans cover, so the self times of
all layers plus the time no span covers add up to the traced busy time.
Spans read the wall clock, which costs no system call; the harness's op
times read the CPU clocks.
Spans are aggregated per name as they close instead of being kept one by
one, which keeps memory flat however many ops a run makes.  Counters and
spans only record while an op is running (`active`), so the benchmark's own
input generation and answer checks never count.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import defaultdict

WIDE_P = 1 << 16  # characteristics above this count as wide coefficients

# Span names.  Each one's self time is reported as "<name>.self_share",
# its share of the traced busy time (the seconds are in the full record):
# a layer an op never enters then reads 0 as a ratio, not as a time.
SPANS = ("kernels.series_mul", "series.substitute", "valuation.valuate",
         "valuation.images", "valuation.first_difference", "poly.mul",
         "frobenius.decompose", "frobenius.frobenius_image", "cartier.apply",
         "cartier.check_compatible", "parser.parse", "excellence.report",
         "cli.main")

# (layer metric, unit) for every per-layer number a traced run reports.
LAYER_METRICS = (
    ("kernels.series_mul.calls", "count"),
    ("kernels.series_mul.self_share", "ratio"),
    ("kernels.series_mul.coeff_products", "count"),
    ("kernels.series_mul.wide_p.self_share", "ratio"),
    ("series.substitute.calls", "count"),
    ("series.substitute.self_share", "ratio"),
    ("series.substitute.terms", "count"),
    ("series.substitute.precision_sum", "count"),
    ("valuation.valuate.calls", "count"),
    ("valuation.valuate.self_share", "ratio"),
    ("valuation.certify.attempts", "count/call"),
    ("valuation.certify.useful_ratio", "ratio"),
    ("valuation.images.self_share", "ratio"),
    ("valuation.first_difference.self_share", "ratio"),
    ("streams.coefficient.calls", "count"),
    ("poly.mul.calls", "count"),
    ("poly.mul.term_pairs", "count"),
    ("poly.mul.self_share", "ratio"),
    ("ffield.elem_ops", "count"),
    ("ffield.frobenius.calls", "count"),
    ("frobenius.decompose.self_share", "ratio"),
    ("frobenius.frobenius_image.self_share", "ratio"),
    ("frobenius.free_basis.elements", "count"),
    ("cartier.apply.calls", "count"),
    ("cartier.apply.self_share", "ratio"),
    ("cartier.check_compatible.calls", "count"),
    ("cartier.check_compatible.self_share", "ratio"),
    ("cartier.check_compatible.applies_per_check", "count/call"),
    ("parser.parse.self_share", "ratio"),
    ("excellence.report.self_share", "ratio"),
    ("cli.main.self_share", "ratio"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("trace.ops", "count"),
    ("trace.busy_s", "s"),
    ("trace.uncovered_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Span stack and per-name totals for the ops of one traced run."""

    def __init__(self):
        self.active = False
        self.stack = []               # open spans: [name, start, child time]
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.top_s = 0.0              # time covered by outermost spans
        self.busy_s = 0.0
        self.ops = 0
        self._in_oracle = False

    @contextlib.contextmanager
    def op(self):
        """Mark one op's work as traced busy time."""
        self.active = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.busy_s += time.perf_counter() - start
            self.active = False
            self.ops += 1
            self.stack.clear()

    def span(self, name, fn, note=None):
        """Wrap fn in a span; note(args, result, self_time) adds counts.

        A call made while a span of the same name is open runs unwrapped,
        so a layer calling its own entry points is one span.
        """
        def wrapper(*args, **kwargs):
            if not self.active or any(f[0] == name for f in self.stack):
                return fn(*args, **kwargs)
            frame = [name, time.perf_counter(), 0.0]
            self.stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - frame[1]
                own = duration - frame[2]
                self.stack.pop()
                if self.stack:
                    self.stack[-1][2] += duration
                else:
                    self.top_s += duration
                self.self_s[name] += own
                self.counts[name + ".calls"] += 1
            if note is not None:
                note(args, result, own)
            return result
        return wrapper

    def counter(self, name, fn, weight=None):
        """Wrap fn to count calls (or weight(args, result)) without a span."""
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.active:
                self.counts[name] += 1 if weight is None else weight(
                    args, result)
            return result
        return wrapper

    def oracle(self, fn):
        """Count coefficient evaluations, once per outermost oracle call
        (a perturbed stream's oracle calls its base stream's)."""
        def wrapper(n):
            if not self.active or self._in_oracle:
                return fn(n)
            self._in_oracle = True
            self.counts["streams.coefficient.calls"] += 1
            try:
                return fn(n)
            finally:
                self._in_oracle = False
        return wrapper

    def layer_metrics(self, overhead_ratio, interpreter_ms, import_ms):
        """Every per-layer metric as name -> (value, unit)."""
        c = self.counts
        busy = self.busy_s or 1.0
        values = {name + ".self_share": self.self_s[name] / busy
                  for name in SPANS}
        attempted = c["valuation.certify.precision_attempted"]
        checks = c["cartier.check_compatible.calls"]
        valuations = c["valuation.valuate.calls"]
        values.update({
            "kernels.series_mul.calls": c["kernels.series_mul.calls"],
            "kernels.series_mul.coeff_products":
                c["kernels.series_mul.coeff_products"],
            "kernels.series_mul.wide_p.self_share":
                self.self_s["kernels.series_mul.wide_p"] / busy,
            "series.substitute.calls": c["series.substitute.calls"],
            "series.substitute.terms": c["series.substitute.terms"],
            "series.substitute.precision_sum":
                c["series.substitute.precision_sum"],
            "valuation.valuate.calls": valuations,
            "valuation.certify.attempts":
                c["series.substitute.calls"] / valuations if valuations else 0,
            "valuation.certify.useful_ratio":
                c["valuation.certify.precision_certified"] / attempted
                if attempted else 0,
            "streams.coefficient.calls": c["streams.coefficient.calls"],
            "poly.mul.calls": c["poly.mul.calls"],
            "poly.mul.term_pairs": c["poly.mul.term_pairs"],
            "ffield.elem_ops": c["ffield.elem_ops"],
            "ffield.frobenius.calls": c["ffield.frobenius.calls"],
            "frobenius.free_basis.elements":
                c["frobenius.free_basis.elements"],
            "cartier.apply.calls": c["cartier.apply.calls"],
            "cartier.check_compatible.calls": checks,
            "cartier.check_compatible.applies_per_check":
                c["cartier.apply.in_check"] / checks if checks else 0,
            "cli.interpreter_ms": interpreter_ms,
            "cli.import_ms": import_ms,
            "trace.ops": self.ops,
            "trace.busy_s": self.busy_s,
            "trace.uncovered_s": self.busy_s - self.top_s,
            "trace.overhead_ratio": overhead_ratio,
        })
        return {name: (values[name], unit) for name, unit in LAYER_METRICS}

    def self_seconds(self):
        """Each span's self time in seconds, for the full record."""
        return {name + ".self_s": self.self_s[name]
                for name in SPANS + ("kernels.series_mul.wide_p",)}


def _charp_namespaces():
    return [mod for name, mod in sorted(sys.modules.items())
            if (name == "charp" or name.startswith("charp.")) and mod]


def install(tracer: Tracer):
    """Rebind charp's entry points to tracing wrappers; returns an undo list
    for uninstall().

    An entry point that is not there raises AttributeError, after putting
    back what was already rebound, and a count that cannot be read from a
    call's arguments fails the op, so that a refactored package cannot
    report a layer it no longer reaches as 0.
    """
    from charp import (cartier, cli, excellence, ffield, frobenius, parser,
                       poly, series, streams, valuation)

    undo = []
    namespaces = _charp_namespaces()
    t = tracer

    def rebind(owners, original, wrapper):
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, wrapper)
                    undo.append((owner, attr, original))

    def function(module, name, make):
        original = getattr(module, name)
        rebind(namespaces, original, make(original))

    def method(cls, attr, make):
        if attr not in vars(cls):
            raise AttributeError(f"{cls.__qualname__} defines no {attr}")
        original = vars(cls)[attr]
        rebind([cls], original, make(original))

    def kernel_note(args, result, own):
        a, b, _red, p, nout = args
        t.counts["kernels.series_mul.coeff_products"] += (
            min(a.shape[0], nout) * min(b.shape[0], nout) * a.shape[1] ** 2)
        if p > WIDE_P:
            t.self_s["kernels.series_mul.wide_p"] += own

    def substitute_note(args, result, own):
        f, _images, precision = args
        t.counts["series.substitute.terms"] += len(f.terms)
        t.counts["series.substitute.precision_sum"] += precision

    def mul_note(args, result, own):
        a, b = args
        t.counts["poly.mul.term_pairs"] += len(a.terms) * (
            len(b.terms) if isinstance(b, poly.MultiPoly) else 1)

    def apply_note(args, result, own):
        if any(f[0] == "cartier.check_compatible" for f in t.stack):
            t.counts["cartier.apply.in_check"] += 1

    def span(name, note=None):
        return lambda fn: t.span(name, fn, note)

    try:
        function(series, "series_mul",
                 span("kernels.series_mul", kernel_note))
        function(series, "substitute_series",
                 span("series.substitute", substitute_note))
        ev = valuation.EmbeddingValuation
        for attr in ("valuate", "valuate_with_certificate",
                     "valuate_rational", "in_ring", "residue"):
            method(ev, attr, span("valuation.valuate"))
        method(ev, "images", span("valuation.images"))
        method(ev, "_certify", lambda fn: _certify_hook(t, fn))
        function(valuation, "first_difference",
                 span("valuation.first_difference"))
        method(streams.SeriesStream, "oracle",
               lambda slot: _oracle_slot(t, slot))
        method(poly.MultiPoly, "__mul__", span("poly.mul", mul_note))
        for attr in ("__add__", "__sub__", "__rsub__", "__neg__", "__mul__",
                     "__truediv__", "__pow__", "inverse"):
            method(ffield.FieldElement, attr,
                   lambda fn: t.counter("ffield.elem_ops", fn))
        function(ffield, "frobenius_pow",
                 lambda fn: t.counter("ffield.frobenius.calls", fn))
        function(frobenius, "decompose", span("frobenius.decompose"))
        function(frobenius, "frobenius_image",
                 span("frobenius.frobenius_image"))
        function(frobenius, "free_basis",
                 lambda fn: t.counter(
                     "frobenius.free_basis.elements", fn,
                     weight=lambda args, result: len(result)))
        method(cartier.CartierMap, "apply",
               span("cartier.apply", apply_note))
        function(cartier, "check_compatible",
                 span("cartier.check_compatible"))
        for name in ("parse_poly", "parse_rational"):
            function(parser, name, span("parser.parse"))
        for name in ("f_finite_report", "dvr_report"):
            function(excellence, name, span("excellence.report"))
        function(cli, "main", span("cli.main"))
    except Exception:
        uninstall(undo)
        raise
    return undo


def _certify_hook(t: Tracer, fn):
    """Precision escalation: what a certification attempted and kept."""
    def wrapper(self, *args, **kwargs):
        if not t.active:
            return fn(self, *args, **kwargs)
        before = t.counts["series.substitute.precision_sum"]
        result = fn(self, *args, **kwargs)
        t.counts["valuation.certify.precision_attempted"] += (
            t.counts["series.substitute.precision_sum"] - before)
        t.counts["valuation.certify.precision_certified"] += result[1]
        return result
    return wrapper


def _oracle_slot(t: Tracer, slot):
    """Replace the stream class's `oracle` slot by a property that wraps
    the oracle on every read, so that streams made before install(), such
    as those of the warm valuations built in set-up, are counted too; the
    valuation engine reads stream.oracle and calls it directly."""
    return property(lambda stream: t.oracle(slot.__get__(stream)),
                    slot.__set__)


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)
