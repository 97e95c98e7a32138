"""`cli`: one `python -m charp.cli` process per op.

This is what a user pays per command: interpreter start, `import charp`
(mostly numpy), argparse and JSON, plus cold valuations (streams realized
again, escalation restarting at 16, separating fractions with many
terms).  Each round runs every command kind once, in a fixed order, with
arguments drawn from the seed:

    decompose, cartier apply / compose / split-check / compat, val,
    dvr distinguish, report poly-ring, report dvr --versus, selftest,
    a usage error (exit 2) and a mathematical error (exit 1).

Stdout is parsed and checked against answers known by construction, the
same ones the multiplier and valuate workloads use; an error op is right
when it exits with its documented code and names the expected error.  In a
traced run (--trace 1) the same argv run in-process through charp.cli.main.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import os
import random
import subprocess
import sys

from harness import Op
from multiplier import Case, compatible_by_residues
from valuate import gap_exponents, stream_label

KINDS = ("decompose", "apply", "compose", "split-check", "compat", "val",
         "distinguish", "report-poly", "report-dvr", "selftest",
         "usage-error", "math-error")
PRIMES = (2, 3, 5, 7)
GAP_SPECS = (("lacunary",), ("geometric-gap", 2), ("geometric-gap", 3),
             ("geometric-gap", 5))
CAP = 4096
PERTURB_BELOW = 1024  # perturbed streams keep their next exponent below

EXCLUDED = [
    {"case": "dvr distinguish --p 2 --stream-a lacunary "
             "--stream-b lacunary+t^1000",
     "reason": "exits 1 with PrecisionExhausted although membership is "
               "decidable below the cap (ROADMAP item 5); only "
               "perturbations whose next stream exponent lies below the "
               "cap are used"},
    {"case": "dvr distinguish --p 3 --stream-a from-seed(7) "
             "--stream-b from-seed(7)+t^700",
     "reason": "2.5 s per op; from-seed perturbations are scaled down to "
               "index <= 120"},
    {"case": "val --precision-cap 3000000 ...",
     "reason": "no cap bound, so it runs for minutes (ROADMAP item 5)"},
    {"case": "report dvr --vars 3 --versus ...",
     "reason": "silently builds a 2-variable fraction (ROADMAP item 5)"},
    {"case": "cartier compat / report poly-ring with p^(e*n) > 4096",
     "reason": "basis enumeration giants or SizeBound today (ROADMAP item "
               "4 changes the outcome), so they are not expected errors"},
]


class Command:
    """Builds one argv of each kind and the check of its output."""

    def __init__(self, charp, rng):
        self.charp = charp
        self.rng = rng

    def _case(self):
        """A multiplier Case small enough for a CLI op."""
        rng = self.rng
        while True:
            p, n, e = rng.choice(PRIMES), rng.randint(1, 3), rng.randint(1, 2)
            if p ** (e * n) <= 512:
                break
        ctx = self.charp.make_context(p, rng.randint(1, 3))
        return Case(self.charp, ctx, rng, n, e, rng.randint(1, n))

    @staticmethod
    def _field(case):
        return ["--p", str(case.ctx.p), "--m", str(case.ctx.m),
                "--vars", str(case.n)]

    def decompose(self):
        charp, case = self.charp, self._case()
        argv = ["decompose", *self._field(case), "--e", str(case.e),
                charp.format_poly(case.f)]

        def check(out):
            got = {}
            for mono, part in out.items():
                (rho,) = charp.parse_poly(mono, case.ctx, case.n).terms
                got[rho] = charp.parse_poly(part, case.ctx, case.n)
            return None if got == case.components else "wrong components"
        return argv, check

    def apply(self):
        charp, case = self.charp, self._case()
        argv = ["cartier", "apply", *self._field(case), "--e", str(case.e),
                "-g", charp.format_poly(case.g), charp.format_poly(case.f)]

        def check(out):
            got = charp.parse_poly(out["result"], case.ctx, case.n)
            return None if got == case.image else "wrong image"
        return argv, check

    def compose(self):
        charp, case = self.charp, self._case()
        outer, inner = case.outer, case.inner
        argv = ["cartier", "compose", *self._field(case),
                "--e", str(outer.e), "-g", charp.format_poly(outer.g),
                "--e2", str(inner.e), "--g2", charp.format_poly(inner.g)]

        def check(out):
            if out["e"] != outer.e + inner.e:
                return f"composite level {out['e']}"
            g = charp.parse_poly(out["multiplier"], case.ctx, case.n)
            chained = outer.apply(inner.apply(case.f))
            if charp.CartierMap(out["e"], g).apply(case.f) != chained:
                return "composite differs from the chained maps"
            return None
        return argv, check

    def split_check(self):
        charp, case = self.charp, self._case()
        argv = ["cartier", "split-check", *self._field(case),
                "--e", str(case.e), "-g", charp.format_poly(case.split_g)]
        return argv, lambda out: (None if out == {"is_splitting": case.splits}
                                  else f"is_splitting {out}")

    def compat(self):
        charp, rng, case = self.charp, self.rng, self._case()
        fmt = charp.format_poly
        if rng.random() < 0.5:
            pairs = [(case.canonical.g, case.sq_gens),
                     (case.bad.g, case.bad_gens)]
            g, gens = rng.choice(pairs)
            levels, multipliers = [case.e], [g]
            flags = ["--e", str(case.e), "-g", fmt(g)]
        else:
            gens = case.bad_gens
            multipliers = [case.bad.g, case.canonical.g]
            levels = list(range(1, case.e + 1))
            flags = ["--e-max", str(case.e), "-g",
                     ";".join(fmt(g) for g in multipliers)]
        ideal = ",".join(charp.format_poly(charp.MultiPoly.monomial(
            case.ctx, case.n, u)) for u in gens)
        argv = ["cartier", "compat", *self._field(case), *flags, "-J", ideal]
        failures = [(e, g) for g in multipliers for e in levels
                    if not compatible_by_residues(g, gens, case.ctx.p ** e)]

        def check(out):
            if out["compatible"] != (not failures):
                return f"compatible {out['compatible']}"
            if len(multipliers) * len(levels) == 1:
                return None if len(out) == 1 else f"extra keys in {out}"
            got = [(item["e"], charp.parse_poly(item["g"], case.ctx, case.n))
                   for item in out["failures"]]
            if out["checked"] != len(multipliers) * len(levels) or \
                    got != failures:
                return f"sweep {out}"
            return None
        return argv, check

    def val(self):
        charp, rng = self.charp, self.rng
        p, m = rng.choice(PRIMES), rng.randint(1, 3)
        ctx = charp.make_context(p, m)
        spec = rng.choice(GAP_SPECS)
        streams = ["--stream", stream_label(spec)]
        nvars = 2
        if rng.random() < 0.3:
            nvars = 3
            streams += ["--stream", f"from-seed({rng.randint(1, 99)})"]

        def element(low, high):
            exps = gap_exponents(spec, high)
            j = rng.randrange(len(exps))
            r = rng.randint(1, max(1, min(3, (high - 1) // exps[j])))
            s = rng.randrange(max(0, low - r * exps[j]),
                              max(1, high - r * exps[j]))
            mono = charp.MultiPoly.monomial(
                ctx, nvars, (s,) + (0,) * (nvars - 1))
            a = charp.MultiPoly.variable(ctx, nvars, 1)
            for e in exps[:j]:
                a = a - charp.MultiPoly.monomial(
                    ctx, nvars, (e,) + (0,) * (nvars - 1))
            unit = charp.MultiPoly.const(ctx, nvars, ctx.random_nonzero(rng))
            return unit * mono * a ** r, s + r * exps[j]

        num, v_num = element(1, 1024)
        text, want, top = charp.format_poly(num), v_num, v_num
        if rng.random() < 0.4:
            den, v_den = element(1, 512)
            text = f"{text}/({charp.format_poly(den)})"
            want, top = v_num - v_den, max(v_num, v_den)
        argv = ["val", "--p", str(p), "--m", str(m), "--vars", str(nvars),
                *streams, text]

        def check(out):
            if out["value"] != want:
                return f"value {out['value']}, expected {want}"
            if not top < out["precision_certified"] <= CAP:
                return f"certificate {out['precision_certified']}"
            return None
        return argv, check

    def _perturbed(self, p):
        """(stream spec, perturbation index k) with the stream's next
        nonzero coefficient after k below the cap."""
        rng = self.rng
        if rng.random() < 0.35:
            return f"from-seed({rng.randint(1, 99)})", rng.randint(20, 120)
        spec = rng.choice(GAP_SPECS)
        exps = gap_exponents(spec, PERTURB_BELOW)
        k = rng.randint(1, exps[-1] - 1)
        return stream_label(spec), k

    def distinguish(self):
        charp, rng = self.charp, self.rng
        p, m = rng.choice(PRIMES), rng.randint(1, 3)
        label, k = self._perturbed(p)
        other = f"{label}+t^{k}" if k > 1 else f"{label}+t"
        argv = ["dvr", "distinguish", "--p", str(p), "--m", str(m),
                "--stream-a", label, "--stream-b", other]

        def check(out):
            if (out["i"], out["in_ring_a"], out["in_ring_b"]) != \
                    (k, False, True):
                return f"separation {out}"
            frac = charp.parse_rational(out["fraction"],
                                        charp.make_context(p, m), 2)
            if list(frac.num.terms) != [(k, 0)]:
                return f"fraction {out['fraction']}"
            return None
        return argv, check

    def report_poly(self):
        charp, rng = self.charp, self.rng
        while True:
            p, n, e = rng.choice(PRIMES), rng.randint(1, 3), rng.randint(1, 3)
            if p ** (e * n) <= 1024:
                break
        m = rng.randint(1, 3)
        argv = ["report", "poly-ring", "--p", str(p), "--m", str(m),
                "--vars", str(n), "--e", str(e)]
        ctx = charp.make_context(p, m)
        top = p ** e - 1

        def check(out):
            rank = out["evidence"][0]["witness"]["rank"]
            split = out["evidence"][1]["witness"]
            g = charp.parse_poly(split["multiplier"], ctx, n)
            if rank != p ** (e * n) or not split["sends_one_to_one"] or \
                    g != charp.MultiPoly.monomial(ctx, n, (top,) * n):
                return f"evidence {out['evidence'][:2]}"
            if [v["by"] for v in out["verdicts"]] != [
                    "pushforward-free", "kunz-excellence",
                    "splitting-definition", "solidity-criterion"]:
                return "verdict chain"
            return None
        return argv, check

    def report_dvr(self):
        rng = self.rng
        p, m = rng.choice(PRIMES), rng.randint(1, 3)
        label, k = self._perturbed(p)
        if label.startswith("from-seed"):
            k = min(k, 60)
        samples = rng.randint(5, 30)
        versus = f"{label}+t^{k}" if k > 1 else f"{label}+t"
        argv = ["report", "dvr", "--p", str(p), "--m", str(m),
                "--stream", label, "--versus", versus,
                "--samples", str(samples), "--seed", str(rng.randint(0, 999))]

        def check(out):
            ev = out["evidence"]
            if ev[0]["witness"]["value"] != 1:
                return "v(x) != 1"
            if ev[1]["witness"]["in_field"] != samples:
                return "residues outside the coefficient field"
            sep = ev[3]["witness"]
            if (sep["i"], sep["inside_ring_of"], sep["outside_ring_of"]) != \
                    (k, versus, label):
                return f"separation {sep}"
            if len(out["verdicts"]) != 5:
                return "verdict chain"
            return None
        return argv, check

    def selftest(self):
        rng = self.rng
        trials = rng.randint(10, 60)
        argv = ["selftest", "--p", str(rng.choice(PRIMES)),
                "--m", str(rng.randint(1, 3)), "--seed",
                str(rng.randint(0, 999)), "--trials", str(trials)]

        def check(out):
            checks = out["checks"]
            if not out["ok"] or checks["decompose_roundtrip"]["trials"] != \
                    trials:
                return f"selftest {out}"
            return None
        return argv, check

    def usage_error(self):
        rng = self.rng
        p = str(rng.choice(PRIMES))
        argv, error = rng.choice([
            (["decompose", "--p", str(rng.choice((4, 6, 9, 15))), "--vars",
              "2", "--e", "1", "x+y"], "NotPrime"),
            (["decompose", "--p", p, "--vars", "2", "--e", "1", "x^^2"],
             "PolySyntaxError"),
            (["val", "--p", p, "--stream", f"nosuch({rng.randint(1, 9)})",
              "y"], "PolySyntaxError"),
            (["decompose", "--p", p, "--m", str(rng.randint(13, 20)),
              "--vars", "1", "--e", "1", "x"], "DegreeTooLarge"),
            (["cartier", "apply", "--p", p, "--vars", "2", "--e", "0",
              "-g", "1", "x"], None),
            (["report", "poly-ring", "--p", p, "--vars", "2"], None),
        ])
        return argv, (2, error)

    def math_error(self):
        rng = self.rng
        label, k = self._perturbed(2)
        same = f"{label}+t^{k}-t^{k}"
        argv = ["dvr", "distinguish", "--p", str(rng.choice(PRIMES)),
                "--stream-a", label, "--stream-b", same,
                "--precision-cap", str(rng.choice((256, 512, 1024)))]
        return argv, (1, "StreamsAgree")


def judge_output(expect, code, stdout, stderr):
    """None when (code, stdout, stderr) is the expected outcome."""
    if isinstance(expect, tuple):
        want_code, error = expect
        if code != want_code:
            return f"exit {code}, expected {want_code}: {stderr[-200:]}"
        if error is None:
            return None if "usage:" in stderr else "no usage message"
        lines = stderr.strip().splitlines()
        got = json.loads(lines[-1]).get("error") if lines else None
        return None if got == error else f"error {got}, expected {error}"
    if code != 0:
        return f"exit {code}: {stderr[-200:]}"
    return expect(json.loads(stdout))


class Workload:
    """The `cli` workload for run.py."""

    limit_s = 30.0
    trace_ops = 240
    children = True
    excluded = EXCLUDED

    def __init__(self, charp, root):
        self.charp = charp
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))

    def _argv(self, args):
        return [sys.executable, "-m", "charp.cli", *args]

    def setup(self, seed):
        """One cold CLI process: interpreter, import charp, argparse."""
        subprocess.run(self._argv(["--help"]), env=self.env, cwd=self.root,
                       check=True, stdout=subprocess.DEVNULL, timeout=60)
        return None

    def warmup(self, state, seed, in_process=False):
        return list(itertools.islice(
            self.ops(state, seed, "warmup", in_process), len(KINDS)))

    def ops(self, state, seed, stream, in_process=False):
        rng = random.Random(f"cli:{seed}:{stream}")
        maker = Command(self.charp, rng)
        while True:
            for kind in KINDS:
                argv, expect = getattr(maker, kind.replace("-", "_"))()
                yield Op(f"cli.{kind}", tuple(argv),
                         self._in_process(argv) if in_process
                         else self._subprocess(argv),
                         lambda got, expect=expect: judge_output(expect,
                                                                 *got))

    def _subprocess(self, argv):
        def run():
            proc = subprocess.run(self._argv(argv), env=self.env,
                                  cwd=self.root, capture_output=True,
                                  text=True)
            return proc.returncode, proc.stdout, proc.stderr
        return run

    def _in_process(self, argv):
        cli = importlib.import_module("charp.cli")

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
            return code, out.getvalue(), err.getvalue()
        return run
