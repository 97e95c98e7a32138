"""Report engine: computed evidence tied to a small theorem knowledge base.

Reports are data, not prose: each verdict names its claim and the single
knowledge-base entry that licenses it, each evidence item records the
computation that witnessed it, and anything taken on faith (transcendence
of a builtin stream) is listed as an explicit assumption.  For polynomial
rings the engine exhibits positive witnesses (a finite free basis, an
explicit splitting); for power-series-embedding valuation rings it derives
the negative chain from residue-field evidence: not divisorial, hence not
excellent, hence not F-finite, hence not Frobenius split, hence no nonzero
maps inverse to Frobenius at any level.
"""

from __future__ import annotations

import json
import random
from typing import TYPE_CHECKING

from .cartier import CartierMap, canonical_splitting, is_splitting
from .errors import NotSolid
from .ffield import make_context
from .frobenius import free_basis
from .poly import (MultiPoly, format_monomial, format_poly,
                   random_nonzero_poly, var_names)
from .streams import distinguishing_fraction, fraction_construction_string

if TYPE_CHECKING:  # valuation loads numpy; dvr_report is handed one
    from .valuation import EmbeddingValuation

THEOREMS = {
    "pushforward-free": (
        "A polynomial ring over a finite field is F-finite: the level-e "
        "Frobenius pushforward is free of rank p^(e*n) on the reduced "
        "monomials."),
    "kunz-excellence": (
        "Kunz: a Noetherian ring of prime characteristic whose Frobenius "
        "map is finite is excellent."),
    "excellent-iff-f-finite": (
        "A Noetherian domain with F-finite fraction field is excellent if "
        "and only if it is F-finite."),
    "splitting-definition": (
        "A ring is Frobenius split exactly when some map inverse to "
        "Frobenius sends 1 to 1."),
    "dvr-trichotomy": (
        "For a discrete valuation ring of an F-finite function field, "
        "excellent, F-finite, and Frobenius split are equivalent, and all "
        "hold exactly when the ring is divisorial."),
    "divisorial-residue": (
        "A divisorial valuation ring of a function field of transcendence "
        "degree n has residue field of transcendence degree n-1."),
    "solidity-criterion": (
        "A generically F-finite Noetherian domain admits a nonzero map "
        "inverse to some Frobenius iterate exactly when it is excellent; "
        "otherwise every such Hom module vanishes."),
}

# The registered implication edges used by valuation-ring verdict chains.
IMPLICATIONS = (
    ("residue field has transcendence degree 0, below n-1",
     "V is not divisorial", "divisorial-residue"),
    ("V is not divisorial", "V is not excellent", "dvr-trichotomy"),
    ("V is not excellent", "V is not F-finite", "excellent-iff-f-finite"),
    ("V is not F-finite", "V is not Frobenius split", "dvr-trichotomy"),
    ("V is not Frobenius split",
     "Hom(F^e_* V, V) = 0 for every e >= 1", "solidity-criterion"),
)


class ExcellenceReport:
    """Evidence items, declared assumptions, and a cited verdict chain."""

    __slots__ = ("subject", "evidence", "assumptions", "verdicts")

    def __init__(self, subject, evidence, assumptions, verdicts):
        self.subject = subject
        self.evidence = evidence
        self.assumptions = assumptions
        self.verdicts = verdicts

    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "evidence": self.evidence,
            "assumptions": self.assumptions,
            "verdicts": self.verdicts,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), separators=(",", ":"))

    def render_text(self) -> str:
        lines = [f"subject: {json.dumps(self.subject)}"]
        lines.append("evidence:")
        for item in self.evidence:
            lines.append(f"  - {item['claim']}")
            lines.append(f"      witness: {json.dumps(item['witness'])}")
        if self.assumptions:
            lines.append("assumptions:")
            for item in self.assumptions:
                lines.append(
                    f"  - {item['claim']} [{item['provenance']}]")
        lines.append("verdicts:")
        for v in self.verdicts:
            lines.append(f"  - {v['claim']}  [by {v['by']}]")
        return "\n".join(lines)


def _verdict(claim, theorem_id, premise):
    if theorem_id not in THEOREMS:
        raise KeyError(f"unknown theorem id {theorem_id!r}")
    return {"claim": claim, "by": theorem_id, "premise": premise}


def f_finite_report(p: int, m: int, nvars: int, e: int) -> ExcellenceReport:
    """Positive report for the polynomial ring in nvars variables over
    F_{p^m}: F-finiteness witness, splitting witness, and verdicts."""
    if e < 1:
        raise ValueError("level must be >= 1")
    ctx = make_context(p, m)
    basis = free_basis(nvars, p, e)
    splitting = canonical_splitting(ctx, nvars, e)
    splits = is_splitting(splitting)
    shown = [format_monomial(b, nvars) for b in basis[:16]]
    evidence = [
        {"claim": f"level-{e} pushforward is free of rank {len(basis)}",
         "witness": {"rank": len(basis), "basis_prefix": shown},
         "by": "pushforward-free"},
        {"claim": "an explicit Frobenius splitting exists",
         "witness": {"multiplier": format_poly(splitting.g),
                     "level": e, "sends_one_to_one": splits},
         "by": "splitting-definition"},
        {"claim": "a nonzero map inverse to Frobenius exists at every level",
         "witness": {"generator_multiplier": format_poly(splitting.g)},
         "by": "solidity-criterion"},
    ]
    subject = {
        "kind": "polynomial-ring",
        "ring": f"F_{p}" + (f"^{m}" if m > 1 else "") +
                "[" + ",".join(var_names(nvars)) + "]",
        "p": p, "m": m, "nvars": nvars, "level": e,
    }
    verdicts = [
        _verdict("R is F-finite", "pushforward-free",
                 f"free basis of rank {len(basis)} exhibited"),
        _verdict("R is excellent", "kunz-excellence", "R is F-finite"),
        _verdict("R is Frobenius split", "splitting-definition",
                 "exhibited multiplier sends 1 to 1"),
        _verdict("Hom(F^e_* R, R) is nonzero for every e >= 1",
                 "solidity-criterion", "R is excellent"),
    ]
    return ExcellenceReport(subject, evidence, [], verdicts)


def solidity_witness(phi: CartierMap, s: MultiPoly):
    """(lambda, value) witnessing that composing phi with multiplication by
    lambda does not kill s.

    Every s satisfies T^(p^e) - s^(p^e) = 0 over the subring of p^e-th
    powers, so lambda = s^(p^e - 1) gives phi(lambda * s) = phi(s^(p^e)) =
    s * phi(1), nonzero whenever phi(1) is.
    """
    if s.is_zero:
        raise ValueError("witness requested for the zero element")
    one = MultiPoly.const(phi.ctx, phi.nvars, 1)
    c = phi.apply(one)
    if c.is_zero:
        raise NotSolid("the map sends 1 to 0; no solidity witness from it")
    lam = s ** (phi.ctx.p ** phi.e - 1)
    value = phi.apply(lam * s)
    return lam, value


def dvr_report(valuation: EmbeddingValuation, versus=None, samples: int = 50,
               seed: int = 0) -> ExcellenceReport:
    """Negative report for an embedding valuation ring.

    Computes residue-field evidence: each sampled f is certified once, and
    f / x^v(f) has value 0 and reduces to f's leading series coefficient.
    That residue lies in the coefficient field by construction, so the
    witness's in_field always equals samples.  Records the transcendence
    assumption on each builtin stream, and emits the downward verdict
    chain.  When `versus` is another stream, the separating fraction is
    cross-referenced.  The chain needs at least 2 variables and every image
    after t assumed transcendental; otherwise this raises ValueError.
    """
    ctx = valuation.ctx
    n = valuation.nvars
    if samples < 1:
        raise ValueError(f"need at least 1 sample, got {samples}")
    if n < 2:
        raise ValueError(
            f"the negative chain needs at least 2 variables; V is on {n}, "
            "and the x-adic valuation of F_p(x) is divisorial")
    for s in valuation.streams[1:]:
        if not s.transcendental_assumed:
            raise ValueError(
                f"stream {s.label!r} is not assumed transcendental, so the "
                "embedding may not be injective and the chain need not hold")
    if versus is not None and n != 2:
        raise ValueError(
            f"separating fractions compare valuations on 2 variables; "
            f"this one is on {n}")
    rng = random.Random(seed)
    x = MultiPoly.variable(ctx, n, 0)
    vx, cert = valuation.valuate_with_certificate(x)

    examples = []
    for _ in range(samples):
        f = random_nonzero_poly(ctx, n, rng, max_terms=4, max_degree=3)
        v, _, res = valuation.certify(f)
        if len(examples) < 5:
            examples.append(
                {"element": f"({format_poly(f)})/{format_monomial((v,) + (0,) * (n - 1), n)}",
                 "residue": str(res)})

    evidence = [
        {"claim": "x generates the maximal ideal: v(x) = 1",
         "witness": {"value": vx, "precision_certified": cert},
         "by": "computation"},
        {"claim": "residue field equals the coefficient field "
                  "(transcendence degree 0)",
         "witness": {"samples": samples, "in_field": samples,
                     "examples": examples},
         "by": "computation"},
        {"claim": f"function field has transcendence degree {n}, so a "
                  f"divisorial ring would need residue transcendence degree "
                  f"{n - 1}",
         "witness": {"n": n, "required": n - 1, "observed": 0},
         "by": "divisorial-residue"},
    ]

    assumptions = [{
        "claim": f"stream {s.label!r} is transcendental over the rational "
                 "functions in t",
        "provenance": "builtin stream catalog",
    } for s in valuation.streams[1:]]

    if versus is not None:
        # orient the pair by label so both streams' reports cite the same
        # separating fraction
        own = valuation.streams[1]
        first, second = sorted([own, versus], key=lambda s: s.label)
        i, frac = distinguishing_fraction(
            first, second, valuation.precision_cap)
        evidence.append({
            "claim": f"separated from stream {versus.label!r} at "
                     f"coefficient index {i}",
            "witness": {
                "i": i,
                "fraction": fraction_construction_string(first, i),
                "canonical": str(frac),
                "inside_ring_of": second.label,
                "outside_ring_of": first.label,
            },
            "by": "computation"})

    verdicts = [
        _verdict(conclusion, theorem_id, premise)
        for premise, conclusion, theorem_id in IMPLICATIONS
    ]
    subject = {
        "kind": "embedding-dvr",
        "function_field": f"F_{ctx.p}" + (f"^{ctx.m}" if ctx.m > 1 else "") +
                          "(" + ",".join(var_names(n)) + ")",
        "streams": [s.label for s in valuation.streams],
        "precision_cap": valuation.precision_cap,
        "samples": samples,
        "seed": seed,
    }
    return ExcellenceReport(subject, evidence, assumptions, verdicts)
