"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
stated count, tolerance (all checks here are exact), and time bound is
enforced in the assertions.
"""

import random
import time

import pytest

from charp.cartier import CartierMap, canonical_splitting, check_compatible, \
    compose, is_splitting
from charp.excellence import THEOREMS, dvr_report, solidity_witness
from charp.ffield import make_context
from charp.frobenius import decompose, free_basis, frobenius_image, recompose
from charp.parser import parse_poly, parse_rational
from charp.poly import MonomialIdeal, MultiPoly, member, random_poly
from charp.streams import builtin_streams, lacunary, parse_stream_spec
from charp.valuation import EmbeddingValuation, distinguishing_fraction


def _line(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2}: {status}  {detail}")
    assert ok, f"criterion {num}: {detail}"


def _bounded_poly(ctx, nvars, rng, max_terms, total_degree):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            exp = tuple(rng.randint(0, total_degree) for _ in range(nvars))
            if sum(exp) <= total_degree:
                break
        terms[exp] = ctx.random_element(rng)
    return MultiPoly.from_terms(ctx, nvars, terms)


def _bounded_nonzero(ctx, nvars, rng, max_terms, total_degree):
    while True:
        f = _bounded_poly(ctx, nvars, rng, max_terms, total_degree)
        if f:
            return f


def test_criterion_1_decomposition_round_trip():
    rng = random.Random(101)
    grid = [(p, m, n, e)
            for p in (2, 3, 5) for m in (1, 2)
            for n in (1, 2, 3) for e in (1, 2, 3)]
    per_combo = -(-1000 // len(grid))  # ceil: at least 1000 total
    failures = 0
    total = 0
    start = time.monotonic()
    for p, m, n, e in grid:
        ctx = make_context(p, m)
        for _ in range(per_combo):
            f = _bounded_poly(ctx, n, rng, max_terms=20, total_degree=30)
            if recompose(decompose(f, e)) != f:
                failures += 1
            total += 1
    elapsed = time.monotonic() - start
    _line(1, failures == 0 and total >= 1000 and elapsed < 10.0,
          f"{total} round trips over {len(grid)} (p,m,n,e) combos, "
          f"{failures} failures, {elapsed:.2f}s (< 10s)")


def test_criterion_2_inverse_linearity():
    rng = random.Random(202)
    failures = 0
    for i in range(1000):
        p = (2, 3, 5)[i % 3]
        n = 1 + (i % 2)
        e = 1 + (i % 2)
        ctx = make_context(p)
        phi = CartierMap(e, _bounded_poly(ctx, n, rng, 4, 6))
        r = _bounded_poly(ctx, n, rng, 3, 4)
        s = _bounded_poly(ctx, n, rng, 4, 6)
        if phi.apply(frobenius_image(r, e) * s) != r * phi.apply(s):
            failures += 1
    _line(2, failures == 0,
          f"1000 (phi, r, s) triples satisfy the inverse-linearity law "
          f"exactly, {failures} failures")


def test_criterion_3_composition_law():
    rng = random.Random(303)
    failures = 0
    for i in range(500):
        p = (2, 3)[i % 2]
        ctx = make_context(p)
        outer = CartierMap(1 + (i % 2), _bounded_poly(ctx, 2, rng, 3, 4))
        inner = CartierMap(1 + ((i // 2) % 2), _bounded_poly(ctx, 2, rng, 3, 4))
        f = _bounded_poly(ctx, 2, rng, 4, 6)
        comp = compose(outer, inner)
        chain = outer.apply(inner.apply(f))
        formula = frobenius_image(outer.g, inner.e) * inner.g
        if comp.apply(f) != chain or comp.g != formula:
            failures += 1
    _line(3, failures == 0,
          f"500 composites match chained application and the twisted "
          f"multiplier formula, {failures} failures")


def test_criterion_4_chain_instance():
    ctx = make_context(2)
    start = time.monotonic()
    c = parse_poly("x + y", ctx, 2)
    g = frobenius_image(c, 1) * parse_poly("x*y", ctx, 2)
    phi = CartierMap(1, g)
    one = MultiPoly.const(ctx, 2, 1)
    ok = phi.apply(one) == c
    composite = compose(phi, phi)
    # e = 2, p = 2: c^((p^(e-1)-1)p) = c^2 must land on c*phi(1) = c^2
    lhs = composite.apply(c ** 2)
    rhs = c * phi.apply(one)
    elapsed = time.monotonic() - start
    ok = ok and lhs == rhs and lhs == c ** 2 and composite.e == 2
    _line(4, ok and elapsed < 1.0,
          f"level-2 self-composite sends c^2 to c*phi(1) exactly, "
          f"{elapsed:.3f}s (< 1s)")


def test_criterion_5_canonical_splitting():
    bad = []
    for p in (2, 3, 5):
        ctx = make_context(p)
        for n in (1, 2, 3):
            for e in (1, 2):
                if not is_splitting(canonical_splitting(ctx, n, e)):
                    bad.append((p, n, e))
    _line(5, not bad,
          f"canonical splitting sends 1 to 1 for all 18 (p,n,e) combos"
          + (f"; failures: {bad}" if bad else ""))


def test_criterion_6_valuation_axioms():
    rng = random.Random(606)
    ctx = make_context(2)
    V = EmbeddingValuation(ctx, [lacunary(ctx)], precision_cap=4096)
    start = time.monotonic()
    ok_vx = V.valuate(parse_poly("x", ctx, 2)) == 1
    failures = 0
    for _ in range(300):
        f = _bounded_nonzero(ctx, 2, rng, 4, 6)
        g = _bounded_nonzero(ctx, 2, rng, 4, 6)
        vf, vg = V.valuate(f), V.valuate(g)
        if V.valuate(f * g) != vf + vg:
            failures += 1
            continue
        vsum = V.valuate(f + g)
        if vsum < min(vf, vg):
            failures += 1
        elif vf != vg and vsum != min(vf, vg):
            failures += 1
    elapsed = time.monotonic() - start
    _line(6, ok_vx and failures == 0 and elapsed < 30.0,
          f"v(x)=1; 300 random pairs satisfy v(fg)=v(f)+v(g) and the "
          f"ultrametric bound, {failures} failures, {elapsed:.2f}s (< 30s)")


def test_criterion_7_distinguishing_fraction():
    ctx = make_context(2)
    p_stream = lacunary(ctx)
    q_stream = parse_stream_spec("lacunary+t^3", ctx)
    start = time.monotonic()
    i, frac = distinguishing_fraction(p_stream, q_stream)
    V_p = EmbeddingValuation(ctx, [p_stream])
    V_q = EmbeddingValuation(ctx, [q_stream])
    den = parse_poly("y - x - x^2", ctx, 2)
    ok = (i == 3
          and frac == parse_rational("x^3/(y - x - x^2)", ctx, 2)
          and V_p.valuate(den) == 6
          and V_q.valuate(den) == 3
          and V_q.in_ring(frac)
          and not V_p.in_ring(frac))
    elapsed = time.monotonic() - start
    _line(7, ok and elapsed < 1.0,
          f"i=3, fraction x^3/(y-x-x^2); v_p(den)=6 > 3, v_q(den)=3=i; "
          f"in V_q only; {elapsed:.3f}s (< 1s)")


def test_criterion_8_pairwise_separation():
    ctx = make_context(2)
    cat = builtin_streams(ctx)
    names = ["lacunary", "lacunary-shift(1)", "geometric-gap(2)",
             "from-seed(7)", "from-seed(11)"]
    valuations = {name: EmbeddingValuation(ctx, [cat[name]])
                  for name in names}
    failures = []
    pairs = 0
    for a_idx, na in enumerate(names):
        for nb in names[a_idx + 1:]:
            pairs += 1
            i, frac = distinguishing_fraction(cat[na], cat[nb])
            inside = valuations[nb].in_ring(frac)
            outside = not valuations[na].in_ring(frac)
            if not (inside and outside):
                failures.append((na, nb, i))
    _line(8, pairs == 10 and not failures,
          f"all {pairs} stream pairs separated with the criterion-7 "
          f"membership asymmetry"
          + (f"; failures: {failures}" if failures else ""))


def test_criterion_9_solidity_witness():
    rng = random.Random(909)
    configs = [(2, 1, 1), (2, 2, 1), (2, 1, 2), (2, 2, 2),
               (3, 1, 1), (3, 2, 1), (3, 1, 2),
               (5, 1, 1), (5, 2, 1)]
    failures = 0
    for i in range(100):
        p, n, e = configs[i % len(configs)]
        ctx = make_context(p)
        phi = canonical_splitting(ctx, n, e)
        s = _bounded_nonzero(ctx, n, rng, 4, 3)
        lam, value = solidity_witness(phi, s)
        c = phi.apply(MultiPoly.const(ctx, n, 1))
        if value.is_zero or value != s * c or \
                lam != s ** (p ** e - 1):
            failures += 1
    # the worked one-variable case
    ctx = make_context(2)
    phi = canonical_splitting(ctx, 1, 1)
    lam, value = solidity_witness(phi, parse_poly("x", ctx, 1))
    worked = lam == parse_poly("x", ctx, 1) and \
        value == parse_poly("x", ctx, 1)
    _line(9, failures == 0 and worked,
          f"100 witnesses satisfy value = s*phi(1) != 0 exactly; worked "
          f"case s=x gives value x; {failures} failures")


def test_criterion_10_compatibility_hand_cases():
    ctx = make_context(2)
    phi_canon = canonical_splitting(ctx, 1, 1)
    J_x = MonomialIdeal(1, [(1,)])
    phi_unit = CartierMap(1, MultiPoly.const(ctx, 1, 1))
    J_x2 = MonomialIdeal(1, [(2,)])

    # independent oracle: exhaustive enumeration over generators x basis
    def exhaustive(phi, ideal):
        for gen in ideal.generators:
            for b in free_basis(1, 2, phi.e):
                probe = MultiPoly.monomial(ctx, 1, gen) * \
                    MultiPoly.monomial(ctx, 1, b)
                if not member(ideal, phi.apply(probe)):
                    return False
        return True

    case1_oracle = exhaustive(phi_canon, J_x)
    case2_oracle = exhaustive(phi_unit, J_x2)
    ok = (case1_oracle is True and case2_oracle is False
          and check_compatible(phi_canon, J_x) is True
          and check_compatible(phi_unit, J_x2) is False)
    _line(10, ok,
          "(x) is compatible with the canonical splitting and (x^2) is "
          "not compatible with g=1, by the closed form floor((gamma+u)/p^e) "
          "in J, cross-checked against exhaustive basis enumeration")


def test_criterion_11_dvr_report():
    ctx = make_context(2)
    V = EmbeddingValuation(ctx, [lacunary(ctx)])
    rep = dvr_report(V, samples=50)
    expected_chain = [
        "V is not divisorial",
        "V is not excellent",
        "V is not F-finite",
        "V is not Frobenius split",
        "Hom(F^e_* V, V) = 0 for every e >= 1",
    ]
    claims = [v["claim"] for v in rep.verdicts]
    cited = all(v["by"] in THEOREMS for v in rep.verdicts)
    residue_item = rep.evidence[1]
    residue_ok = (residue_item["witness"]["samples"] == 50
                  and residue_item["witness"]["in_field"] == 50)
    ok = claims == expected_chain and cited and residue_ok
    _line(11, ok,
          "five-step verdict chain with theorem citations; 50/50 sampled "
          "value-0 elements have residues in the coefficient field")
