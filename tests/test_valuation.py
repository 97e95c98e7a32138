import random
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_valuation
from charp.errors import (ContextMismatch, NotInRing, PrecisionExhausted,
                          StreamsAgree)
from charp.ffield import make_context
from charp.parser import parse_poly, parse_rational
from charp.poly import MultiPoly, RationalFn, random_nonzero_poly
from charp.series import TruncatedSeries
from charp.streams import (builtin_streams, from_seed, geometric_gap,
                           lacunary, lacunary_shift, parse_stream_spec,
                           perturb, t_stream)
from charp.valuation import (INFINITY, EmbeddingValuation,
                             distinguishing_fraction,
                             fraction_construction_string, first_difference,
                             order)


@pytest.fixture(scope="module")
def V():
    ctx = make_context(2)
    return EmbeddingValuation(ctx, [lacunary(ctx)])


class TestOrder:
    def test_examples(self, f2):
        s = TruncatedSeries.from_elements(f2, [0, 1, 1, 0, 0, 0, 0, 0])
        assert order(s) == 1
        assert order(TruncatedSeries.zeros(f2, 8)) is None


class TestValuate:
    def test_value_one_on_x(self, V, f2):
        assert V.valuate(parse_poly("x", f2, 2)) == 1

    def test_constants_have_value_zero(self, V, f2):
        assert V.valuate(parse_poly("1", f2, 2)) == 0

    def test_zero_is_infinite_structurally(self, V, f2):
        value, cert = V.valuate_with_certificate(MultiPoly.zero(f2, 2))
        assert value == INFINITY
        assert cert == 0

    def test_lacunary_gap_example(self, V, f2):
        # p(t) - t - t^2 starts at the next factorial exponent, 6
        assert V.valuate(parse_poly("y - x - x^2", f2, 2)) == 6

    def test_deep_gap_requires_escalation(self, f2):
        V = EmbeddingValuation(f2, [lacunary(f2)])
        f = parse_poly("y - x - x^2 - x^6 - x^24 - x^120", f2, 2)
        value, cert = V.valuate_with_certificate(f)
        assert value == 720
        assert cert == 1024  # needed three doublings beyond the start

    def test_maximal_ideal_members_have_positive_value(self, V, f2, rng):
        for _ in range(15):
            f = random_nonzero_poly(f2, 2, rng, max_terms=4, max_degree=4)
            f = f - MultiPoly.const(f2, 2, f.constant_term())
            if f.is_zero:
                continue
            assert V.valuate(f) >= 1

    def test_determinism(self, V, f2, rng):
        for _ in range(10):
            f = random_nonzero_poly(f2, 2, rng, max_terms=5, max_degree=5)
            first = V.valuate_with_certificate(f)
            assert V.valuate_with_certificate(f) == first

    def test_valuation_axioms_random(self, V, f2, rng):
        for _ in range(40):
            f = random_nonzero_poly(f2, 2, rng, max_terms=4, max_degree=5)
            g = random_nonzero_poly(f2, 2, rng, max_terms=4, max_degree=5)
            vf, vg = V.valuate(f), V.valuate(g)
            assert V.valuate(f * g) == vf + vg
            vsum = V.valuate(f + g)
            assert vsum >= min(vf, vg)
            if vf != vg:
                assert vsum == min(vf, vg)

    def test_wrong_variable_count(self, V, f2):
        with pytest.raises(ContextMismatch):
            V.valuate(parse_poly("x", f2, 1))

    def test_precision_exhausted_on_algebraic_relation(self, f2):
        # sending y to t makes y - x vanish identically
        V = EmbeddingValuation(f2, [t_stream(f2)], precision_cap=64)
        with pytest.raises(PrecisionExhausted) as info:
            V.valuate(parse_poly("y - x", f2, 2))
        assert info.value.last_precision == 64

    def test_zero_image_stream_rejected(self, f2):
        dead = type(lacunary(f2))(
            f2, "dead", lambda n: f2.zero, nonunit=True)
        with pytest.raises(ValueError):
            EmbeddingValuation(f2, [dead], precision_cap=32)

    def test_unit_stream_rejected(self, f2):
        unit = type(lacunary(f2))(
            f2, "unit", lambda n: f2.one, nonunit=False)
        with pytest.raises(ValueError):
            EmbeddingValuation(f2, [unit])

    def test_t_image_is_built_not_realized(self):
        ctx = make_context(3, 2)
        V = EmbeddingValuation(ctx, [lacunary(ctx)])

        def refuse(n):
            raise AssertionError("t realized from its stream")

        V.streams[0].oracle = refuse
        for n in (1, 2, 17, 4096):
            t = V.images(n)[0]
            assert t.precision == n
            assert t == TruncatedSeries.from_elements(
                ctx, ([0, 1] + [0] * (n - 2))[:n])

    def test_t_needs_a_cap_above_one(self, f2):
        with pytest.raises(ValueError):
            EmbeddingValuation(f2, [], precision_cap=1)
        V = EmbeddingValuation(f2, [], precision_cap=2)
        assert V.valuate(parse_poly("x", f2, 1)) == 1

    def test_three_variable_embedding(self, f2):
        V3 = EmbeddingValuation(f2, [lacunary(f2), from_seed(f2, 7)])
        assert V3.nvars == 3
        assert V3.valuate(parse_poly("x", f2, 3)) == 1
        f = parse_poly("x*y*z", f2, 3)
        assert V3.valuate(f) == \
            V3.valuate(parse_poly("x", f2, 3)) + \
            V3.valuate(parse_poly("y", f2, 3)) + \
            V3.valuate(parse_poly("z", f2, 3))


class TestRationalAndResidue:
    def test_x_over_x(self, V, f2):
        assert V.valuate_rational(parse_rational("x/x", f2, 2)) == 0

    def test_inverse_of_x(self, V, f2):
        assert V.valuate_rational(parse_rational("1/x", f2, 2)) == -1
        assert not V.in_ring(parse_rational("1/x", f2, 2))

    def test_zero_numerator_infinite(self, V, f2):
        r = RationalFn(MultiPoly.zero(f2, 2), parse_poly("x", f2, 2))
        assert V.valuate_rational(r) == INFINITY
        assert V.in_ring(r)
        assert V.residue(r) == f2.zero

    def test_residue_of_constants(self):
        ctx = make_context(5)
        V5 = EmbeddingValuation(ctx, [lacunary(ctx)])
        for c in range(1, 5):
            r = RationalFn.from_poly(MultiPoly.const(ctx, 2, c))
            assert V5.residue(r) == ctx.elem(c)

    def test_residue_of_positive_value_is_zero(self, V, f2):
        assert V.residue(RationalFn.from_poly(parse_poly("x", f2, 2))) == \
            f2.zero

    def test_residue_negative_value_raises(self, V, f2):
        with pytest.raises(NotInRing):
            V.residue(parse_rational("1/x", f2, 2))

    def test_worked_residue_example(self, V, f2):
        r = parse_rational("(y - x - x^2)/x^6", f2, 2)
        assert V.valuate_rational(r) == 0
        assert V.residue(r) == f2.one

    def test_residue_multiplicative_on_units(self, rng):
        ctx = make_context(5)
        V5 = EmbeddingValuation(ctx, [lacunary(ctx)])
        for _ in range(10):
            f = random_nonzero_poly(ctx, 2, rng, max_terms=3, max_degree=3)
            g = random_nonzero_poly(ctx, 2, rng, max_terms=3, max_degree=3)
            xpow_f = MultiPoly.monomial(ctx, 2, (V5.valuate(f), 0))
            xpow_g = MultiPoly.monomial(ctx, 2, (V5.valuate(g), 0))
            rf = RationalFn(f, xpow_f)
            rg = RationalFn(g, xpow_g)
            assert V5.residue(rf * rg) == V5.residue(rf) * V5.residue(rg)


class TestDistinguishing:
    def test_worked_example(self, f2):
        p_stream = lacunary(f2)
        q_stream = parse_stream_spec("lacunary+t^3", f2)
        i, frac = distinguishing_fraction(p_stream, q_stream)
        assert i == 3
        assert frac == parse_rational("x^3/(y - x - x^2)", f2, 2)
        assert fraction_construction_string(p_stream, i) == \
            "x^3/(y-x-x^2)"

    def test_membership_asymmetry(self, f2):
        p_stream = lacunary(f2)
        q_stream = parse_stream_spec("lacunary+t^3", f2)
        i, frac = distinguishing_fraction(p_stream, q_stream)
        V_p = EmbeddingValuation(f2, [p_stream])
        V_q = EmbeddingValuation(f2, [q_stream])
        assert V_q.valuate_rational(frac) == 0
        assert V_p.valuate_rational(frac) == -3
        assert V_q.in_ring(frac) and not V_p.in_ring(frac)

    def test_identical_streams_raise(self, f2):
        with pytest.raises(StreamsAgree):
            distinguishing_fraction(lacunary(f2), lacunary(f2), cap=128)

    def test_first_difference_symmetry(self, f2):
        a, b = lacunary(f2), from_seed(f2, 7)
        assert first_difference(a, b) == first_difference(b, a)

    def test_pairwise_over_catalog(self, f2):
        cat = builtin_streams(f2)
        names = sorted(cat)
        for idx, na in enumerate(names):
            for nb in names[idx + 1:]:
                i, frac = distinguishing_fraction(cat[na], cat[nb])
                V_a = EmbeddingValuation(f2, [cat[na]])
                V_b = EmbeddingValuation(f2, [cat[nb]])
                assert V_b.in_ring(frac), (na, nb)
                assert not V_a.in_ring(frac), (na, nb)


class TestConcurrency:
    def test_concurrent_valuations_agree(self, f2):
        V = EmbeddingValuation(f2, [lacunary(f2)])
        f = parse_poly("y - x - x^2 - x^6 - x^24", f2, 2)

        def job(_):
            return V.valuate_with_certificate(f)

        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(job, range(16)))
        assert len(set(results)) == 1
        assert results[0][0] == 120

    def test_threads_sharing_power_memos_agree_with_a_sequential_run(self):
        """Eight threads on one fresh valuation, whose power memos they
        share, certifying at precisions from 16 to 4096, with thread
        switches forced often: every answer is the sequential one."""
        ctx = make_context(1048573, 2)
        streams = [lacunary(ctx), from_seed(ctx, 7)]
        polys = [parse_poly(f"x^{s}*(y-x-x^2)^{r}+x^{s + 7}*z^{k}", ctx, 3)
                 for s in (0, 40, 300, 1000, 2500, 3500)
                 for r, k in ((1, 2), (2, 1), (3, 3))]
        sequential = EmbeddingValuation(ctx, streams, precision_cap=4096)
        want = [sequential.valuate_with_certificate(f) for f in polys]
        assert {n for _, n in want} >= {16, 4096}
        V = EmbeddingValuation(ctx, streams, precision_cap=4096)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(V.valuate_with_certificate, f)
                           for f in polys * 2]
                got = [future.result(timeout=120) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == want * 2


def catalog_and_perturbations(ctx):
    """Every catalog stream, plus perturbations that add an index, cancel
    a coefficient, or perturb a stream without a support."""
    one = ctx.one
    return list(builtin_streams(ctx).values()) + [
        perturb(lacunary(ctx), 10, one), perturb(lacunary(ctx), 6, -one),
        perturb(perturb(geometric_gap(ctx, 3), 9, -one), 5000, one),
        perturb(from_seed(ctx, 7), 3, one)]


class TestRealization:
    @pytest.mark.parametrize("p, m", [(2, 1), (3, 2), (1048573, 3)])
    def test_matches_index_by_index_realization(self, p, m):
        """Realized in several steps, each prefix equals the one an oracle
        call per index gives."""
        ctx = make_context(p, m)
        for s in catalog_and_perturbations(ctx):
            V = EmbeddingValuation(ctx, [s], precision_cap=8192)
            want = reference_valuation.realize(s, 6000)
            for n in (1, 5, 17, 100, 1000, 5001, 6000):
                got = V._prefix(1, n)
                assert got.shape[0] >= n
                assert np.array_equal(got[:n], want[:n]), (s.label, n)

    def test_oracle_asked_only_at_support_indices(self, f2):
        asked = []
        s = lacunary(f2)
        oracle = s.oracle
        s.oracle = lambda n: asked.append(n) or oracle(n)
        V = EmbeddingValuation(f2, [s])
        asked.clear()  # the unit check asks for index 0
        V.images(4096)
        assert asked == [1, 2, 6, 24, 120, 720]


@st.composite
def stream_pair(draw):
    """Two catalog streams over one field, each with zero to two
    perturbations, some cancelling and some at or past the cap."""
    ctx = make_context(*draw(st.sampled_from(
        [(2, 1), (3, 1), (5, 2), (1048573, 1)])))
    cap = draw(st.integers(1, 4096))
    names = sorted(builtin_streams(ctx)) + ["lacunary-shift(3)",
                                             "geometric-gap(5)"]
    catalog = dict(builtin_streams(ctx), **{
        "lacunary-shift(3)": lacunary_shift(ctx, 3),
        "geometric-gap(5)": geometric_gap(ctx, 5)})
    base = draw(st.sampled_from(names))
    streams = []
    for _ in range(2):
        s = catalog[draw(st.sampled_from([base] + names))]
        for _ in range(draw(st.integers(0, 2))):
            k = draw(st.one_of(st.sampled_from([1, 2, 6, 24, 120, 720]),
                               st.integers(1, 5000)))
            delta = draw(st.one_of(st.just(-s.coefficient(k)),
                                   st.integers(1, ctx.p - 1)))
            if delta:
                s = perturb(s, k, ctx.elem(delta))
        streams.append(s)
    return streams[0], streams[1], cap


@settings(max_examples=150, deadline=None)
@given(stream_pair())
def test_first_difference_matches_the_index_loop(pair):
    a, b, cap = pair

    def outcome(fn):
        try:
            return fn(a, b, cap)
        except StreamsAgree as exc:
            return str(exc)

    assert outcome(first_difference) == \
        outcome(reference_valuation.first_difference)
