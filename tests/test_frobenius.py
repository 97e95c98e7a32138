import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_frobenius as reference
from charp.errors import ExponentOverflow, SizeBound
from charp.ffield import make_context
from charp.frobenius import (HUGE_LEVEL, FrobDecomposition, decompose,
                             free_basis, frobenius_image, is_pe_power,
                             recompose)
from charp.parser import parse_poly
from charp.poly import (EXPONENT_LIMIT, MultiPoly, random_nonzero_poly,
                        random_poly)

FIELDS = [(p, m) for p in (2, 3, 5, 1048573) for m in (1, 2, 3)]


@st.composite
def decompositions(draw):
    """A hand-built decomposition: components in pairs whose terms land
    together (and may cancel) through an unreduced rho, now and then an
    exponent near EXPONENT_LIMIT, and levels from 0 to far past
    HUGE_LEVEL."""
    p, m = draw(st.sampled_from(FIELDS))
    ctx = make_context(p, m)
    n = draw(st.integers(0, 3))
    e = draw(st.sampled_from([0, 1, 2, 3, HUGE_LEVEL - 1, HUGE_LEVEL,
                              HUGE_LEVEL + 1, 10 ** 8]))
    q = p ** min(e, HUGE_LEVEL)
    bits = st.lists(st.integers(0, 1), min_size=n, max_size=n).map(tuple)
    coeff = st.integers(1, p ** m - 1).map(
        lambda k: ctx.elem([k // p ** i % p for i in range(m)]))
    components = {}
    for _ in range(draw(st.integers(0, 3))):
        rho = list(draw(bits))
        if n and draw(st.integers(0, 5)) == 0:
            rho[draw(st.integers(0, n - 1))] = draw(st.sampled_from(
                [q - 1, EXPONENT_LIMIT - 1, EXPONENT_LIMIT]))
        terms = {draw(bits): draw(coeff)
                 for _ in range(draw(st.integers(0, 3)))}
        # the partner's term beta lands where this one's beta + delta does
        delta = draw(bits)
        partner = {beta: draw(st.sampled_from([-c, draw(coeff)]))
                   for beta, c in terms.items()}
        components[tuple(rho)] = MultiPoly(ctx, n, {
            tuple(b + d for b, d in zip(beta, delta)): c
            for beta, c in terms.items()})
        components[tuple(r + q * d for r, d in zip(rho, delta))] = \
            MultiPoly(ctx, n, partner)
    return FrobDecomposition(ctx, n, e, components)


def outcome(fn, d):
    try:
        return fn(d)
    except ExponentOverflow as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(decompositions())
def test_recompose_matches_reference(d):
    assert outcome(recompose, d) == outcome(reference.recompose, d)


class TestFrobeniusImage:
    def test_level_zero_is_identity(self, f3, rng):
        f = random_poly(f3, 2, rng)
        assert frobenius_image(f, 0) == f

    def test_char2_squaring(self, f2):
        assert frobenius_image(parse_poly("x+y", f2, 2), 1) == \
            parse_poly("x^2+y^2", f2, 2)

    def test_extension_coefficients_frobenius(self, f4):
        # u^2 = u+1 in F_4, so (u*x)^2 = (u+1)*x^2
        f = parse_poly("u*x", f4, 1)
        assert frobenius_image(f, 1) == parse_poly("(u+1)*x^2", f4, 1)

    def test_matches_polynomial_power(self, f3, rng):
        for _ in range(20):
            f = random_poly(f3, 2, rng, max_terms=4, max_degree=4)
            assert frobenius_image(f, 1) == f ** 3
            assert frobenius_image(f, 2) == f ** 9

    def test_overflow_checked(self, f2):
        big = MultiPoly.monomial(f2, 1, (EXPONENT_LIMIT // 2 + 1,))
        with pytest.raises(ExponentOverflow):
            frobenius_image(big, 1)

    def test_huge_level(self, f2, f4):
        # u^(2^e) = u + 1 for odd e over F_4; p^e itself is never formed
        assert frobenius_image(parse_poly("u", f4, 1), 10 ** 8 + 1) == \
            parse_poly("u+1", f4, 1)
        assert frobenius_image(parse_poly("x", f2, 1), HUGE_LEVEL - 1) == \
            MultiPoly.monomial(f2, 1, (2 ** (HUGE_LEVEL - 1),))
        for e in (HUGE_LEVEL, 10 ** 8):
            with pytest.raises(ExponentOverflow):
                frobenius_image(parse_poly("x+1", f2, 1), e)


class TestDecompose:
    def test_zero_is_empty(self, f2):
        assert decompose(MultiPoly.zero(f2, 2), 1).components == {}

    def test_pure_power_single_component(self, f3):
        d = decompose(parse_poly("x^3", f3, 1), 1)
        assert set(d.components) == {(0,)}
        assert d.component((0,)) == parse_poly("x", f3, 1)

    def test_worked_example_char2(self, f2):
        d = decompose(parse_poly("x^2 + y^2 + x", f2, 2), 1)
        assert set(d.components) == {(0, 0), (1, 0)}
        assert d.component((0, 0)) == parse_poly("x+y", f2, 2)
        assert d.component((1, 0)) == parse_poly("1", f2, 2)
        # oracle: recomposition returns the input
        assert recompose(d) == parse_poly("x^2 + y^2 + x", f2, 2)

    def test_round_trip_random(self, rng):
        for p, m in [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]:
            ctx = make_context(p, m)
            for n in (1, 2, 3):
                for e in (1, 2, 3):
                    for _ in range(5):
                        f = random_poly(ctx, n, rng, max_terms=8,
                                        max_degree=12)
                        assert recompose(decompose(f, e)) == f

    def test_additivity_of_components(self, f3, rng):
        for _ in range(25):
            f = random_poly(f3, 2, rng)
            g = random_poly(f3, 2, rng)
            df, dg = decompose(f, 1), decompose(g, 1)
            dsum = decompose(f + g, 1)
            rhos = set(df.components) | set(dg.components)
            for rho in rhos | set(dsum.components):
                assert dsum.component(rho) == \
                    df.component(rho) + dg.component(rho)

    def test_semilinearity(self, f2, rng):
        # scaling by r^(p^e) multiplies every component by r
        for _ in range(25):
            f = random_nonzero_poly(f2, 2, rng)
            r = random_nonzero_poly(f2, 2, rng, max_terms=3, max_degree=3)
            e = rng.randint(1, 2)
            scaled = decompose(frobenius_image(r, e) * f, e)
            base = decompose(f, e)
            assert set(scaled.components) == set(base.components)
            for rho in base.components:
                assert scaled.component(rho) == r * base.component(rho)

    def test_level_must_be_positive(self, f2):
        with pytest.raises(ValueError):
            decompose(MultiPoly.zero(f2, 1), 0)

    def test_huge_level(self, f2, f4):
        """Above every exponent each term is its own component, and the
        coefficient root depends only on e mod m."""
        f = parse_poly("u*x^3*y + x^2 + (u+1)*y^3", f4, 2)
        assert decompose(f, 10 ** 8).components == decompose(f, 2).components
        assert decompose(f, 10 ** 8 + 1).components == \
            decompose(f, 3).components
        # an exponent above EXPONENT_LIMIT still splits as at any higher level
        big = MultiPoly.monomial(f2, 1, (2 ** 40 + 3,))
        assert decompose(big, 10 ** 8).components == \
            decompose(big, 41).components


class TestIsPePower:
    def test_examples(self, f2):
        assert is_pe_power(parse_poly("x^2", f2, 1), 1)
        assert not is_pe_power(parse_poly("x", f2, 1), 1)
        assert is_pe_power(parse_poly("x^2+y^2", f2, 2), 1)
        assert not is_pe_power(parse_poly("x^2+y^2+x", f2, 2), 1)

    def test_detects_constructed_powers(self, f5, rng):
        for _ in range(10):
            f = random_poly(f5, 2, rng, max_terms=4, max_degree=3)
            assert is_pe_power(frobenius_image(f, 1), 1)


class TestFreeBasis:
    def test_examples(self):
        assert free_basis(1, 2, 1) == [(0,), (1,)]
        assert free_basis(2, 2, 1) == [(0, 0), (1, 0), (0, 1), (1, 1)]
        assert len(free_basis(2, 3, 1)) == 9

    @pytest.mark.parametrize("n,p,e", [(1, 2, 3), (2, 3, 1), (3, 2, 2),
                                       (2, 5, 1)])
    def test_count_and_reducedness(self, n, p, e):
        basis = free_basis(n, p, e)
        assert len(basis) == p ** (e * n)
        assert len(set(basis)) == len(basis)
        pe = p ** e
        for exp in basis:
            assert all(0 <= a < pe for a in exp)

    def test_size_bound(self):
        with pytest.raises(SizeBound):
            free_basis(3, 5, 4)  # 5^12 elements, far above the default
        with pytest.raises(SizeBound):
            free_basis(2, 2, 3, bound=63)
        assert len(free_basis(2, 2, 3, bound=64)) == 64

    def test_huge_rank_is_refused_at_once(self):
        with pytest.raises(SizeBound):
            free_basis(1, 5, 10 ** 8)
        with pytest.raises(SizeBound):
            free_basis(10 ** 9, 2, 1)
        assert free_basis(0, 5, 10 ** 8) == [()]
