import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_cartier as reference
from charp.cartier import (CartierMap, canonical_splitting, check_compatible,
                           check_linearity, compose, is_splitting,
                           trace_project)
from charp.errors import ContextMismatch, ExponentOverflow
from charp.ffield import make_context
from charp.frobenius import decompose, free_basis, frobenius_image
from charp.parser import parse_poly
from charp.poly import (EXPONENT_LIMIT, MonomialIdeal, MultiPoly, member,
                        random_poly, random_nonzero_poly)

FIELDS = [(p, m) for p in (2, 3, 5) for m in (1, 2, 3)]
MAX_RANK = 4096


@st.composite
def maps(draw):
    """A map over a drawn field in 0-3 variables at a level e <= 3 whose
    pushforward has rank p^(e*n) <= 4096, with a polynomial drawer whose
    exponents sit around, at and well above q = p^e, from a few values so
    that products collide and cancel."""
    p, m = draw(st.sampled_from(FIELDS))
    ctx = make_context(p, m)
    n = draw(st.integers(0, 3))
    e = draw(st.sampled_from(
        [e for e in (1, 2, 3) if p ** (e * n) <= MAX_RANK]))
    q = p ** e
    exponent = st.one_of(st.integers(0, 3),
                         st.sampled_from([q - 2, q - 1, q, q + 1, 2 * q - 1]),
                         st.integers(2 * q, 5 * q))

    def poly(max_terms):
        terms = {}
        for _ in range(draw(st.integers(0, max_terms))):
            exp = tuple(draw(exponent) for _ in range(n))
            k = draw(st.integers(1, p ** m - 1))
            terms[exp] = ctx.elem([k // p ** i % p for i in range(m)])
        return MultiPoly.from_terms(ctx, n, terms)

    return CartierMap(e, poly(5)), poly, exponent


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_apply_matches_reference(data):
    phi, poly, _ = data.draw(maps())
    f = poly(8)
    assert phi.apply(f) == reference.apply(phi, f)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_trace_project_matches_reference(data):
    phi, poly, _ = data.draw(maps())
    f = poly(8)
    assert trace_project(f, phi.e) == reference.trace_project(f, phi.e)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_compatible_matches_enumeration(data):
    """Zero multipliers, the unit ideal, the zero ideal and generating sets
    with redundant members all come up."""
    phi, _, exponent = data.draw(maps())
    n = phi.nvars
    gens = [tuple(data.draw(exponent) for _ in range(n))
            for _ in range(data.draw(st.integers(0, 3)))]
    if data.draw(st.integers(0, 3)) == 0:
        gens.append((0,) * n)
    for u in list(gens):  # multiples of generators are redundant
        if data.draw(st.booleans()):
            gens.append(tuple(a + data.draw(st.integers(0, 3)) for a in u))
    ideal = MonomialIdeal(n, gens)
    assert check_compatible(phi, ideal) == \
        reference.check_compatible(phi, ideal)


class TestTraceProject:
    def test_dual_basis_top_monomial(self):
        for p, n, e in [(2, 1, 1), (2, 2, 1), (3, 2, 1), (2, 2, 2)]:
            ctx = make_context(p)
            top = p ** e - 1
            f = MultiPoly.monomial(ctx, n, (top,) * n)
            assert trace_project(f, e) == MultiPoly.const(ctx, n, 1)

    def test_pure_power_projects_to_zero(self):
        for p in (2, 3, 5):
            ctx = make_context(p)
            f = parse_poly(f"x^{p}", ctx, 1)
            assert trace_project(f, 1).is_zero

    def test_x_cubed_char2(self, f2):
        assert trace_project(parse_poly("x^3", f2, 1), 1) == \
            parse_poly("x", f2, 1)

    def test_huge_level(self, f5):
        """No exponent reaches p^e - 1, and p^e is never formed."""
        f = parse_poly("x^4", f5, 1)
        assert trace_project(f, 10 ** 8).is_zero
        with pytest.raises(ValueError):
            trace_project(f, 0)

    def test_agrees_with_full_decomposition(self, rng):
        # dual route: the lazily extracted component equals the one from
        # the materialized decomposition
        for p, m in [(2, 1), (3, 1), (2, 2)]:
            ctx = make_context(p, m)
            for e in (1, 2):
                top = (p ** e - 1,) * 2
                for _ in range(10):
                    f = random_poly(ctx, 2, rng, max_terms=8, max_degree=12)
                    assert trace_project(f, e) == \
                        decompose(f, e).component(top)


class TestApply:
    def test_splitting_sends_one_to_one(self, f2):
        phi = canonical_splitting(f2, 2, 1)
        one = MultiPoly.const(f2, 2, 1)
        assert phi.apply(one) == one

    def test_zero_multiplier_kills_everything(self, f2, rng):
        phi = CartierMap(1, MultiPoly.zero(f2, 2))
        for _ in range(5):
            assert phi.apply(random_poly(f2, 2, rng)).is_zero

    def test_unit_multiplier_examples(self, f2):
        phi = CartierMap(1, MultiPoly.const(f2, 2, 1))
        assert phi.apply(parse_poly("x*y", f2, 2)) == \
            MultiPoly.const(f2, 2, 1)
        assert phi.apply(parse_poly("x", f2, 2)).is_zero

    def test_context_mismatch(self, f2, f3):
        phi = CartierMap(1, parse_poly("x", f2, 1))
        with pytest.raises(ContextMismatch):
            phi.apply(parse_poly("x", f3, 1))

    def test_discarded_product_may_exceed_the_exponent_limit(self, f2):
        # x^(2^31 - 2) * x^2 leaves the 32-bit range but lies off the top
        # residue; only x^(2^31 - 2) * x reaches the top component
        phi = CartierMap(1, MultiPoly.monomial(f2, 1, (EXPONENT_LIMIT - 1,)))
        f = parse_poly("x^2 + x", f2, 1)
        with pytest.raises(ExponentOverflow):
            reference.apply(phi, f)
        assert phi.apply(f) == \
            MultiPoly.monomial(f2, 1, ((EXPONENT_LIMIT - 1) // 2,))

    def test_level_beyond_every_exponent(self, f5):
        # q - 1 above every exponent sum: nothing reaches the top residue,
        # except with no variables, where every product does
        big = 10 ** 8
        assert CartierMap(big, parse_poly("x^3*y^3", f5, 2)).apply(
            parse_poly("x^7*y^7 + 1", f5, 2)).is_zero
        phi = CartierMap(big, MultiPoly.const(f5, 0, 2))
        assert phi.apply(MultiPoly.const(f5, 0, 3)) == \
            MultiPoly.const(f5, 0, 1)

    def test_linearity_law_random(self, rng):
        for p, m in [(2, 1), (3, 1), (5, 1), (2, 2)]:
            ctx = make_context(p, m)
            for e in (1, 2):
                phi = CartierMap(e, random_poly(ctx, 2, rng, 4, 5))
                for _ in range(10):
                    r = random_poly(ctx, 2, rng, 3, 3)
                    s = random_poly(ctx, 2, rng, 4, 5)
                    assert phi.apply(frobenius_image(r, e) * s) == \
                        r * phi.apply(s)

    def test_additivity(self, f3, rng):
        phi = CartierMap(1, random_poly(f3, 2, rng, 4, 4))
        for _ in range(15):
            f = random_poly(f3, 2, rng)
            g = random_poly(f3, 2, rng)
            assert phi.apply(f + g) == phi.apply(f) + phi.apply(g)


class TestSplitting:
    def test_canonical_multipliers(self, f2, f3):
        assert canonical_splitting(f2, 1, 1).g == parse_poly("x", f2, 1)
        assert canonical_splitting(f3, 2, 1).g == \
            parse_poly("x^2*y^2", f3, 2)

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("e", [1, 2])
    def test_canonical_is_splitting(self, p, n, e):
        ctx = make_context(p)
        assert is_splitting(canonical_splitting(ctx, n, e))

    def test_exponent_limit(self, f2, f5):
        # p^e - 1 is decided from bit lengths: 2^31 - 1 is the largest exponent
        assert canonical_splitting(f2, 1, 31).g == \
            MultiPoly.monomial(f2, 1, (EXPONENT_LIMIT,))
        for ctx, e in ((f2, 32), (f5, 14), (f5, 10 ** 8)):
            with pytest.raises(ExponentOverflow):
                canonical_splitting(ctx, 1, e)
        assert canonical_splitting(f5, 0, 10 ** 8).is_splitting()

    def test_zero_map_is_not(self, f2):
        assert not is_splitting(CartierMap(1, MultiPoly.zero(f2, 2)))

    def test_perturbed_multiplier_still_splits(self, f2):
        # g = xy + x has component 1 at the top monomial xy
        phi = CartierMap(1, parse_poly("x*y + x", f2, 2))
        assert is_splitting(phi)

    def test_splitting_inverts_frobenius(self, f5, rng):
        phi = canonical_splitting(f5, 2, 2)
        for _ in range(10):
            f = random_poly(f5, 2, rng, 4, 4)
            assert phi.apply(frobenius_image(f, 2)) == f


class TestCompose:
    def test_definitional_contract_random(self, rng):
        for p in (2, 3):
            ctx = make_context(p)
            for _ in range(100):
                outer = CartierMap(rng.randint(1, 2),
                                   random_poly(ctx, 2, rng, 3, 4))
                inner = CartierMap(rng.randint(1, 2),
                                   random_poly(ctx, 2, rng, 3, 4))
                f = random_poly(ctx, 2, rng, 4, 6)
                comp = compose(outer, inner)
                assert comp.e == outer.e + inner.e
                assert comp.apply(f) == outer.apply(inner.apply(f))

    def test_multiplier_formula(self, f3, rng):
        outer = CartierMap(2, random_poly(f3, 2, rng, 3, 3))
        inner = CartierMap(1, random_poly(f3, 2, rng, 3, 3))
        comp = compose(outer, inner)
        assert comp.g == frobenius_image(outer.g, inner.e) * inner.g

    def test_zero_inner_gives_zero_map(self, f2, rng):
        outer = CartierMap(1, random_poly(f2, 2, rng, 3, 3))
        comp = compose(outer, CartierMap(1, MultiPoly.zero(f2, 2)))
        assert comp.g.is_zero

    def test_canonical_splittings_compose_to_canonical(self, f2, f3):
        for ctx, n in [(f2, 2), (f3, 1)]:
            s1 = canonical_splitting(ctx, n, 1)
            comp = compose(s1, s1)
            assert comp == canonical_splitting(ctx, n, 2)
            assert is_splitting(comp)

    def test_splittings_closed_under_composition(self, f2):
        a = CartierMap(1, parse_poly("x*y + x", f2, 2))
        b = canonical_splitting(f2, 2, 1)
        assert is_splitting(compose(a, b))
        assert is_splitting(compose(b, a))

    def test_paper_chain_instance(self, f2):
        # c = x+y; phi has multiplier c^p * xy so phi(1) = c; the level-2
        # self-composite must send c^((p^(e-1)-1)p) = c^2 to c*phi(1) = c^2
        c = parse_poly("x + y", f2, 2)
        g = frobenius_image(c, 1) * parse_poly("x*y", f2, 2)
        phi = CartierMap(1, g)
        one = MultiPoly.const(f2, 2, 1)
        assert phi.apply(one) == c
        composite = compose(phi, phi)
        assert composite.apply(c * c) == c * phi.apply(one)


class TestCheckLinearity:
    def test_structural_maps_pass(self, f3, rng):
        phi = CartierMap(1, random_poly(f3, 2, rng, 4, 4))
        assert check_linearity(phi, 25, rng)
        assert check_linearity(CartierMap(1, MultiPoly.zero(f3, 2)), 5, rng)

    def test_corrupted_apply_detected(self, f2, rng):
        class Corrupted(CartierMap):
            __slots__ = ()

            def apply(self, f):
                # deliberately breaks additivity/linearity on constants
                out = super().apply(f)
                return out + MultiPoly.const(
                    self.ctx, self.nvars, len(f.terms) % 2)

        phi = Corrupted(1, parse_poly("x*y", f2, 2))
        assert not check_linearity(phi, 50, rng)

    def test_trials_validated(self, f2, rng):
        with pytest.raises(ValueError):
            check_linearity(canonical_splitting(f2, 1, 1), 0, rng)


class TestCheckCompatible:
    def test_unit_ideal_always_compatible(self, f2, rng):
        whole = MonomialIdeal(2, [(0, 0)])
        phi = CartierMap(1, random_poly(f2, 2, rng, 4, 4))
        assert check_compatible(phi, whole)

    def test_hand_case_x_with_canonical(self, f2):
        phi = canonical_splitting(f2, 1, 1)
        assert check_compatible(phi, MonomialIdeal(1, [(1,)]))

    def test_hand_case_x_squared_with_unit_multiplier(self, f2):
        phi = CartierMap(1, MultiPoly.const(f2, 1, 1))
        assert not check_compatible(phi, MonomialIdeal(1, [(2,)]))

    def test_radical_ideal_compatible_nonradical_not(self, f2):
        # the canonical splitting is compatible with radical monomial
        # ideals; a square generator breaks it
        phi = canonical_splitting(f2, 2, 1)
        assert check_compatible(phi, MonomialIdeal(2, [(1, 0), (0, 1)]))
        assert not check_compatible(phi, MonomialIdeal(2, [(1, 0), (0, 2)]))

    def test_compatible_implies_membership_of_random_elements(self, f2, rng):
        # elements of the pushforward of J are spanned by h^(p^e) * u * b
        phi = canonical_splitting(f2, 2, 1)
        J = MonomialIdeal(2, [(1, 0), (0, 1)])
        assert check_compatible(phi, J)
        basis = free_basis(2, 2, 1)
        for _ in range(200):
            f = MultiPoly.zero(f2, 2)
            for _ in range(rng.randint(1, 3)):
                h = random_poly(f2, 2, rng, 3, 3)
                u = MonomialIdeal(2, J.generators).generators[
                    rng.randrange(len(J.generators))]
                b = basis[rng.randrange(len(basis))]
                f = f + frobenius_image(h, 1) * \
                    MultiPoly.monomial(f2, 2, u) * \
                    MultiPoly.monomial(f2, 2, b)
            assert member(J, f)
            assert member(J, phi.apply(f))

    def test_incompatible_has_escaping_witness(self, f2):
        phi = CartierMap(1, MultiPoly.const(f2, 1, 1))
        J = MonomialIdeal(1, [(2,)])
        # the escaping image from the hand check: apply(x^2 * x) = x
        image = phi.apply(parse_poly("x^3", f2, 1))
        assert image == parse_poly("x", f2, 1)
        assert not member(J, image)

    def test_rank_beyond_enumeration(self, f2):
        # rank 2^18 at p = 2, n = 3, e = 6: floor((gamma + u)/64) decides
        phi = CartierMap(6, parse_poly("x*y*z", f2, 3))
        J = MonomialIdeal(3, [(1, 0, 0)])
        assert not check_compatible(phi, J)
        assert check_compatible(canonical_splitting(f2, 3, 6), J)
        assert check_compatible(
            CartierMap(6, parse_poly("x^64*y + z", f2, 3)),
            MonomialIdeal(3, [(1, 0, 0), (0, 0, 1)])) is False
        assert check_compatible(
            CartierMap(6, parse_poly("x^64*y + x^63*z^70", f2, 3)),
            MonomialIdeal(3, [(1, 0, 0), (0, 0, 1)]))

    def test_level_beyond_every_exponent(self, f5):
        # every floor((gamma + u)/q) is 0: compatible only with the unit
        # ideal, or for the zero map
        big = 10 ** 8
        phi = CartierMap(big, parse_poly("x^4*y", f5, 2))
        assert not check_compatible(phi, MonomialIdeal(2, [(1, 0)]))
        assert check_compatible(phi, MonomialIdeal(2, [(0, 0)]))
        assert check_compatible(CartierMap(big, MultiPoly.zero(f5, 2)),
                                MonomialIdeal(2, [(1, 0)]))
