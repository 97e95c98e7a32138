import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ffield as reference
from charp.errors import DegreeTooLarge, NotPrime
from charp.ffield import FieldElement, frobenius_pow, make_context, pth_root
from charp.parser import parse_poly

FIELDS = [(p, m) for p in (2, 3, 5, 1048573) for m in (1, 2, 3, 4)]


@st.composite
def elements(draw):
    """An element of a drawn field, with zero and one over-represented."""
    ctx = make_context(*draw(st.sampled_from(FIELDS)))
    coeffs = draw(st.one_of(
        st.sampled_from([(0,), (1,)]),
        st.lists(st.integers(0, ctx.p - 1), min_size=ctx.m,
                 max_size=ctx.m)))
    return ctx.elem(coeffs)


def levels(m):
    """Levels past every residue class mod m, and some near 10^9."""
    return st.one_of(st.integers(0, 2 * m + 1),
                     st.integers(10 ** 9 - m, 10 ** 9 + m))


def brute_irreducibles_deg2_mod2():
    """Independent oracle: a monic quadratic over F_2 is irreducible iff it
    has no root; scan constant coefficient first, matching the context's
    lexicographic order."""
    found = []
    for c1 in range(2):
        for c0 in range(2):
            if all((r * r + c1 * r + c0) % 2 != 0 for r in range(2)):
                found.append((c0, c1, 1))
    return found


class TestContext:
    def test_prime_field_modulus_is_u(self):
        ctx = make_context(2, 1)
        assert ctx.modulus == (0, 1)

    def test_f4_modulus_matches_exhaustive_search(self):
        oracle = brute_irreducibles_deg2_mod2()
        assert oracle == [(1, 1, 1)]  # u^2 + u + 1 is the only one
        assert make_context(2, 2).modulus == (1, 1, 1)

    def test_not_prime(self):
        with pytest.raises(NotPrime):
            make_context(4, 1)
        with pytest.raises(NotPrime):
            make_context(1, 1)

    def test_degree_bounds(self):
        with pytest.raises(DegreeTooLarge):
            make_context(2, 13)
        with pytest.raises(DegreeTooLarge):
            make_context(2, 0)
        with pytest.raises(DegreeTooLarge):
            make_context((1 << 20) + 7, 1)  # 1048583 is prime, above bound

    def test_idempotent_registry(self):
        assert make_context(3, 2) is make_context(3, 2)

    def test_modulus_is_irreducible_by_brute_force(self):
        """Trial division against every lower-degree monic polynomial."""
        for (p, m) in [(2, 3), (3, 2), (5, 2)]:
            ctx = make_context(p, m)
            mod = list(ctx.modulus)

            def mul(a, b):
                out = [0] * (len(a) + len(b) - 1)
                for i, av in enumerate(a):
                    for j, bv in enumerate(b):
                        out[i + j] = (out[i + j] + av * bv) % p
                return out

            def all_monic(d):
                polys = [[1]]
                for _ in range(d):
                    polys = [[c] + q for q in polys for c in range(p)]
                # ascending coefficient order with leading 1 at the end
                return [list(reversed(q)) for q in polys]

            for d in range(1, m):
                for a in all_monic(d):
                    for b in all_monic(m - d):
                        prod = mul(a, b)
                        assert prod != mod, (p, m, a, b)


class TestFrobenius:
    def test_fixed_points(self, f4):
        zero, one = f4.zero, f4.one
        for k in range(4):
            assert frobenius_pow(zero, k) == zero
            assert frobenius_pow(one, k) == one
            assert pth_root(zero, k) == zero
            assert pth_root(one, k) == one

    def test_f4_square_of_u(self, f4):
        # oracle: u^2 reduced mod u^2+u+1 is u+1
        u = f4.generator()
        assert u * u == f4.elem((1, 1))
        assert frobenius_pow(u, 1) == f4.elem((1, 1))

    def test_f4_root_of_u_by_exhaustion(self, f4):
        u = f4.generator()
        roots = [b for b in f4.elements() if b * b == u]
        assert roots == [pth_root(u, 1)]
        assert pth_root(u, 1) == f4.elem((1, 1))

    @pytest.mark.parametrize("p,m", [(2, 1), (2, 2), (2, 3), (2, 6),
                                     (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
    def test_root_power_round_trip_exhaustive(self, p, m):
        ctx = make_context(p, m)
        for a in ctx.elements():
            for k in range(5):
                assert pth_root(frobenius_pow(a, k), k) == a
                assert frobenius_pow(pth_root(a, k), k) == a

    @pytest.mark.parametrize("p,m", [(2, 2), (2, 3), (3, 2), (5, 1)])
    def test_automorphism_exhaustive(self, p, m):
        ctx = make_context(p, m)
        els = list(ctx.elements())
        for a in els:
            for b in els:
                assert frobenius_pow(a * b, 1) == \
                    frobenius_pow(a, 1) * frobenius_pow(b, 1)
                assert frobenius_pow(a + b, 1) == \
                    frobenius_pow(a, 1) + frobenius_pow(b, 1)

    @pytest.mark.parametrize("p,m", [(2, 3), (3, 2), (2, 6)])
    def test_frobenius_order_divides_m(self, p, m):
        ctx = make_context(p, m)
        for a in ctx.elements():
            assert frobenius_pow(a, m) == a


    @pytest.mark.parametrize("p,m", FIELDS)
    def test_matrix_rows_are_frobenius_images(self, p, m):
        ctx = make_context(p, m)
        identity = tuple(ctx.elem((0,) * k + (1,)).coeffs for k in range(m))
        assert ctx.frobenius_matrix(0) == identity
        for j in range(2 * m + 1):
            mat = ctx.frobenius_matrix(j)
            assert mat == tuple(
                reference.frobenius_pow(ctx.elem((0,) * k + (1,)), j).coeffs
                for k in range(m))
            assert mat is ctx.frobenius_matrix(j % m)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_frobenius_matches_reference(data):
    a = data.draw(elements())
    k = data.draw(levels(a.ctx.m))
    assert frobenius_pow(a, k) == reference.frobenius_pow(a, k)
    assert pth_root(a, k) == reference.pth_root(a, k)
    assert pth_root(frobenius_pow(a, k), k) == a


@settings(max_examples=400, deadline=None)
@given(elements())
def test_inverse_matches_reference(a):
    if not a:
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    assert a.inverse() == reference.inverse(a)
    assert a * a.inverse() == a.ctx.one


class TestElementArithmetic:
    def test_field_axioms_exhaustive_f8(self):
        ctx = make_context(2, 3)
        els = list(ctx.elements())
        for a in els:
            for b in els:
                assert a + b == b + a
                assert a * b == b * a
                for c in els[:3]:
                    assert a * (b + c) == a * b + a * c

    def test_inverse(self):
        ctx = make_context(3, 2)
        for a in ctx.elements():
            if a:
                assert a * a.inverse() == ctx.one
        with pytest.raises(ZeroDivisionError):
            ctx.zero.inverse()

    def test_division(self, f5):
        a, b = f5.elem(3), f5.elem(4)
        assert (a / b) * b == a

    def test_pow_negative(self, f5):
        a = f5.elem(2)
        assert a ** -1 == a.inverse()
        assert a ** -2 == (a * a).inverse()

    def test_literal_round_trip(self):
        for (p, m) in [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)]:
            ctx = make_context(p, m)
            for a in ctx.elements():
                assert parse_poly(str(a), ctx, 0).constant_term() == a

    def test_int_coercion(self, f3):
        assert f3.elem(5) == f3.elem(2)
        assert f3.elem(2) + 1 == f3.zero
        assert 2 * f3.elem(2) == f3.one

    def test_context_mismatch(self, f2, f3):
        from charp.errors import ContextMismatch
        with pytest.raises(ContextMismatch):
            f2.one + f3.one

    def test_hash_consistency(self, f4):
        a = f4.elem((1, 1))
        b = f4.generator() * f4.generator()
        assert a == b and hash(a) == hash(b)
