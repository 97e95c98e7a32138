import math

import pytest

from charp.errors import ContextMismatch, ExponentOverflow
from charp.ffield import make_context
from charp.parser import parse_poly
from charp.poly import (EXPONENT_LIMIT, MonomialIdeal, MultiPoly, RationalFn,
                        format_poly, random_poly)


class TestArithmetic:
    def test_add_zero_identity(self, f3, rng):
        zero = MultiPoly.zero(f3, 2)
        for _ in range(20):
            f = random_poly(f3, 2, rng)
            assert f + zero == f

    def test_freshman_dream_char2(self, f2):
        f = parse_poly("x+y", f2, 2)
        assert f * f == parse_poly("x^2+y^2", f2, 2)

    def test_cube_char3_against_binomial_oracle(self, f3):
        # coefficient of x^a y^(3-a) in (x+y)^3 is C(3,a) mod 3
        expected = {}
        for a in range(4):
            c = math.comb(3, a) % 3
            if c:
                expected[(a, 3 - a)] = f3.elem(c)
        f = parse_poly("x+y", f3, 2)
        assert (f ** 3).terms == expected
        assert f ** 3 == parse_poly("x^3+y^3", f3, 2)

    def test_ring_axioms_random(self, f4, rng):
        for _ in range(60):
            a = random_poly(f4, 2, rng)
            b = random_poly(f4, 2, rng)
            c = random_poly(f4, 2, rng)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a

    def test_frobenius_identity_random(self, f3, rng):
        for _ in range(40):
            f = random_poly(f3, 2, rng)
            g = random_poly(f3, 2, rng)
            assert (f + g) ** 3 == f ** 3 + g ** 3

    def test_sub_and_neg(self, f5, rng):
        for _ in range(20):
            f = random_poly(f5, 2, rng)
            assert f - f == MultiPoly.zero(f5, 2)
            assert f + (-f) == MultiPoly.zero(f5, 2)

    def test_scalar_multiplication(self, f5, rng):
        f = random_poly(f5, 2, rng)
        assert f * f5.elem(1) == f
        assert f * 0 == MultiPoly.zero(f5, 2)

    def test_context_mismatch(self, f2, f3):
        with pytest.raises(ContextMismatch):
            parse_poly("x", f2, 1) + parse_poly("x", f3, 1)
        with pytest.raises(ContextMismatch):
            parse_poly("x", f2, 1) * parse_poly("x", f2, 2)

    def test_exponent_overflow_checked(self, f2):
        big = MultiPoly.monomial(f2, 1, (EXPONENT_LIMIT,))
        with pytest.raises(ExponentOverflow):
            big * big


class TestOrdering:
    def test_terms_sorted_leading_first(self, f2):
        f = parse_poly("1 + y + x + x*y + x^2", f2, 2)
        exps = [e for e, _ in f.sorted_terms()]
        assert exps == [(2, 0), (1, 1), (1, 0), (0, 1), (0, 0)]

    def test_format_uses_term_order(self, f2):
        f = parse_poly("y + x", f2, 2)
        assert format_poly(f) == "x+y"

    def test_leading_coefficient(self, f3):
        f = parse_poly("2*x^2 + x + 1", f3, 1)
        assert f.leading_coefficient() == f3.elem(2)


class TestMonomialIdeal:
    def test_zero_in_every_ideal(self, f2):
        J = MonomialIdeal(1, [(1,)])
        assert J.member(MultiPoly.zero(f2, 1))

    def test_divisible_terms(self, f2):
        J = MonomialIdeal(2, [(1, 0)])
        assert J.member(parse_poly("x^2*y + x*y", f2, 2))
        assert not J.member(parse_poly("x^2*y + y", f2, 2))

    def test_no_generator_divides(self, f2):
        J = MonomialIdeal(2, [(2, 0), (0, 1)])
        assert not J.member(parse_poly("x", f2, 2))

    def test_unit_ideal_catches_everything(self, f2, rng):
        J = MonomialIdeal(2, [(0, 0)])
        for _ in range(10):
            assert J.member(random_poly(f2, 2, rng))

    def test_minimalization(self):
        J = MonomialIdeal(2, [(1, 0), (2, 0), (1, 1), (0, 2)])
        assert set(J.generators) == {(1, 0), (0, 2)}

    def test_ideal_closure_properties(self, f3, rng):
        J = MonomialIdeal(2, [(2, 0), (0, 1)])
        for _ in range(40):
            f = random_poly(f3, 2, rng)
            g = random_poly(f3, 2, rng)
            h = random_poly(f3, 2, rng)
            if J.member(f) and J.member(g):
                assert J.member(f + g)
            if J.member(f):
                assert J.member(h * f)

    def test_membership_of_generator_multiples(self, f3, rng):
        J = MonomialIdeal(2, [(2, 1), (0, 3)])
        for _ in range(20):
            h = random_poly(f3, 2, rng)
            u = MultiPoly.monomial(f3, 2, (2, 1))
            assert J.member(h * u)

    def test_non_monomial_generator_rejected(self, f2):
        with pytest.raises(ValueError):
            MonomialIdeal.from_polys([parse_poly("x+y", f2, 2)])


class TestRationalFn:
    def test_cross_multiplication_equality(self, f2):
        a = RationalFn(parse_poly("x^2", f2, 2), parse_poly("x", f2, 2))
        b = RationalFn(parse_poly("x^3", f2, 2), parse_poly("x^2", f2, 2))
        assert a == b

    def test_monic_denominator_normalization(self, f3):
        r = RationalFn(parse_poly("x", f3, 2), parse_poly("2*y", f3, 2))
        assert r.den == parse_poly("y", f3, 2)
        assert r == RationalFn(parse_poly("2*x", f3, 2),
                               parse_poly("y", f3, 2))

    def test_zero_denominator_rejected(self, f2):
        with pytest.raises(ZeroDivisionError):
            RationalFn(parse_poly("x", f2, 2), MultiPoly.zero(f2, 2))

    def test_product(self, f2):
        x = parse_poly("x", f2, 2)
        y = parse_poly("y", f2, 2)
        r = RationalFn(x, y) * RationalFn(y, x)
        assert r == RationalFn(x * y, y * x)
        assert r == MultiPoly.const(f2, 2, 1)

