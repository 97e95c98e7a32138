import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import charp.parser
import reference_parser as reference
from charp.errors import ExponentOverflow, PolySyntaxError
from charp.ffield import make_context
from charp.parser import (MAX_NESTING, _power_products, _terms, parse_list,
                          parse_poly, parse_rational)
from charp.poly import MultiPoly, RationalFn, format_poly, random_poly


class TestParse:
    def test_reads_terms_directly(self, f3):
        f = parse_poly("x^2*y + 2", f3, 2)
        assert f.terms == {(2, 1): f3.one, (0, 0): f3.elem(2)}

    def test_cancellation_to_zero(self, f2):
        assert parse_poly("x - x", f2, 2).is_zero

    def test_whitespace_insignificant(self, f2):
        assert parse_poly(" x ^ 2 + y ", f2, 2) == parse_poly("x^2+y", f2, 2)

    def test_unary_minus(self, f3):
        assert parse_poly("-x", f3, 1) == -parse_poly("x", f3, 1)
        assert parse_poly("--x", f3, 1) == parse_poly("x", f3, 1)
        assert parse_poly("2 - -1", f3, 1) == MultiPoly.const(f3, 1, 0)

    def test_parentheses_and_powers(self, f2):
        assert parse_poly("(x+y)^2", f2, 2) == parse_poly("x^2+y^2", f2, 2)
        with pytest.raises(PolySyntaxError):
            parse_poly("x^2^3", f2, 1)  # chained exponents are not grammar
        with pytest.raises(PolySyntaxError):
            parse_poly("(x+y", f2, 2)

    def test_coefficients_reduce_mod_p(self, f3):
        assert parse_poly("4*x", f3, 1) == parse_poly("x", f3, 1)
        assert parse_poly("3*x", f3, 1).is_zero

    def test_variable_names_by_count(self, f2):
        parse_poly("x*y*z", f2, 3)
        parse_poly("x1*x4", f2, 4)
        with pytest.raises(PolySyntaxError):
            parse_poly("z", f2, 2)
        with pytest.raises(PolySyntaxError):
            parse_poly("x", f2, 4)  # four variables are named x1..x4

    def test_extension_coefficients(self, f4):
        u = f4.generator()
        f = parse_poly("(u+1)*x^2 + u*y", f4, 2)
        assert f.terms == {(2, 0): u + 1, (0, 2): u} or \
            f.terms == {(2, 0): u + f4.one, (0, 1): u}
        assert f.terms[(2, 0)] == u + 1
        assert f.terms[(0, 1)] == u

    def test_u_rejected_in_prime_field(self, f2):
        with pytest.raises(PolySyntaxError):
            parse_poly("u*x", f2, 1)

    def test_error_positions(self, f2):
        with pytest.raises(PolySyntaxError) as info:
            parse_poly("x + $", f2, 1)
        assert info.value.position == 4
        with pytest.raises(PolySyntaxError) as info:
            parse_poly("x^y", f2, 2)
        assert info.value.position == 2

    @pytest.mark.parametrize("text,position,message", [
        # digits int() does not read are not digits
        ("x^\u00b2", 2, "unexpected character '\u00b2'"),
        ("1" * 4301 + "*x", 0, "integer literal too long"),
        ("x^" + "1" * 4301, 2, "exponent exceeds 32-bit bound"),
        ("(" * (MAX_NESTING + 1) + "x" + ")" * (MAX_NESTING + 1),
         MAX_NESTING, f"parentheses nest deeper than {MAX_NESTING}"),
    ])
    def test_hostile_text_is_a_syntax_error(self, f2, text, position,
                                            message):
        with pytest.raises(PolySyntaxError, match=message) as info:
            parse_poly(text, f2, 1)
        assert info.value.position == position

    def test_decimal_digits_and_deep_text_parse(self, f3):
        assert parse_poly("\u0663*x", f3, 1).is_zero  # Arabic-Indic 3
        x = parse_poly("x", f3, 1)
        nested = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
        assert parse_poly(nested, f3, 1) == x
        assert parse_poly("-" * 5001 + "x", f3, 1) == -x

    def test_trailing_garbage(self, f2):
        with pytest.raises(PolySyntaxError):
            parse_poly("x y", f2, 2)

    def test_exponent_bound(self, f2):
        with pytest.raises(PolySyntaxError):
            parse_poly("x^2147483648", f2, 1)

    @pytest.mark.parametrize("p,k", [(1048573, 20), (2, 255), (3, 17),
                                     (5, 31)])
    def test_term_bound_follows_the_base_p_digits(self, p, k):
        """Attained by four terms in distinct variables."""
        ctx = make_context(p)
        f = parse_poly(f"(x+y+z+1)^{k}", ctx, 3)
        assert len(f.terms) == _terms(4, k, p)

    @pytest.mark.parametrize("p,k", [(1048573, 40), (2, 7), (3, 26)])
    def test_power_budget_edge(self, monkeypatch, p, k):
        """The bound holds the products the powering takes, and is them
        where nothing cancels."""
        ctx = make_context(p)
        need = _power_products(3, k, p)
        monkeypatch.setattr(charp.parser, "POWER_BUDGET", need)
        products = []
        mul = MultiPoly.__mul__

        def counting(a, b):
            products.append(len(a.terms) * len(b.terms))
            return mul(a, b)

        monkeypatch.setattr(MultiPoly, "__mul__", counting)
        got = parse_poly(f"(x+y+1)^{k}", ctx, 2)
        monkeypatch.setattr(MultiPoly, "__mul__", mul)
        assert got == parse_poly("x+y+1", ctx, 2) ** k
        assert sum(products) == need if p > k else sum(products) <= need
        monkeypatch.setattr(charp.parser, "POWER_BUDGET", need - 1)
        with pytest.raises(PolySyntaxError) as exc:
            parse_poly(f"(x+y+1)^{k}", ctx, 2)
        assert exc.value.position == 8

    def test_product_budget_edge(self, monkeypatch):
        """A product of a- and b-term factors takes a * b term products;
        past the budget the `*` is the error."""
        ctx = make_context(1048573)
        monkeypatch.setattr(charp.parser, "POWER_BUDGET", 12)
        assert parse_poly("(x+y+z+1)*(x+y+1)", ctx, 3) == \
            parse_poly("x+y+z+1", ctx, 3) * parse_poly("x+y+1", ctx, 3)
        with pytest.raises(PolySyntaxError) as exc:
            parse_poly("2*x*(x+y+z+1)*(x+y+z+1)", ctx, 3)
        assert exc.value.position == 13

    def test_one_budget_per_parse(self, monkeypatch):
        """Pieces that each fit are refused once together they take more
        than the budget; the error points at the piece that ran out."""
        ctx = make_context(1048573)
        monkeypatch.setattr(charp.parser, "POWER_BUDGET", 12)
        # x*y takes 1 term product and (x+y+1)*(x+y+1) takes 9: 10 in all
        assert parse_poly("x*y+(x+y+1)*(x+y+1)", ctx, 2) == \
            parse_poly("x*y", ctx, 2) + parse_poly("x+y+1", ctx, 2) ** 2
        # 4 + 9 at the second '*'; 9 + 2 + 2 and 9 + 7 at the last exponent
        for text, position in [("x*y*z*x*y+(x+y+1)*(x+y+1)", 17),
                               ("(x+y+1)*(x+y+1)+x^2*y^2", 22),
                               ("(x+y+1)*(x+y+1)+(x+y)^2", 22)]:
            with pytest.raises(PolySyntaxError, match="parse takes more "
                               "than 12 term products in all") as exc:
                parse_poly(text, ctx, 3)
            assert exc.value.position == position

    def test_numerator_and_denominator_share_the_budget(self, monkeypatch):
        ctx = make_context(1048573)
        monkeypatch.setattr(charp.parser, "POWER_BUDGET", 12)
        parse_rational("(x+y+1)*(x+y+1)/(x*y)", ctx, 2)
        with pytest.raises(PolySyntaxError, match="in all") as exc:
            parse_rational("(x+y+1)*(x+y+1)/(x*y*y*y*y)", ctx, 2)
        # the last '*' of the denominator, counted from the start of the text
        assert exc.value.position == 24

    def test_a_sum_of_pieces_within_the_budget_is_refused(self, monkeypatch):
        """Each product fits the budget on its own, and parsed for seconds
        as a sum; one budget for the parse bounds the work it does."""
        ctx = make_context(1048573)
        products = []
        mul = MultiPoly.__mul__

        def counting(a, b):
            products.append(len(a.terms) * len(b.terms))
            return mul(a, b)

        monkeypatch.setattr(MultiPoly, "__mul__", counting)
        with pytest.raises(PolySyntaxError, match="in all") as exc:
            parse_poly("(x+1)^399*(y+1)^499+(x+1)^399*(y+1)^498"
                       "+(x+1)^398*(y+1)^499", ctx, 2)
        assert exc.value.position == 9
        assert sum(products) <= charp.parser.POWER_BUDGET


class TestFormatRoundTrip:
    def test_round_trip_1000_random(self):
        rng = random.Random(7)
        contexts = [make_context(2), make_context(3), make_context(5),
                    make_context(2, 2), make_context(3, 2)]
        for i in range(1000):
            ctx = contexts[i % len(contexts)]
            nvars = 1 + (i % 3)
            f = random_poly(ctx, nvars, rng, max_terms=8, max_degree=9)
            assert parse_poly(format_poly(f), ctx, nvars) == f

    def test_zero_formats_and_reparses(self, f2):
        z = MultiPoly.zero(f2, 2)
        assert format_poly(z) == "0"
        assert parse_poly("0", f2, 2) == z

    def test_constant_extension_coefficient(self, f4):
        c = MultiPoly.const(f4, 1, f4.elem((1, 1)))
        assert format_poly(c) == "(u+1)"
        assert parse_poly(format_poly(c), f4, 1) == c


def _random_expr(rng, names, depth=0):
    """Random syntactically valid expression text, canonical or not."""
    roll = rng.random()
    if depth >= 3 or roll < 0.35:
        atom = rng.choice(names + [str(rng.randint(0, 9))])
        if rng.random() < 0.4:
            atom = f"{atom}^{rng.randint(0, 6)}"
        return atom
    if roll < 0.55:
        return f"-{_random_expr(rng, names, depth + 1)}"
    if roll < 0.8:
        op = rng.choice([" + ", " - ", "*"])
        return _random_expr(rng, names, depth + 1) + op + \
            _random_expr(rng, names, depth + 1)
    return f"({_random_expr(rng, names, depth + 1)})"


class TestRandomStrings:
    def test_parse_of_random_strings_round_trips(self):
        """format(parse(s)) reparses to an equal polynomial for random
        expression strings, canonical or not."""
        rng = random.Random(99)
        contexts = [(make_context(2), ["x", "y"]),
                    (make_context(3), ["x", "y"]),
                    (make_context(2, 2), ["x", "y", "u"])]
        for i in range(1000):
            ctx, names = contexts[i % len(contexts)]
            s = _random_expr(rng, names)
            f = parse_poly(s, ctx, 2)
            assert parse_poly(format_poly(f), ctx, 2) == f


class TestParseRational:
    def test_split_top_level(self, f2):
        r = parse_rational("x^3/(y - x - x^2)", f2, 2)
        assert r.num == parse_poly("x^3", f2, 2)
        assert r.den == parse_poly("y + x + x^2", f2, 2)

    def test_bare_polynomial(self, f2):
        r = parse_rational("x + y", f2, 2)
        assert r.den == MultiPoly.const(f2, 2, 1)

    def test_two_slashes_rejected(self, f2):
        with pytest.raises(PolySyntaxError):
            parse_rational("x/y/x", f2, 2)

    def test_zero_denominator_rejected(self, f2):
        with pytest.raises(PolySyntaxError):
            parse_rational("x/(y - y)", f2, 2)

    @pytest.mark.parametrize("text,position", [
        ("x/yy", 2), ("(x+y)/y@", 7), ("x/", 2), ("x/(y - y)", 2),
        ("x@/y", 1), ("x/y/x", 3), ("(x/y)", 2), ("x/y^2^3", 5),
    ])
    def test_positions_index_the_whole_input(self, f2, text, position):
        with pytest.raises(PolySyntaxError) as info:
            parse_rational(text, f2, 2)
        assert info.value.position == position

    def test_slash_only_in_a_fraction(self, f2):
        with pytest.raises(PolySyntaxError,
                           match="unexpected character '/'") as info:
            parse_poly("x/y", f2, 2)
        assert info.value.position == 1


class TestParseList:
    def test_items_in_order(self, f2):
        assert parse_list("x^2, y ,x*y", f2, 2, ",") == [
            parse_poly(t, f2, 2) for t in ("x^2", "y", "x*y")]
        assert parse_list("x+1", f2, 2, ";") == [parse_poly("x+1", f2, 2)]

    @pytest.mark.parametrize("text,separator,message,position", [
        ("x,@", ",", "unexpected character '@'", 2),
        ("x;y^2^3", ";", "unexpected trailing input", 5),
        ("x,,y", ",", "expected a number, variable, or '\\('", 2),
        ("x,", ",", "expected a number, variable, or '\\('", 2),
        ("(x,y)", ",", "unexpected character ','", 2),
        ("x,y;z", ",", "unexpected character ';'", 3),
        ("x/y", ";", "unexpected character '/'", 1),
    ])
    def test_positions_index_the_whole_argument(self, f2, text, separator,
                                                message, position):
        with pytest.raises(PolySyntaxError, match=message) as info:
            parse_list(text, f2, 2, separator)
        assert info.value.position == position


CONTEXTS = [make_context(2), make_context(3), make_context(2, 2)]

_atoms = st.sampled_from(["x", "y", "u", "0", "1", "2", "3"])


def _compound(inner):
    return st.one_of(
        st.tuples(inner, st.sampled_from(["+", " - ", "*"]),
                  inner).map("".join),
        inner.map("-{}".format),
        st.tuples(inner, st.integers(0, 5)).map("({0[0]})^{0[1]}".format),
    )


_exprs = st.recursive(_atoms, _compound, max_leaves=8)


def _outcome(parse, text, ctx):
    try:
        return parse(text, ctx, 2)
    except PolySyntaxError as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(ctx=st.sampled_from(CONTEXTS),
       text=st.one_of(st.tuples(_exprs, _exprs).map("/".join),
                      _exprs,
                      st.text("xy2u+-*^()/ @z", max_size=16)))
def test_fraction_agrees_with_the_splitter(ctx, text):
    """The one-pass reader and the old top-level '/' splitter parse the
    same texts to the same fraction."""
    got = _outcome(parse_rational, text, ctx)
    want = _outcome(reference.parse_rational, text, ctx)
    if isinstance(got, RationalFn) or isinstance(want, RationalFn):
        assert (got.num, got.den) == (want.num, want.den)


@settings(max_examples=100, deadline=None)
@given(ctx=st.sampled_from(CONTEXTS), num=_exprs, den=_exprs,
       data=st.data())
def test_denominator_fault_positions_agree(ctx, num, den, data):
    """One bad character in the denominator of a fraction is blamed at the
    same place of the whole text by both readers."""
    assume(isinstance(_outcome(parse_rational, f"{num}/{den}", ctx),
                      RationalFn))
    k = data.draw(st.integers(0, len(den) - 1))
    text = f"{num}/{den[:k]}@{den[k + 1:]}"
    got = _outcome(parse_rational, text, ctx)
    want = _outcome(reference.parse_rational, text, ctx)
    assert got.position == want.position == len(num) + 1 + k


_PIECES = list("xyzu0123456789+-*^()/ ") + ["\u00b2", "\u0663", "_", "@",
                                            "1" * 4301]


@settings(max_examples=100, deadline=None)
@given(ctx=st.sampled_from(CONTEXTS),
       items=st.lists(_exprs, min_size=1, max_size=4),
       separator=st.sampled_from([",", ";"]))
def test_list_reads_as_its_items_one_by_one(ctx, items, separator):
    """A list parses to what its items parse to alone, or fails where its
    first failing item fails, counted from the start of the list."""
    want, offset = [], 0
    for item in items:
        got = _outcome(parse_poly, item, ctx)
        if isinstance(got, PolySyntaxError):
            want = (str(got).rsplit(" (at", 1)[0], got.position + offset)
            break
        want.append(got)
        offset += len(item) + 1
    try:
        got = parse_list(separator.join(items), ctx, 2, separator)
    except PolySyntaxError as exc:
        got = (str(exc).rsplit(" (at", 1)[0], exc.position)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(ctx=st.sampled_from(CONTEXTS),
       text=st.lists(st.sampled_from(_PIECES), max_size=40).map("".join))
def test_any_text_parses_or_is_a_typed_error(ctx, text):
    """Text over the grammar's characters, odd digits and over-long
    literals either parses or is a syntax error inside the text; past the
    32-bit exponent bound, arithmetic raises its own typed error."""
    for parse in (parse_poly, parse_rational):
        try:
            parse(text, ctx, 2)
        except PolySyntaxError as exc:
            assert 0 <= exc.position <= len(text)
        except ExponentOverflow:
            pass
