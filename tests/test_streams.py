import hashlib

import pytest

from charp.errors import PolySyntaxError
from charp.ffield import make_context
from charp.streams import (SeriesStream, builtin_streams, from_seed,
                           geometric_gap, lacunary, lacunary_shift,
                           parse_stream_spec, perturb, t_stream)


class TestBuiltins:
    def test_lacunary_first_coefficients(self, f2):
        s = lacunary(f2)
        got = [int(bool(s.coefficient(n))) for n in range(1, 7)]
        assert got == [1, 1, 0, 0, 0, 1]  # factorials 1, 2, 6

    def test_lacunary_nonunit(self, f2):
        assert not lacunary(f2).coefficient(0)

    def test_lacunary_deep_exponents(self, f2):
        s = lacunary(f2)
        assert s.coefficient(24) and s.coefficient(120) and s.coefficient(720)
        assert not s.coefficient(719) and not s.coefficient(721)

    def test_shift_exponents(self, f2):
        s = lacunary_shift(f2, 1)
        hits = [n for n in range(30) if s.coefficient(n)]
        assert hits == [2, 3, 7, 25]

    def test_geometric_gap_exponents(self, f2):
        s = geometric_gap(f2, 2)
        hits = [n for n in range(40) if s.coefficient(n)]
        assert hits == [2, 4, 8, 16, 32]

    def test_from_seed_deterministic(self, f3):
        a = from_seed(f3, 7)
        b = from_seed(f3, 7)
        assert [a.coefficient(n) for n in range(64)] == \
            [b.coefficient(n) for n in range(64)]

    def test_distinct_seeds_differ_early(self, f2):
        pairs = [(1, 2), (7, 11), (3, 99), (1000, 1001), (5, 50)]
        for s1, s2 in pairs:
            a, b = from_seed(f2, s1), from_seed(f2, s2)
            assert any(a.coefficient(n) != b.coefficient(n)
                       for n in range(64))

    def test_oracle_is_pure(self, f2):
        s = from_seed(f2, 42)
        assert s.coefficient(17) == s.coefficient(17)

    def test_t_stream(self, f2):
        t = t_stream(f2)
        assert not t.coefficient(0)
        assert t.coefficient(1) == f2.one
        assert not t.coefficient(2)

    def test_catalog_contents(self, f2):
        cat = builtin_streams(f2)
        assert set(cat) == {"lacunary", "lacunary-shift(1)",
                            "geometric-gap(2)", "from-seed(7)",
                            "from-seed(11)"}
        for s in cat.values():
            assert s.transcendental_assumed
            assert not s.coefficient(0)

    def test_unit_stream_rejected(self, f2):
        with pytest.raises(ValueError):
            SeriesStream(f2, "unit", lambda n: f2.one)


class TestPerturb:
    def test_adds_delta(self, f2):
        s = perturb(lacunary(f2), 3, f2.one)
        assert s.coefficient(3) == f2.one
        assert s.coefficient(2) == f2.one
        assert not s.coefficient(4)

    def test_cancels_existing_coefficient(self, f2):
        s = perturb(lacunary(f2), 2, f2.one)  # 1 + 1 = 0 in F_2
        assert not s.coefficient(2)

    def test_constant_perturbation_rejected(self, f2):
        with pytest.raises(ValueError):
            perturb(lacunary(f2), 0, f2.one)


class TestSpecLanguage:
    def test_plain_names(self, f2):
        assert parse_stream_spec("lacunary", f2).label == "lacunary"
        assert parse_stream_spec("t", f2).label == "t"

    def test_parameterized(self, f2):
        assert parse_stream_spec("lacunary-shift(1)", f2).label == \
            "lacunary-shift(1)"
        assert parse_stream_spec("geometric-gap(2)", f2).label == \
            "geometric-gap(2)"
        assert parse_stream_spec("from-seed(7)", f2).label == "from-seed(7)"

    def test_perturbation_suffix(self, f2):
        s = parse_stream_spec("lacunary+t^3", f2)
        assert s.coefficient(3) == f2.one
        base = lacunary(f2)
        assert all(s.coefficient(n) == base.coefficient(n)
                   for n in range(10) if n != 3)

    def test_minus_perturbation(self, f3):
        s = parse_stream_spec("lacunary-t^2", f3)
        assert not s.coefficient(2)  # 1 - 1 = 0 in F_3

    def test_coefficient_perturbation(self, f3):
        s = parse_stream_spec("lacunary+2*t^4", f3)
        assert s.coefficient(4) == f3.elem(2)

    def test_stacked_perturbations(self, f2):
        s = parse_stream_spec("lacunary+t^3+t^4", f2)
        assert s.coefficient(3) and s.coefficient(4)

    def test_unknown_name(self, f2):
        with pytest.raises(PolySyntaxError):
            parse_stream_spec("fibonacci", f2)

    def test_wrong_arity(self, f2):
        with pytest.raises(PolySyntaxError):
            parse_stream_spec("lacunary(3)", f2)
        with pytest.raises(PolySyntaxError):
            parse_stream_spec("from-seed", f2)

    @pytest.mark.parametrize("spec, position", [
        ("lacunary+x*t", 9),
        ("lacunary+shift", 9),
        ("from-seed(x)", 10),
        ("from-seed(1)(2)", 10),
        ("geometric-gap(2.5)", 14),
        ("  lacunary+t^q", 10),
        (" fibonacci", 1),
    ])
    def test_error_positions_index_the_spec(self, f2, spec, position):
        with pytest.raises(PolySyntaxError) as exc:
            parse_stream_spec(spec, f2)
        assert exc.value.position == position

    def test_matches_direct_constructors(self, f2):
        spec = parse_stream_spec("lacunary-shift(1)", f2)
        direct = lacunary_shift(f2, 1)
        assert all(spec.coefficient(n) == direct.coefficient(n)
                   for n in range(40))


def support_streams(ctx):
    """Catalog streams with a support, plus perturbations of them: one
    that adds an index, one that cancels a support coefficient, and one
    stacked on another."""
    one = ctx.one
    streams = [s for s in builtin_streams(ctx).values() if s.support]
    streams += [lacunary_shift(ctx, 3), geometric_gap(ctx, 5),
                perturb(lacunary(ctx), 10, one),
                perturb(lacunary(ctx), 6, -one),
                perturb(perturb(geometric_gap(ctx, 3), 9, -one), 5, one)]
    return streams


class TestSupport:
    @pytest.mark.parametrize("p, m", [(2, 1), (3, 2), (5, 1)])
    def test_support_lists_every_nonzero_index_upward(self, p, m):
        ctx = make_context(p, m)
        for s in support_streams(ctx):
            nonzero = [n for n in range(800) if s.coefficient(n)]
            for start in (0, 1, 2, 7, 24, 100, 721):
                listed = list(s.indices(start, 800))
                assert listed == sorted(set(listed)), s.label
                assert all(start <= n < 800 for n in listed), s.label
                assert {n for n in nonzero if n >= start} <= set(listed), \
                    s.label

    def test_gap_supports_are_their_exponents(self, f2):
        assert list(lacunary(f2).indices(0, 1000)) == [1, 2, 6, 24, 120, 720]
        assert list(lacunary_shift(f2, 3).indices(5, 200)) == [5, 9, 27, 123]
        assert list(geometric_gap(f2, 3).indices(10, 300)) == [27, 81, 243]

    def test_perturbation_merges_its_index(self, f3):
        added = perturb(lacunary(f3), 10, f3.one)
        assert list(added.indices(0, 30)) == [1, 2, 6, 10, 24]
        # a cancelled coefficient leaves its index, with coefficient 0
        cancelled = perturb(lacunary(f3), 6, -f3.one)
        assert list(cancelled.indices(0, 30)) == [1, 2, 6, 24]
        assert not cancelled.coefficient(6)
        # an index already in the support is listed once
        assert list(perturb(lacunary(f3), 2, f3.one).indices(0, 10)) == \
            [1, 2, 6]

    def test_from_seed_and_t_have_no_support(self, f2):
        for s in (from_seed(f2, 7), t_stream(f2),
                  perturb(from_seed(f2, 7), 3, f2.one)):
            assert s.support is None
            assert list(s.indices(3, 9)) == list(range(3, 9))

    @pytest.mark.parametrize("p, m", [(2, 1), (5, 3), (1048573, 2)])
    def test_from_seed_hashes_seed_and_index(self, p, m):
        """Copying the hash of the prefix changes no coefficient."""
        ctx = make_context(p, m)
        for seed in (0, 7, 123456):
            s = from_seed(ctx, seed)
            for n in (1, 2, 17, 4095, 10 ** 6):
                value = int.from_bytes(hashlib.sha256(
                    f"charp-stream:{seed}:{n}".encode()).digest(), "big")
                residues = []
                for _ in range(m):
                    residues.append(value % p)
                    value //= p
                assert s.coefficient(n).coeffs == tuple(residues)
