import json

import pytest

from charp.cartier import CartierMap, canonical_splitting
from charp.errors import NotSolid
from charp.excellence import (IMPLICATIONS, THEOREMS, dvr_report,
                              f_finite_report, solidity_witness)
from charp.ffield import make_context
from charp.parser import parse_poly, parse_rational
from charp.poly import MultiPoly, random_nonzero_poly
from charp.streams import lacunary, parse_stream_spec
from charp.valuation import EmbeddingValuation


class TestKnowledgeBase:
    def test_every_implication_cites_a_theorem(self):
        for premise, conclusion, theorem_id in IMPLICATIONS:
            assert theorem_id in THEOREMS
            assert premise != conclusion

    def test_chain_is_acyclic_and_linear(self):
        # each conclusion feeds the next premise; no claim repeats
        seen = set()
        for idx, (premise, conclusion, _) in enumerate(IMPLICATIONS):
            assert conclusion not in seen
            seen.add(conclusion)
            if idx + 1 < len(IMPLICATIONS):
                assert IMPLICATIONS[idx + 1][0] == conclusion

    def test_exactly_five_registered_edges(self):
        assert len(IMPLICATIONS) == 5


class TestPolyRingReport:
    def test_f2_two_vars(self):
        rep = f_finite_report(2, 1, 2, 1)
        assert rep.evidence[0]["witness"]["rank"] == 4
        assert rep.evidence[1]["witness"]["multiplier"] == "x*y"
        assert rep.evidence[1]["witness"]["sends_one_to_one"] is True
        claims = [v["claim"] for v in rep.verdicts]
        assert "R is excellent" in claims
        assert "R is F-finite" in claims
        for v in rep.verdicts:
            assert v["by"] in THEOREMS

    def test_f3_one_var(self):
        rep = f_finite_report(3, 1, 1, 1)
        assert rep.evidence[0]["witness"]["rank"] == 3
        assert rep.evidence[1]["witness"]["multiplier"] == "x^2"

    def test_level_zero_rejected(self):
        with pytest.raises(ValueError):
            f_finite_report(2, 1, 2, 0)

    def test_splitting_witness_passes_is_splitting(self):
        rep = f_finite_report(5, 1, 3, 1)
        ctx = make_context(5)
        g = parse_poly(rep.evidence[1]["witness"]["multiplier"], ctx, 3)
        assert CartierMap(1, g).is_splitting()

    def test_json_round_trips(self):
        rep = f_finite_report(2, 1, 2, 1)
        assert json.loads(rep.to_json()) == rep.to_dict()


class TestSolidity:
    def test_worked_case(self, f2):
        phi = canonical_splitting(f2, 1, 1)
        lam, value = solidity_witness(phi, parse_poly("x", f2, 1))
        assert lam == parse_poly("x", f2, 1)
        assert value == parse_poly("x", f2, 1)

    def test_unit_element(self, f2):
        phi = canonical_splitting(f2, 2, 1)
        one = MultiPoly.const(f2, 2, 1)
        lam, value = solidity_witness(phi, one)
        assert lam == one
        assert value == phi.apply(one)

    def test_zero_multiplier_not_solid(self, f2):
        phi = CartierMap(1, MultiPoly.zero(f2, 2))
        with pytest.raises(NotSolid):
            solidity_witness(phi, parse_poly("x", f2, 2))

    def test_zero_element_rejected(self, f2):
        phi = canonical_splitting(f2, 2, 1)
        with pytest.raises(ValueError):
            solidity_witness(phi, MultiPoly.zero(f2, 2))

    def test_value_is_s_times_phi_of_one(self, rng):
        for p in (2, 3, 5):
            ctx = make_context(p)
            phi = canonical_splitting(ctx, 2, 1)
            c = phi.apply(MultiPoly.const(ctx, 2, 1))
            for _ in range(10):
                s = random_nonzero_poly(ctx, 2, rng, max_terms=4,
                                        max_degree=4)
                _, value = solidity_witness(phi, s)
                assert value == s * c
                assert not value.is_zero


@pytest.fixture(scope="module")
def V():
    ctx = make_context(2)
    return EmbeddingValuation(ctx, [lacunary(ctx)])


class TestDvrReport:

    def test_verdict_chain(self, V):
        rep = dvr_report(V, samples=10)
        claims = [v["claim"] for v in rep.verdicts]
        assert claims == [
            "V is not divisorial",
            "V is not excellent",
            "V is not F-finite",
            "V is not Frobenius split",
            "Hom(F^e_* V, V) = 0 for every e >= 1",
        ]
        for v in rep.verdicts:
            assert v["by"] in THEOREMS

    def test_transcendence_is_flagged_assumption(self, V):
        rep = dvr_report(V, samples=5)
        assert len(rep.assumptions) == 1
        assert "transcendental" in rep.assumptions[0]["claim"]
        assert rep.assumptions[0]["provenance"] == "builtin stream catalog"

    def test_residue_evidence(self, V):
        rep = dvr_report(V, samples=20)
        residue_item = rep.evidence[1]
        assert residue_item["witness"]["samples"] == 20
        assert residue_item["witness"]["in_field"] == 20

    @pytest.mark.parametrize("pm, spec", [((2, 1), "lacunary"),
                                          ((5, 2), "lacunary+3*t^2")])
    def test_one_certification_per_sample(self, monkeypatch, pm, spec):
        """x is certified once and each sample f once: f / x^v(f) has
        value 0, and its residue, as residue() takes it, is f's leading
        coefficient."""
        ctx = make_context(*pm)
        V = EmbeddingValuation(ctx, [parse_stream_spec(spec, ctx)])
        calls, certify = [], EmbeddingValuation._certify

        def counting(self, f):
            calls.append(f)
            return certify(self, f)

        monkeypatch.setattr(EmbeddingValuation, "_certify", counting)
        examples = dvr_report(V, samples=5).evidence[1]["witness"]["examples"]
        assert len(calls) == 6
        for example in examples:
            fraction = parse_rational(example["element"], ctx, 2)
            assert str(V.residue(fraction)) == example["residue"]

    def test_deterministic_for_fixed_seed(self, V):
        assert dvr_report(V, samples=8, seed=3).to_dict() == \
            dvr_report(V, samples=8, seed=3).to_dict()

    def test_cross_reference_shared_by_both_reports(self, f2):
        a = lacunary(f2)
        b = parse_stream_spec("lacunary+t^3", f2)
        V_a = EmbeddingValuation(f2, [a])
        V_b = EmbeddingValuation(f2, [b])
        rep_a = dvr_report(V_a, versus=b, samples=5)
        rep_b = dvr_report(V_b, versus=a, samples=5)

        def fraction_of(rep):
            for item in rep.evidence:
                if "separated" in item["claim"]:
                    return item["witness"]["fraction"]
            raise AssertionError("no cross reference found")

        assert fraction_of(rep_a) == fraction_of(rep_b) == "x^3/(y-x-x^2)"

    def test_one_variable_is_refused(self, f2):
        # V is then the x-adic valuation of F_2(x): divisorial, excellent
        with pytest.raises(ValueError, match="at least 2 variables"):
            dvr_report(EmbeddingValuation(f2, []))

    @pytest.mark.parametrize("specs", [["t+t^2"], ["lacunary", "t"]])
    def test_image_not_assumed_transcendental_is_refused(self, f2, specs):
        # y -> t + t^2 is the image of x + x^2: the embedding is not injective
        V = EmbeddingValuation(f2, [parse_stream_spec(s, f2) for s in specs])
        with pytest.raises(ValueError, match="not assumed transcendental"):
            dvr_report(V, samples=3)

    def test_render_text_mentions_theorems(self, V):
        text = dvr_report(V, samples=5).render_text()
        assert "verdicts:" in text
        assert "[by dvr-trichotomy]" in text
