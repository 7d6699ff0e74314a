"""Checked claims: the one relation table, the claims each witness carries,
and the scalar claims of the Halmos-Savage witnesses."""

from fractions import Fraction

import pytest

from hs_reference import event_claims
from robust_ftap import cli
from robust_ftap.codec import build_certificate
from robust_ftap import large_market as lm
from robust_ftap.claims import RELATIONS, Claim, claim, probability_defects
from robust_ftap.errors import CertificateError
from robust_ftap.halmos_savage import (
    NO_QUALIFYING_SET,
    HsInstance,
    HsWitness,
    construct_dual_hs_witness,
    construct_hs_witness,
    witness_claims,
)
from robust_ftap.market import (
    Market,
    check_na,
    dominating_claims,
    martingale_polytope,
    superhedge,
)
from robust_ftap.measures import (
    AmbiguitySet,
    BoundedFunction,
    ProbabilityMeasure,
    SampleSpace,
)

F = Fraction

W2 = SampleSpace(["u", "d"])
W3 = SampleSpace(["u", "m", "d"])
W5 = SampleSpace(["a", "b", "c", "d", "e"])


def pm(space, *mass):
    return ProbabilityMeasure(space, mass)


def one_asset(space, deltas, *vertices):
    return Market(space, [0], [[x] for x in deltas], AmbiguitySet(space, vertices))


def pair_instance(epsilon=F(1, 4), delta=F(1, 8)):
    P = AmbiguitySet(W5, [pm(W5, F(1, 2), F(1, 4), F(1, 8), F(1, 8), 0),
                          pm(W5, F(1, 10), F(1, 5), F(1, 5), F(1, 4), F(1, 4))])
    Q = AmbiguitySet(W5, [pm(W5, *[F(1, 5)] * 5),
                          pm(W5, F(1, 3), F(1, 3), F(1, 6), F(1, 6), 0)])
    return HsInstance(P, Q, epsilon, delta)


def shrinking_family(N=4):
    half = pm(W2, F(1, 2), F(1, 2))
    return lm.MarketSequence([one_asset(W2, [1, F(-1, n)], half) for n in range(1, N + 1)])


class TestClaim:
    def test_true_claim(self):
        assert claim("x", F(1, 2), ">=", F(1, 3)) == Claim("x", F(1, 2), ">=", F(1, 3))

    def test_sides_become_fractions(self):
        c = claim("x", 0, "=", 0)
        assert isinstance(c.lhs, Fraction) and isinstance(c.rhs, Fraction)

    def test_false_claim_raises(self):
        with pytest.raises(CertificateError, match=r"^x: 1/3 >= 1/2 is false$"):
            claim("x", F(1, 3), ">=", F(1, 2))

    def test_unknown_relation(self):
        with pytest.raises(CertificateError, match="unknown relation"):
            claim("x", 1, "!=", 2)

    def test_verify_reads_the_same_relations(self):
        assert set(RELATIONS) == {"<", "<=", "=", ">=", ">"}
        cert = build_certificate(
            "hs-check", {}, "ok", None,
            [{"description": "x", "lhs": "1", "relation": "!=", "rhs": "2"}],
        )
        assert any("unknown relation" in p for p in cli.verify_certificate(cert))

    def test_probability_defects(self):
        assert probability_defects([F(1, 2), F(1, 2)]) == []
        assert probability_defects([F(-1, 2), F(3, 2)]) == ["has a negative entry"]
        assert probability_defects([F(-1, 2), F(1, 2)]) == [
            "has a negative entry", "does not sum to 1"]


class TestMarketClaims:
    def test_support_and_increments_computed_once(self):
        m = one_asset(W3, [1, 0, F(-1, 2)], pm(W3, F(1, 2), 0, F(1, 2)))
        assert m.support == ("u", "d") == m.P.support
        assert m.delta_s("d") is m.delta_s("d")
        assert m.delta_s("d") == (F(-1, 2),)

    def test_arbitrage_witness_claims(self):
        m = one_asset(W2, [1, 0], pm(W2, F(1, 2), F(1, 2)))
        holds, w = check_na(m)
        assert not holds
        assert [(c.description, c.relation) for c in w.claims] == [
            ("gain of H at u", ">="), ("gain of H at d", ">="), ("strict gain at u", ">"),
        ]

    def test_martingale_claims(self):
        m = one_asset(W2, [1, F(-1, 2)], pm(W2, F(1, 2), F(1, 2)))
        q = pm(W2, F(1, 3), F(2, 3))
        assert m.martingale_claims(q, "q") == (
            Claim("q: expected increment of asset 0", F(0), "=", F(0)),)
        with pytest.raises(CertificateError, match="expected increment of asset 0"):
            m.martingale_claims(pm(W2, F(1, 2), F(1, 2)), "p")
        # q is the polytope's one vertex: on the support, with zero increment
        assert q.support <= set(m.support)
        assert [v.mass for v in martingale_polytope(m).vertices] == [q.mass]

    def test_dominating_claims(self):
        m = one_asset(W3, [1, 0, -1], pm(W3, 0, 1, 0), pm(W3, F(1, 2), 0, F(1, 2)))
        vp = m.P.vertices[1]
        q = pm(W3, F(1, 4), F(1, 2), F(1, 4))
        assert [c.description for c in dominating_claims(m, vp, q)] == [
            "dominating Q: expected increment of asset 0",
            "dominating Q positive at d",
            "dominating Q positive at u",
        ]
        with pytest.raises(CertificateError, match="positive at d"):
            dominating_claims(m, vp, pm(W3, 0, 1, 0))

    def test_superhedge_claims(self):
        m = one_asset(W2, [1, F(-1, 2)], pm(W2, F(1, 2), F(1, 2)))
        cert = superhedge(m, BoundedFunction(W2, [1, 0]))
        assert [c.description for c in cert.claims] == [
            "hedge dominates payoff at u",
            "hedge dominates payoff at d",
            "attaining measure reaches the price",
            "attaining measure: expected increment of asset 0",
        ]
        assert cert.claims[2] == Claim(
            "attaining measure reaches the price", F(1, 3), "=", F(1, 3))


class TestWitnessClaims:
    def test_primal_claims_are_two_scalars(self):
        inst = pair_instance()
        vp = inst.P.vertices[0]
        w = construct_hs_witness(inst, vp)
        assert w.multiplier == F(2, 3)
        assert witness_claims(inst, w) == (
            Claim("guaranteed bound at least epsilon*delta/2", F(1, 3), ">=", F(1, 64)),
            Claim("knapsack bound L(lambda) of Qstar at least the guaranteed bound",
                  F(1, 3), ">=", F(1, 3)),
        )
        # what they imply: the reference's claims on the events of
        # vp-mass >= 1/2 on the support {a,...,e}, first by size
        claims = event_claims(inst, w)
        assert claims[0].description == "Qstar mass of {a}"
        assert len(claims) == sum(
            1 for mask in range(32)
            if sum(x for i, x in enumerate(vp.mass) if mask >> i & 1) >= F(1, 2)
        )
        assert all(c.rhs == w.guaranteed_bound for c in claims)

    def test_dual_claims(self):
        inst = pair_instance()
        w = construct_dual_hs_witness(inst, inst.P.vertices[1])
        claims = witness_claims(inst, w)
        assert [c.description for c in claims] == [
            "knapsack bound U(lambda) of Qstar below 2*epsilon"]
        assert {c.relation for c in claims} == {"<"}
        assert event_claims(inst, w)[0].description == "Qstar mass of {}"

    def test_vacuous_witness_has_no_claims(self):
        inst = pair_instance(epsilon=F(3, 4))
        w = construct_hs_witness(inst, inst.P.vertices[0])
        assert w.guaranteed_bound == NO_QUALIFYING_SET and w.multiplier == 0
        assert witness_claims(inst, w) == ()

    def test_false_witness_names_its_first_failing_event(self):
        inst = pair_instance()
        w = construct_hs_witness(inst, inst.P.vertices[0])
        forged = HsWitness(w.kind, w.for_vertex_p, w.q_star, w.weights, F(9, 10),
                           w.multiplier)
        with pytest.raises(CertificateError,
                           match=r"^knapsack bound L\(lambda\) of Qstar at least the "
                                 r"guaranteed bound: 1/3 >= 9/10 is false$"):
            witness_claims(inst, forged)
        # the reference confirms it: the first event the bound misses
        with pytest.raises(CertificateError, match=r"^Qstar mass of \{a\}: 1/3 >= 9/10 is false$"):
            event_claims(inst, forged)


class TestLargeMarketClaims:
    def test_aa1_claims(self):
        seq = shrinking_family()
        w = lm.scan_aa1(seq, [F(1, 2)], [1, F(1, 2), F(1, 3), F(1, 4)])
        assert len(w.claims) == 2 * len(w.indices)
        assert w.claims[1] == Claim("slot 1 (market 1): worst-case gain", F(-1), ">=", F(-1))

    def test_moduli_claims(self):
        table = lm.certify_moduli(shrinking_family(), [F(1, 4), F(1, 2)])
        assert table.positive
        assert [c.description for c in table.claims] == [
            "uniform modulus at epsilon 1/4", "uniform modulus at epsilon 1/2"]

    def test_contiguity_claims(self):
        cs = lm.build_contiguous_sequence(shrinking_family())
        assert cs.claims[0] == Claim("market 1: mixture weights sum", F(1), "=", F(1))
        assert cs.claims[2] == Claim(
            "market 2, level 2: knapsack bound L(lambda) of the mixture",
            F(4, 9), ">=", F(1, 80))
        assert cs.multipliers[1] == (0, F(4, 9))
        _, picks, multipliers, claims = lm.weak_contiguity_certificate(
            shrinking_family(), epsilon=F(1, 2))
        assert [c.description for c in claims] == [
            f"market {n}: knapsack bound U(lambda) of Qstar below 2*epsilon"
            for n in range(1, 5)]
        assert [c.relation for c in claims] == ["<"] * 4
        assert len(multipliers) == len(picks) == 4
        _, _, multipliers, claims = lm.weak_contiguity_certificate(
            shrinking_family(), epsilon=2)
        assert claims == () and multipliers == (0,) * 4

    @pytest.mark.parametrize("build", [
        lambda seq: lm.build_contiguous_sequence(seq),
        lambda seq: lm.weak_contiguity_witness(seq, epsilon=F(1, 2)),
    ])
    def test_martingale_sets_enumerated_once(self, monkeypatch, build):
        calls = []
        original = lm.martingale_sets

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(lm, "martingale_sets", counted)
        build(shrinking_family())
        assert len(calls) == 1


def test_parser_built_once():
    assert cli._build_parser() is cli._build_parser()
