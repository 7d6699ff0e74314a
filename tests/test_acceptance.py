"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line and enforces
its runtime budget.  All comparisons are exact rational equalities or
inequalities — no tolerances anywhere.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations

from robust_ftap.cli import main, verify_certificate
from robust_ftap.halmos_savage import (
    basic_lemma_value,
    construct_dual_hs_witness,
    construct_hs_witness,
)
from robust_ftap.large_market import (
    MarketSequence,
    build_contiguous_sequence,
    certify_moduli,
    martingale_contradiction_margin,
    scan_aa1,
    scan_aa2,
)
from hs_reference import criterion_4_5_instances, random_vertex
from minimax_reference import criterion_3_instances
from robust_ftap.lp_core import minimax_value
from robust_ftap.market import (
    Market,
    check_ftap,
    check_na,
    find_dominating_martingale,
    martingale_polytope,
    superhedge,
)
from robust_ftap.measures import (
    AmbiguitySet,
    BoundedFunction,
    ProbabilityMeasure,
    SampleSpace,
    quasi_sure_support,
)

F = Fraction


def report(num, label, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(
        f"ACCEPTANCE {num} [{status}] {label} "
        f"({elapsed:.1f}s of {budget}s budget)"
    )
    assert ok, f"criterion {num} failed"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def random_market(rng):
    n = rng.randint(1, 6)
    space = SampleSpace([f"o{i}" for i in range(n)])
    d = rng.randint(0, 3)
    s0 = [F(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(d)]
    s1 = [
        [F(rng.randint(-10, 10), rng.randint(1, 10)) for _ in range(d)]
        for _ in range(n)
    ]
    vertices = [random_vertex(space, rng) for _ in range(rng.randint(1, 4))]
    return Market(space, s0, s1, AmbiguitySet(space, vertices))


def all_events(support):
    support = sorted(support)
    for size in range(len(support) + 1):
        yield from (frozenset(c) for c in combinations(support, size))


def test_criterion_1_ftap_equivalence():
    start = time.monotonic()
    rng = random.Random(20240)
    ok = True
    for _ in range(1000):
        m = random_market(rng)
        # the one-LP verdict against the per-vertex LPs, which check_ftap
        # solves only when NA fails, and against check_ftap's own verdict
        na_holds = check_na(m)[0]
        dominated = all(find_dominating_martingale(m, vp) is not None
                        for vp in m.P.vertices)
        if not na_holds == dominated == check_ftap(m)[0]:
            ok = False
            break
    report(1, "FTAP equivalence on 1000 random markets", ok, time.monotonic() - start, 60)


def test_criterion_2_superhedging_duality():
    start = time.monotonic()
    rng = random.Random(20240)  # same stream: revisit the same markets
    ok = True
    payoff_rng = random.Random(77)
    for _ in range(1000):
        m = random_market(rng)
        if not check_na(m)[0]:
            continue
        poly = martingale_polytope(m)
        for _ in range(5):
            f = BoundedFunction(
                m.space,
                [
                    F(payoff_rng.randint(-10, 10), payoff_rng.randint(1, 10))
                    for _ in range(m.space.size)
                ],
            )
            cert = superhedge(m, f)
            if cert.price != max(v.expectation(f) for v in poly.vertices):
                ok = False
            for o in m.support:
                if cert.price + m.gain(cert.H, o) < f.value_at(o):
                    ok = False
        if not ok:
            break
    report(2, "superhedging duality, exact, 5 payoffs per NA market", ok,
           time.monotonic() - start, 60)


def test_criterion_3_minimax_exchange():
    start = time.monotonic()
    ok = True
    for inst in criterion_3_instances():
        # minimax_value solves the sup-inf LP, and its exactly checked dual
        # y* attains the same value in the inf-sup order
        res = minimax_value(inst)
        B = inst.payoff
        bx = [
            sum(row[j] * res.x_star[j] for j in range(len(res.x_star)))
            for row in B
        ]
        if sum(res.y_star[i] * bx[i] for i in range(len(B))) != res.value:
            ok = False
            break
    report(3, "minimax exchange, zero gap on 500 instances", ok,
           time.monotonic() - start, 60)


def test_criterion_4_and_5_quantitative_hs():
    start = time.monotonic()
    ok4 = ok5 = True
    for kind, inst in criterion_4_5_instances():
        support = quasi_sure_support(inst.P)
        vp = inst.P.vertices[0]
        if kind == "primal":
            w = construct_hs_witness(inst, vp)
            for A in all_events(support):
                if vp(A) >= 2 * inst.epsilon:
                    if w.q_star(A) < inst.epsilon * inst.delta / 2:
                        ok4 = False
            for v in inst.P.vertices:
                if basic_lemma_value(inst, v, "primal") < inst.epsilon * inst.delta:
                    ok5 = False
        else:
            w = construct_dual_hs_witness(inst, vp)
            for A in all_events(support):
                if vp(A) < inst.epsilon * inst.delta:
                    if not w.q_star(A) < 2 * inst.epsilon:
                        ok4 = False
            for v in inst.P.vertices:
                if basic_lemma_value(inst, v, "dual") > 2 * inst.epsilon:
                    ok5 = False
    elapsed = time.monotonic() - start
    report(4, "quantitative domination witnesses, 300 primal + 300 dual",
           ok4, elapsed, 120)
    report(5, "game-value bounds (primal >= eps*delta, dual <= 2*eps)",
           ok5, elapsed, 120)


def _family(delta_down):
    space = SampleSpace(["u", "d"])
    half = ProbabilityMeasure(space, [F(1, 2), F(1, 2)])
    markets = []
    for n in range(1, 21):
        down = delta_down(n)
        markets.append(
            Market(space, [0], [[1], [down]], AmbiguitySet(space, [half]))
        )
    return MarketSequence(markets)


def test_criterion_6_large_market_positive_control():
    start = time.monotonic()
    seq = _family(lambda n: F(-1, n))
    w = scan_aa1(
        seq, alpha_grid=[F(1, 2)], c_schedule=[F(1, k) for k in range(1, 21)]
    )
    ok = w is not None and w.alpha == F(1, 2)
    if ok:
        for n, H, c_k in zip(w.indices, w.strategies, w.bounds):
            margin = martingale_contradiction_margin(seq.markets[n - 1], H, w.alpha)
            if margin != F(1, n + 1) or margin > c_k / w.alpha * (1 + 0):
                ok = False
    report(6, "positive control: first-kind witness with alpha=1/2, c_k=1/k",
           ok, time.monotonic() - start, 5)


def test_criterion_7_large_market_negative_control():
    start = time.monotonic()
    seq = _family(lambda n: F(-1))
    grid = [F(1, 10), F(1, 5), F(3, 10), F(2, 5), F(1, 2)]
    table = certify_moduli(seq, grid, "primal")
    ok = all(u == F(1, 2) for u in table.uniform_delta)
    if scan_aa1(seq, c_schedule=[F(1, k) for k in range(1, 21)]) is not None:
        ok = False
    if scan_aa2(seq) is not None:
        ok = False
    report(7, "negative control: uniformDelta=1/2, both scanners empty",
           ok, time.monotonic() - start, 5)


def test_criterion_8_contiguous_construction():
    start = time.monotonic()
    seq = _family(lambda n: F(-1))
    cs = build_contiguous_sequence(seq)
    ok = len(cs.per_market) == 20
    for n in range(1, 21):
        weights = cs.mixture_weights[n - 1]
        if sum(weights) != 1 or len(weights) != n:
            ok = False
        q_n = cs.per_market[n - 1]
        p_base = seq.markets[n - 1].P.vertices[0]
        for m_level in range(1, n + 1):
            e, d = cs.schedule[m_level - 1]
            if 2 * e > 1:
                continue
            beta = F(1, 2**m_level) * (e * d / 2)
            for A in all_events(seq.markets[n - 1].support):
                if p_base(A) >= 2 * e and q_n(A) < beta:
                    ok = False
    report(8, "contiguous mixtures: weights sum to 1, beta-bounds verified",
           ok, time.monotonic() - start, 30)


def test_criterion_9_certificate_self_verification(tmp_path):
    start = time.monotonic()
    m1 = {
        "outcomes": ["u", "d"],
        "d": 1,
        "S0": ["1"],
        "S1": [["2"], ["1/2"]],
        "ambiguity_vertices": [["1/2", "1/2"], ["1/4", "3/4"]],
    }
    pair = {
        "outcomes": ["a", "b", "c"],
        "p_vertices": [["1/2", "1/2", "0"], ["0", "1/2", "1/2"]],
        "q_vertices": [["1/3", "1/3", "1/3"], ["1/2", "1/4", "1/4"]],
    }
    seq = {
        "markets": [
            {
                "outcomes": ["u", "d"],
                "d": 1,
                "S0": ["0"],
                "S1": [["1"], ["-1"]],
                "ambiguity_vertices": [["1/2", "1/2"]],
            }
        ]
        * 6
    }
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(m1))
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps({"values": ["1", "0"]}))
    ppath = tmp_path / "pair.json"
    ppath.write_text(json.dumps(pair))
    spath = tmp_path / "seq.json"
    spath.write_text(json.dumps(seq))
    commands = [
        ["check-na", "--input", str(mpath)],
        ["martingale-polytope", "--input", str(mpath)],
        ["ftap", "--input", str(mpath)],
        ["superhedge", "--input", str(mpath), "--payoff", str(fpath)],
        ["hs-check", "--input", str(ppath), "--epsilon", "1/4", "--delta", "1/4"],
        ["hs-witness", "--input", str(ppath), "--epsilon", "1/4", "--delta", "1/4"],
        ["hs-dual-witness", "--input", str(ppath), "--epsilon", "2/5",
         "--delta", "1/5"],
        ["hs-modulus", "--input", str(ppath), "--epsilon", "1/2"],
        ["scan-aa1", "--input", str(spath)],
        ["scan-aa2", "--input", str(spath)],
        ["certify-naa1", "--input", str(spath)],
        ["certify-naa2", "--input", str(spath)],
        ["build-contiguous", "--input", str(spath)],
        ["weak-contiguity", "--input", str(spath), "--epsilon", "1/4"],
    ]
    certs = []
    ok = True
    for i, argv in enumerate(commands):
        out = tmp_path / f"cert{i}.json"
        code = main(argv + ["--output", str(out)])
        if code != 0:
            ok = False
            continue
        cert = json.loads(out.read_text())
        if verify_certificate(cert):
            ok = False  # an emitted certificate must be accepted
        certs.append(json.dumps(cert, sort_keys=True))

    rng = random.Random(6174)
    rejected = attempted = 0
    for text in certs:
        digit_positions = [i for i, ch in enumerate(text) if ch.isdigit()]
        for pos in rng.sample(digit_positions, min(6, len(digit_positions))):
            old = text[pos]
            new = str((int(old) + rng.randint(1, 9)) % 10)
            mutated = text[:pos] + new + text[pos + 1 :]
            try:
                obj = json.loads(mutated)
            except json.JSONDecodeError:
                continue  # unparseable files are rejected before verification
            attempted += 1
            if verify_certificate(obj):
                rejected += 1
            else:
                ok = False
    if attempted < 50:
        ok = False
    report(9, f"verify: all emitted accepted, {rejected}/{attempted} mutations "
           "rejected", ok, time.monotonic() - start, 60)
