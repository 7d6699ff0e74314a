"""Seeded input generation for the benchmark workloads.

Every generator takes a ``random.Random`` and returns plain data: exact
``Fraction`` values in nested lists and dicts, with the make-up of each
pool (sizes, NA/arbitrage mix, hypothesis outcomes) fixed by position, so
that only the numbers depend on the seed.  ``market_to_cli``,
``pair_to_cli`` and ``cli_files`` turn the data into the CLI's JSON file
formats.

Run as a script to write one workload's inputs as CLI-format JSON files:

    python3 bench/gen.py --workload cli-certify --seed 1 --out inputs/
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

import reference

F = Fraction

# market-lp: one entry per market of a pass, as (n outcomes, d assets,
# P-vertices, NA?); nine NA markets to three arbitrage markets.  Five
# one-asset NA markets on 6 and 7 outcomes cost about the same, and the
# median operation falls among them: three arbitrage markets are cheaper and
# four NA markets with more assets or outcomes dearer.  A pass is kept short
# so that every market is timed many times in a run.
MARKET_LP_DESIGN = [
    (7, 1, 3, True), (6, 2, 2, True), (8, 1, 3, True), (6, 1, 2, False),
    (6, 1, 1, True), (8, 3, 2, False), (7, 1, 4, True), (6, 3, 1, True),
    (7, 2, 1, False), (6, 1, 4, True), (8, 2, 2, True), (7, 1, 1, True),
]
MARKET_LP_PAYOFFS = 3

# hs-events: support size, epsilon grid of hs_modulus, and per pair of a
# pass its (P-vertices, Q-vertices, primal holds?, dual holds?).
HS_OUTCOMES = 12
HS_EPS_GRID = (F(1, 8), F(1, 4))
HS_DESIGN = [
    (2, 3, True, True),
    (3, 2, True, True),
    (3, 3, True, False),
    (2, 2, False, False),
]


def _labels(n: int) -> list[str]:
    return [f"w{i}" for i in range(n)]


def _vertex(rng: random.Random, n: int, zero_share: float) -> list[int]:
    counts = [0 if rng.random() < zero_share else rng.randint(1, 4) for _ in range(n)]
    if not any(counts):
        counts[rng.randrange(n)] = 1
    return counts


def _vertices(rng: random.Random, n: int, k: int, zero_share: float) -> list[list[Fraction]]:
    """k probability vectors with small denominators whose supports cover
    all n outcomes."""
    counts = [_vertex(rng, n, zero_share) for _ in range(k)]
    for i in range(n):
        if not any(c[i] for c in counts):
            counts[rng.randrange(k)][i] = 1
    return [[F(c, sum(row)) for c in row] for row in counts]


def _small(rng: random.Random) -> Fraction:
    return F(rng.randint(-5, 5))


def _shuffle_outcomes(m: dict, rng: random.Random) -> dict:
    order = list(range(len(m["outcomes"])))
    rng.shuffle(order)
    m["S1"] = [m["S1"][i] for i in order]
    m["P"] = [[v[i] for i in order] for v in m["P"]]
    return m


def market(family: random.Random, rng: random.Random, n: int, d: int, nverts: int,
           na: bool) -> dict:
    """A one-period market on n outcomes that is NA or has an arbitrage by
    construction.

    The prices come from ``family``; the P-vertices and the order of the
    outcomes come from ``rng``.  NA markets get increments with zero mean
    under a full-support measure, which is then a martingale measure of
    full support.  Arbitrage markets get increments on which a drawn
    strategy H gains nothing negative anywhere and something positive
    somewhere.
    """
    while True:
        ds = [[_small(family) for _ in range(d)] for _ in range(n)]
        if na:
            # weights q_i on the first n-1 outcomes and 1 on the last
            q = [F(family.randint(1, 4)) for _ in range(n - 1)]
            for k in range(d):
                ds[n - 1][k] = -sum(q[i] * ds[i][k] for i in range(n - 1))
            if all(any(row[k] for row in ds) for k in range(d)):
                break
        else:
            H = [family.choice((-1, 0, 1)) for _ in range(d)]
            if not any(H):
                H[family.randrange(d)] = 1
            k0 = next(k for k in range(d) if H[k])
            for row in ds:
                g = sum(h * x for h, x in zip(H, row))
                if g < 0:
                    row[k0] -= g / H[k0]
            strict = family.randrange(n)
            ds[strict][k0] += F(H[k0], family.randint(1, 3))
            break
    s0 = [F(family.randint(1, 10), family.choice((1, 2))) for _ in range(d)]
    s1 = [[s0[k] + row[k] for k in range(d)] for row in ds]
    m = {"outcomes": _labels(n), "S0": s0, "S1": s1, "P": [], "na": na}
    _shuffle_outcomes(m, rng)
    m["P"] = _vertices(rng, n, nverts, 0.3)
    return m


def payoff(rng: random.Random, n: int) -> list[Fraction]:
    return [F(rng.randint(-10, 10)) for _ in range(n)]


def market_lp(rng: random.Random) -> list[dict]:
    """One pass of market-lp: markets in design order with their payoffs."""
    family = random.Random("market-lp:family")
    pool = []
    for n, d, nverts, na in MARKET_LP_DESIGN:
        m = market(family, rng, n, d, nverts, na)
        m["payoffs"] = [payoff(rng, n) for _ in range(MARKET_LP_PAYOFFS)] if na else []
        pool.append(m)
    return pool


def _pair(rng: random.Random, n: int, nP: int, nQ: int) -> tuple[list, list]:
    P = _vertices(rng, n, nP, 0.1)
    Q = []
    for _ in range(nQ):
        w = [F(rng.randint(1, 5)) for _ in P]
        total = sum(w)
        Q.append([sum(wi / total * p[i] for wi, p in zip(w, P)) for i in range(n)])
    return P, Q


def _designed_delta(P, Q, eps, want_primal, want_dual):
    """A delta in (0, 1) giving the wanted hypothesis outcomes, or None.

    The primal hypothesis holds exactly when delta <= the primal modulus
    M_p(eps); the dual one exactly when delta <= the dual modulus M_d(eps).
    """
    mp, md = reference.moduli(P, Q, eps)
    lo, hi = F(0), F(1)  # delta in (lo, hi], hi < 1 enforced below
    for want, m in ((want_primal, mp), (want_dual, md)):
        if want:
            hi = min(hi, m)
        else:
            lo = max(lo, m)
    if hi >= 1:
        hi = (lo + 1) / 2 if lo < 1 else hi
    if not (lo < hi < 1):
        return None
    return hi


def hs_pair(rng: random.Random, n: int, nP: int, nQ: int, want_primal: bool,
            want_dual: bool) -> dict:
    while True:
        P, Q = _pair(rng, n, nP, nQ)
        eps = rng.choice((F(1, 8), F(1, 6), F(1, 5), F(1, 4)))
        delta = _designed_delta(P, Q, eps, want_primal, want_dual)
        if delta is not None:
            return {
                "outcomes": _labels(n),
                "P": P,
                "Q": Q,
                "epsilon": eps,
                "delta": delta,
                "vertex_index": rng.randrange(len(P)),
                "primal_holds": want_primal,
                "dual_holds": want_dual,
            }


def hs_events(rng: random.Random) -> list[dict]:
    """One pass of hs-events: pairs in design order."""
    return [hs_pair(rng, HS_OUTCOMES, *design) for design in HS_DESIGN]


# cli-certify ---------------------------------------------------------------

# cli-certify pairs on 8 outcomes, as for HS_DESIGN; hs-modulus runs at
# each pair's epsilon and on CLI_EPS_GRID.  The quick subcommands on these
# pairs are about two thirds of a round, so that the median certificate
# falls inside their cluster of costs rather than at its edge.
CLI_PAIR_DESIGN = [(3, 2, True, True), (2, 3, True, False), (2, 2, False, False),
                   (3, 3, False, False), (2, 3, False, False), (3, 2, False, False)]
CLI_EPS_GRID = ("1/3", "2/5", "1/2", "3/5")

# per market of a sequence: (outcomes, P-vertices)
SEQ_DESIGN = [(6, 2), (6, 1), (6, 3), (6, 2)]


SEQ_ALPHA_GRID = "1/2"
SEQ_C_SCHEDULE = "1,1/2,1/3"
SEQ_EPS_GRID = "1/4,1/2"
SEQ_TARGET_LEVELS = "1/2,2/3,3/4"


def aa_market(family: random.Random, rng: random.Random, n: int, nverts: int,
              with_witness: bool) -> dict:
    """An NA market with one asset on n outcomes; prices from ``family``,
    P-vertices and outcome order from ``rng``.

    With a witness, the asset rises by a on n-1 outcomes and falls by a/3
    on the last, which a full-support martingale measure weights three
    times the rest; holding alpha/a units gains alpha on every rise and
    loses alpha/3 on the fall, and the P-vertices weigh the rises.
    Without one, every increment is at most 1/5 in size, so no position in
    [-1, 1] gains alpha = 1/2 anywhere.
    """
    s0 = F(family.randint(2, 10))
    if with_witness:
        a = F(family.randint(1, 3))
        ds = [a] * (n - 1) + [-a / 3]
        P = _vertices(rng, n - 1, nverts, 0.2)
        P = [v + [F(0)] for v in P]
        P[0] = [x * F(5, 6) for x in P[0][:-1]] + [F(1, 6)]
    else:
        ups = [F(family.randint(1, 5), 25) for _ in range(n - 1)]
        q = [F(family.randint(1, 4)) for _ in range(n - 1)]
        fall = -sum(u * w for u, w in zip(ups, q)) / F(family.randint(1, 4))
        scale = min(F(1), F(1, 5) / abs(fall))
        ds = [u * scale for u in ups] + [fall * scale]
        # full-support P-vertices keep the dual moduli positive, so that
        # weak-contiguity builds its witnesses on every seed
        P = _vertices(rng, n, nverts, 0.0)
    m = {"outcomes": _labels(n), "S0": [s0], "S1": [[s0 + x] for x in ds], "P": P, "na": True}
    return _shuffle_outcomes(m, rng)


def sequence(family: random.Random, rng: random.Random, with_witness: bool) -> list[dict]:
    """A family of NA markets on 6 outcomes, with or without a first-kind
    witness at the alpha grid and loss schedule the workload uses."""
    return [aa_market(family, rng, n, v, with_witness) for n, v in SEQ_DESIGN]


def cli_certify(rng: random.Random) -> dict:
    """One round of cli-certify inputs: two NA and two arbitrage markets
    with a payoff each, four ambiguity pairs and two market sequences."""
    family = random.Random("cli-certify:family")
    return {
        "markets": [market(family, rng, 8, 2, 3, True), market(family, rng, 8, 1, 2, True),
                    market(family, rng, 8, 2, 2, False), market(family, rng, 8, 3, 1, False)],
        "payoffs": [payoff(rng, 8) for _ in range(4)],
        "pairs": [hs_pair(rng, 8, *design) for design in CLI_PAIR_DESIGN],
        "sequences": [sequence(family, rng, True), sequence(family, rng, False)],
    }


# a fixed arbitrage market for the forged-verdict probe; it does not depend
# on the seed, so the probe fails the same way in every run
PROBE_MARKET = {
    "outcomes": ["u", "d"],
    "S0": [F(1)],
    "S1": [[F(2)], [F(1)]],
    "P": [[F(1, 2), F(1, 2)]],
    "na": False,
}


def _rs(values) -> list[str]:
    return [str(F(v)) for v in values]


def market_to_cli(m: dict) -> dict:
    return {
        "outcomes": list(m["outcomes"]),
        "d": len(m["S0"]),
        "S0": _rs(m["S0"]),
        "S1": [_rs(row) for row in m["S1"]],
        "ambiguity_vertices": [_rs(v) for v in m["P"]],
    }


def pair_to_cli(p: dict) -> dict:
    return {
        "outcomes": list(p["outcomes"]),
        "p_vertices": [_rs(v) for v in p["P"]],
        "q_vertices": [_rs(v) for v in p["Q"]],
    }


def cli_files(data: dict) -> dict[str, dict]:
    """File name -> JSON object for one cli-certify round."""
    files = {"probe-market.json": market_to_cli(PROBE_MARKET)}
    for i, m in enumerate(data["markets"]):
        files[f"market{i}.json"] = market_to_cli(m)
        files[f"payoff{i}.json"] = {"values": _rs(data["payoffs"][i])}
    for i, p in enumerate(data["pairs"]):
        files[f"pair{i}.json"] = pair_to_cli(p)
    for i, s in enumerate(data["sequences"]):
        files[f"sequence{i}.json"] = {"markets": [market_to_cli(m) for m in s]}
    return files


def generate(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    return {"market-lp": market_lp, "hs-events": hs_events, "cli-certify": cli_certify}[workload](rng)


def _dump(workload: str, data, out: str) -> None:
    os.makedirs(out, exist_ok=True)
    if workload == "cli-certify":
        files = cli_files(data)
    elif workload == "market-lp":
        files = {}
        for i, m in enumerate(data):
            files[f"market{i}.json"] = market_to_cli(m)
            for j, f in enumerate(m["payoffs"]):
                files[f"market{i}-payoff{j}.json"] = {"values": _rs(f)}
    else:
        files = {}
        for i, p in enumerate(data):
            files[f"pair{i}.json"] = dict(
                pair_to_cli(p),
                epsilon=str(p["epsilon"]),
                delta=str(p["delta"]),
                vertex_index=p["vertex_index"],
            )
    for name, obj in files.items():
        with open(os.path.join(out, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(f"wrote {len(files)} files to {out}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("market-lp", "hs-events", "cli-certify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    _dump(args.workload, generate(args.workload, args.seed), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
