"""The three benchmark workloads.

A workload turns generated data into items (``setup``), runs one
operation per item (``run``), and checks an operation's result against
computations made apart from the program (``check``).  ``run`` returns the
result and a dict of timings: ``op_s``, the operation's time, and, where
it differs, ``cert_s``, the time of emitting its certificate.  Every call
into the program is timed by ``self.clock`` (see ``refclock.py``), which
the caller sets before ``setup``.  ``check`` returns True for a correct
result, False for an operation that failed as expected (a known fault),
and raises ``CheckError`` otherwise.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from fractions import Fraction
from time import perf_counter

import gen
import reference as ref
# Program functions are called through their modules, so that the traced
# run sees every call once its wrappers rebind the module attributes.
from robust_ftap import cli
from robust_ftap import halmos_savage as hs
from robust_ftap import large_market as lm
from robust_ftap import market as mk
from robust_ftap.errors import HypothesisViolated, NaViolated
from robust_ftap.halmos_savage import HsInstance
from robust_ftap.large_market import MarketSequence
from robust_ftap.market import Market
from robust_ftap.measures import AmbiguitySet, BoundedFunction, ProbabilityMeasure, SampleSpace

F = Fraction


class CheckError(Exception):
    """A result disagrees with the benchmark's own computation."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


def build_market(m: dict) -> Market:
    space = SampleSpace(m["outcomes"])
    P = AmbiguitySet(space, [ProbabilityMeasure(space, v) for v in m["P"]])
    return Market(space, m["S0"], m["S1"], P)


def build_pair(p: dict):
    space = SampleSpace(p["outcomes"])
    P = AmbiguitySet(space, [ProbabilityMeasure(space, v) for v in p["P"]])
    Q = AmbiguitySet(space, [ProbabilityMeasure(space, v) for v in p["Q"]])
    return P, Q


# market-lp ---------------------------------------------------------------------


class MarketLp:
    """check_na, check_ftap, martingale_polytope and (under NA) superhedge
    for each payoff, on one market per operation."""

    name = "market-lp"

    def setup(self, data):
        items = []
        for raw in data:
            m = build_market(raw)
            fs = [BoundedFunction(m.space, f) for f in raw["payoffs"]]
            items.append((raw, m, fs))
        return items

    def run(self, item):
        _, m, fs = item
        timed = self.clock.timed
        (na, arb), op_s = timed(mk.check_na, m)
        (_, per_vertex), s = timed(mk.check_ftap, m)
        op_s += s
        poly, s = timed(mk.martingale_polytope, m)
        op_s += s
        hedges = []
        for f in fs if na else ():
            hedge, s = timed(mk.superhedge, m, f)
            hedges.append(hedge)
            op_s += s
        return (na, arb, tuple(per_vertex), poly.vertices, tuple(hedges)), {"op_s": op_s}

    def check(self, item, result):
        raw, _, _ = item
        na, arb, per_vertex, vertices, hedges = result
        ds = ref.increments(raw["S0"], raw["S1"])
        support = set(ref.full_support(raw["P"]))
        labels = raw["outcomes"]
        expect(na == raw["na"], "NA verdict differs from the market's construction")
        if not na:
            gains = [ref.gain(arb.H, ds[i]) for i in support]
            expect(all(g >= 0 for g in gains), "arbitrage H loses on the support")
            expect(ref.gain(arb.H, ds[labels.index(arb.strict_outcome)]) > 0,
                   "arbitrage H has no strict gain")
        dominating = []
        for vp, q in per_vertex:
            if q is None:
                continue
            expect(ref.is_martingale(q.mass, ds, support), "dominating Q is not a martingale measure")
            expect(all(q.mass[i] > 0 for i, x in enumerate(vp.mass) if x > 0),
                   "dominating Q misses part of its P-vertex")
            dominating.append(q.mass)
        expect((len(dominating) == len(per_vertex)) == na, "FTAP sides disagree")
        if na:
            mix = ref.mixture(dominating, [F(1, len(dominating))] * len(dominating))
            expect(ref.is_martingale(mix, ds, support) and all(mix[i] > 0 for i in support),
                   "no full-support martingale measure under NA")
            expect(len(vertices) > 0, "empty martingale polytope under NA")
        masses = [v.mass for v in vertices]
        expect(len(set(masses)) == len(masses), "repeated martingale vertex")
        for v in masses:
            expect(ref.is_martingale(v, ds, support) and ref.is_vertex(v, ds),
                   "martingale polytope vertex is not a vertex")
        for hedge, f in zip(hedges, raw["payoffs"]):
            # weak duality: a dominating hedge costs at least E_q[f] for every
            # martingale q, so a hedge and a q meeting at the price are optimal
            for i in support:
                expect(hedge.price + ref.gain(hedge.H, ds[i]) >= f[i], "hedge does not dominate")
            q = hedge.attaining_q.mass
            expect(ref.is_martingale(q, ds, support), "attaining q is not a martingale measure")
            expect(sum(x * y for x, y in zip(q, f)) == hedge.price, "E_q[f] differs from the price")
            expect(all(sum(x * y for x, y in zip(v, f)) <= hedge.price for v in masses),
                   "a martingale vertex prices f above the superhedge")
        return True


# hs-events ---------------------------------------------------------------------


class HsEvents:
    """hs_modulus on a small epsilon grid, both hypothesis checks, and the
    primal and dual witnesses where their hypotheses hold, on one ambiguity
    pair per operation."""

    name = "hs-events"

    def setup(self, data):
        items = []
        for raw in data:
            P, Q = build_pair(raw)
            inst = HsInstance(P, Q, raw["epsilon"], raw["delta"])
            items.append((raw, P, Q, inst, P.vertices[raw["vertex_index"]]))
        return items

    def run(self, item):
        _, P, Q, inst, vp = item
        timed = self.clock.timed
        calls = [(hs.hs_modulus, P, Q, e) for e in gen.HS_EPS_GRID]
        calls += [(hs.check_hypothesis_primal, inst), (hs.check_hypothesis_dual, inst)]
        results, op_s = [], 0.0
        for fn, *args in calls:
            result, s = timed(fn, *args)
            results.append(result)
            op_s += s
        *moduli, primal, dual = results
        wp = wd = None
        if primal[0]:
            wp, s = timed(hs.construct_hs_witness, inst, vp)
            op_s += s
        if dual[0]:
            wd, s = timed(hs.construct_dual_hs_witness, inst, vp)
            op_s += s
        return (tuple(moduli), primal, dual, wp, wd), {"op_s": op_s}

    def check(self, item, result):
        raw, _, _, _, _ = item
        moduli, primal, dual, wp, wd = result
        P, Q, eps, delta = raw["P"], raw["Q"], raw["epsilon"], raw["delta"]
        labels = raw["outcomes"]
        ref_moduli = [ref.moduli(P, Q, e)[0] for e in gen.HS_EPS_GRID]
        expect(list(moduli) == ref_moduli, "hs_modulus differs from the event enumeration")
        expect(all(a <= b for a, b in zip(moduli, moduli[1:])), "modulus decreases in epsilon")

        holds, worst = ref.hypothesis_primal(P, Q, eps, delta)
        expect(primal[0] == holds == raw["primal_holds"], "primal hypothesis verdict")
        idx = [labels.index(o) for o in primal[1]]
        expect(max(sum(v[i] for i in idx) for v in P) >= eps, "primal worst event does not qualify")
        expect(max(sum(v[i] for i in idx) for v in Q) == worst, "primal worst event is not the worst")
        holds, worst = ref.hypothesis_dual(P, Q, eps, delta)
        expect(dual[0] == holds == raw["dual_holds"], "dual hypothesis verdict")
        idx = [labels.index(o) for o in dual[1]]
        expect(min(sum(v[i] for i in idx) for v in P) < delta, "dual worst event does not qualify")
        expect(min(sum(v[i] for i in idx) for v in Q) == worst, "dual worst event is not the worst")

        p = raw["P"][raw["vertex_index"]]
        support = ref.full_support(P)
        for w in (wp, wd):
            if w is None:
                continue
            expect(ref.is_probability(w.weights), "witness weights are not a probability vector")
            expect(list(w.q_star.mass) == ref.mixture(Q, w.weights), "q* is not the weighted mixture")
        if wp is not None:
            # criterion 5: the game value is at least eps*delta/2, and q*
            # attains it against the whole primal test-function set
            qs = [wp.q_star.mass[i] for i in support]
            ps = [p[i] for i in support]
            expect(wp.guaranteed_bound >= eps * delta / 2, "primal game value below eps*delta/2")
            expect(ref.cover_min(qs, ps, 2 * eps) == wp.guaranteed_bound,
                   "q* does not attain the primal game value")
            expect(ref.primal_witness_ok(p, wp.q_star.mass, support, eps, wp.guaranteed_bound),
                   "primal witness fails on an event")
        if wd is not None:
            qs = [wd.q_star.mass[i] for i in support]
            ps = [p[i] for i in support]
            expect(wd.guaranteed_bound == 2 * eps, "dual witness bound is not 2*eps")
            expect(ref.pack_max(qs, ps, eps * delta) <= (2 - eps) * eps,
                   "dual game value above (2-eps)*eps")
            expect(ref.dual_witness_ok(p, wd.q_star.mass, support, eps, delta),
                   "dual witness fails on an event")
        return True


# cli-certify -------------------------------------------------------------------


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class CliCertify:
    """Every subcommand but ``verify``, in-process with ``--output``; each
    certificate is then passed to ``verify``.  A forged-verdict probe ends
    each round."""

    name = "cli-certify"

    def __init__(self, workdir: str):
        self.workdir = workdir

    def _path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self, data):
        for name, obj in gen.cli_files(data).items():
            with open(self._path(name), "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        items = []

        def add(cmd, inp, i, *extra):
            argv = [cmd, "--input", self._path(f"{inp}{i}.json"), *extra]
            items.append({"cmd": cmd, "argv": argv, "index": i,
                          "out": self._path(f"cert{len(items)}.json")})

        for i in range(len(data["markets"])):
            add("check-na", "market", i)
            add("martingale-polytope", "market", i)
            add("ftap", "market", i)
            add("superhedge", "market", i, "--payoff", self._path(f"payoff{i}.json"))
        for i, pair in enumerate(data["pairs"]):
            level = ["--epsilon", str(pair["epsilon"]), "--delta", str(pair["delta"])]
            vertex = ["--vertex-index", str(pair["vertex_index"])]
            add("hs-check", "pair", i, *level, "--kind", "primal")
            add("hs-check", "pair", i, *level, "--kind", "dual")
            add("hs-witness", "pair", i, *level, *vertex)
            add("hs-dual-witness", "pair", i, *level, *vertex)
            for eps in (str(pair["epsilon"]),) + gen.CLI_EPS_GRID:
                add("hs-modulus", "pair", i, "--epsilon", eps)
        for i in range(len(data["sequences"])):
            seq = ("sequence", i)
            add("scan-aa1", *seq, "--alpha-grid", gen.SEQ_ALPHA_GRID,
                "--c-schedule", gen.SEQ_C_SCHEDULE)
            add("scan-aa2", *seq, "--alpha-grid", gen.SEQ_ALPHA_GRID,
                "--target-levels", gen.SEQ_TARGET_LEVELS)
            add("certify-naa1", *seq, "--epsilon-grid", gen.SEQ_EPS_GRID)
            add("certify-naa2", *seq, "--epsilon-grid", gen.SEQ_EPS_GRID)
            add("build-contiguous", *seq)
            add("weak-contiguity", *seq, "--epsilon", "1/2")
        items.append({"cmd": "probe", "out": self._path("probe-cert.json"),
                      "forged": self._path("probe-forged.json")})
        self.data = data
        return items

    def run(self, item):
        if item["cmd"] == "probe":
            return self._probe(item)
        (code, _, err), cert_s = self.clock.timed(_cli, item["argv"] + ["--output", item["out"]])
        (vcode, vout, _), verify_s = self.clock.timed(_cli, ["verify", "--certificate", item["out"]])
        with open(item["out"], encoding="utf-8") as fh:
            text = fh.read()
        result = (code, err, vcode, vout, text)
        return result, {"op_s": cert_s + verify_s, "cert_s": cert_s, "cert_bytes": len(text.encode()),
                        "transcript_entries": len(json.loads(text)["transcript"])}

    def _probe(self, item):
        """Emit an "NA fails" certificate for a fixed arbitrage market, turn
        it into "NA holds" with a recomputed digest, and ask verify."""
        start = perf_counter()
        code, _, _ = _cli(["check-na", "--input", self._path("probe-market.json"),
                           "--output", item["out"]])
        with open(item["out"], encoding="utf-8") as fh:
            cert = json.load(fh)
        genuine = cert["verdict"]
        cert.update(verdict="NA holds", witness=None, transcript=[])
        cert["payload_sha256"] = _digest({k: cert[k] for k in (
            "command", "input_digest", "verdict", "witness", "transcript")})
        with open(item["forged"], "w", encoding="utf-8") as fh:
            json.dump(cert, fh)
        vcode, vout, _ = _cli(["verify", "--certificate", item["forged"]])
        return (code, genuine, vcode), {"op_s": self.clock.scale(perf_counter() - start)}

    def check(self, item, result):
        if item["cmd"] == "probe":
            code, genuine, vcode = result
            expect(code == 0 and genuine == "NA fails", "probe market is not reported as arbitrage")
            # a verify that accepts the forged verdict is the fault this
            # probe exists to show; the operation fails while it lasts
            return vcode != 0
        code, err, vcode, vout, text = result
        expect(code == 0, f"{item['cmd']} exited {code}: {err.strip()}")
        expect(vcode == 0 and vout.startswith("certificate accepted"),
               f"verify rejected the {item['cmd']} certificate: {vout.strip()}")
        cert = json.loads(text)
        expect(cert["command"] == item["cmd"], "certificate names another command")
        want = self._library_verdict(item)
        expect(cert["verdict"] == want, f"{item['cmd']}: verdict {cert['verdict']!r}, library gives {want!r}")
        self._check_witness(item, cert)
        return True

    # the library's verdict on the same input, built from the generated data
    # without the CLI's loaders

    def _arg(self, item, flag):
        argv = item["argv"]
        return argv[argv.index(flag) + 1]

    def _library_verdict(self, item) -> str:
        cmd, i, data = item["cmd"], item["index"], self.data
        if cmd in ("check-na", "martingale-polytope", "ftap", "superhedge"):
            m = build_market(data["markets"][i])
            if cmd == "check-na":
                return "NA holds" if mk.check_na(m)[0] else "NA fails"
            if cmd == "martingale-polytope":
                return f"{len(mk.martingale_polytope(m).vertices)} martingale vertices"
            if cmd == "ftap":
                ok = all(q is not None for _, q in mk.check_ftap(m)[1])
                return ("NA holds; every ambiguity vertex admits a dominating martingale measure"
                        if ok else
                        "NA fails; some ambiguity vertex has no dominating martingale measure")
            try:
                h = mk.superhedge(m, BoundedFunction(m.space, data["payoffs"][i]))
            except NaViolated:
                return "NA fails; superhedging duality unavailable"
            return f"superhedging price {h.price}"
        if cmd.startswith("hs-"):
            raw = data["pairs"][i]
            P, Q = build_pair(raw)
            if cmd == "hs-modulus":
                value = hs.hs_modulus(P, Q, F(self._arg(item, "--epsilon")))
                return "modulus none-qualifying" if value == 2 else f"modulus {value}"
            inst = HsInstance(P, Q, raw["epsilon"], raw["delta"])
            vp = P.vertices[raw["vertex_index"]]
            if cmd == "hs-check":
                kind = self._arg(item, "--kind")
                check = hs.check_hypothesis_primal if kind == "primal" else hs.check_hypothesis_dual
                return f"{kind} hypothesis {'holds' if check(inst)[0] else 'fails'}"
            if cmd == "hs-witness":
                try:
                    w = hs.construct_hs_witness(inst, vp)
                except HypothesisViolated:
                    return "primal hypothesis fails; no witness"
                return f"witness with guaranteed bound {w.guaranteed_bound}"
            try:
                w = hs.construct_dual_hs_witness(inst, vp)
            except HypothesisViolated:
                return "dual hypothesis fails; no witness"
            return f"dual witness with strict bound {w.guaranteed_bound}"
        seq = MarketSequence([build_market(m) for m in data["sequences"][i]])
        if cmd in ("scan-aa1", "scan-aa2"):
            alphas = [F(a) for a in gen.SEQ_ALPHA_GRID.split(",")]
            if cmd == "scan-aa1":
                w = lm.scan_aa1(seq, alphas, [F(c) for c in gen.SEQ_C_SCHEDULE.split(",")])
                kind = "first"
            else:
                w = lm.scan_aa2(seq, alphas, [F(t) for t in gen.SEQ_TARGET_LEVELS.split(",")])
                kind = "second"
            if w is None:
                return f"no {kind}-kind witness on this family"
            return f"{kind}-kind witness at alpha {w.alpha}"
        if cmd in ("certify-naa1", "certify-naa2"):
            kind = "primal" if cmd == "certify-naa1" else "dual"
            grid = [F(e) for e in gen.SEQ_EPS_GRID.split(",")]
            table = lm.certify_moduli(seq, grid, kind)
            label = "first" if kind == "primal" else "second"
            if all(u > 0 for u in table.uniform_delta):
                return (f"uniform positive moduli: finite-horizon certificate of no "
                        f"{label}-kind asymptotic arbitrage")
            return "no uniform positive modulus on this grid"
        if cmd == "build-contiguous":
            try:
                lm.build_contiguous_sequence(seq)
            except HypothesisViolated as exc:
                return f"construction unavailable: {exc}"
            return f"contiguous dominating mixtures built for {len(seq)} markets"
        try:
            delta, _ = lm.weak_contiguity_witness(seq, epsilon=F(1, 2))
        except HypothesisViolated as exc:
            return f"certificate unavailable: {exc}"
        return f"finite-horizon weak-contiguity certificate: delta {delta} at epsilon 1/2"

    def _check_witness(self, item, cert) -> None:
        """Independent re-derivations of the witnesses that carry one."""
        cmd, w = item["cmd"], cert["witness"]
        if cmd == "check-na" and cert["verdict"] == "NA fails":
            raw = self.data["markets"][item["index"]]
            ds = ref.increments(raw["S0"], raw["S1"])
            H = [F(h) for h in w["H"]]
            expect(all(ref.gain(H, row) >= 0 for row in ds), "certified H loses somewhere")
            expect(ref.gain(H, ds[raw["outcomes"].index(w["strict_outcome"])]) > 0,
                   "certified H has no strict gain")
        elif cmd == "hs-modulus":
            raw = self.data["pairs"][item["index"]]
            value = ref.moduli(raw["P"], raw["Q"], F(self._arg(item, "--epsilon")))[0]
            expect(F(w["modulus"]) == value, "certified modulus differs from the event enumeration")
        elif cmd == "scan-aa1" and w is not None:
            seq = self.data["sequences"][item["index"]]
            alpha = F(w["alpha"])
            for n, H, c, p in zip(w["indices"], w["strategies"], w["bounds"], w["probability_vectors"]):
                raw = seq[n - 1]
                gains = [ref.gain([F(h) for h in H], row) for row in ref.increments(raw["S0"], raw["S1"])]
                expect(min(gains) >= -F(c), "first-kind strategy loses more than its bound")
                expect(sum(F(x) for x, g in zip(p, gains) if g >= alpha) >= alpha,
                       "first-kind high-gain event is too light")


WORKLOADS = {"market-lp": MarketLp, "hs-events": HsEvents, "cli-certify": CliCertify}
