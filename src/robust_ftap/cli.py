"""Batch command-line front-end emitting machine-checkable certificates.

Every subcommand loads rational-valued JSON inputs, dispatches to the
library, and emits a certificate containing the verdict, an explicit
witness, and a transcript: the claims (:mod:`robust_ftap.claims`) the
library checked before it returned, with both sides as rational strings.
A separate ``verify`` subcommand re-checks a certificate without re-running
the original computation: it validates the payload digest, re-evaluates
every transcript inequality, and checks the membership constraints of the
witness vectors.

All numbers are serialized as exact rational strings (``p/q`` in lowest
terms, or a plain integer); floats are rejected on input.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import re
import sys
import tempfile
from fractions import Fraction
from typing import Optional, Sequence

from .claims import RELATIONS, Claim, probability_defects
from .errors import (
    EnumerationCapExceeded,
    HypothesisViolated,
    InputError,
    NaViolated,
    RobustFtapError,
)
from .halmos_savage import (
    NO_QUALIFYING_SET,
    HsInstance,
    check_hypothesis_dual,
    check_hypothesis_primal,
    construct_dual_hs_witness,
    construct_hs_witness,
    hs_modulus,
    witness_claims,
)
from .large_market import (
    DEFAULT_ALPHA_GRID,
    MarketSequence,
    build_contiguous_sequence,
    certify_moduli,
    scan_aa1,
    scan_aa2,
    weak_contiguity_claims,
    weak_contiguity_witness,
)
from .market import (
    Market,
    check_na,
    check_ftap,
    dominating_claims,
    martingale_polytope,
    superhedge,
)
from .measures import (
    DEFAULT_MAX_ENUM,
    AmbiguitySet,
    BoundedFunction,
    ProbabilityMeasure,
    SampleSpace,
)

ENV_MAX_ENUM = "ROBUST_FTAP_MAX_ENUM"

_RATIONAL_RE = re.compile(r"-?[0-9]+(/[1-9][0-9]*)?\Z")
_DECIMAL_RE = re.compile(r"-?[0-9]+\.[0-9]{1,12}\Z")


# ---------------------------------------------------------------------------
# rational (de)serialization


def parse_rational(value, field: str = "value") -> Fraction:
    """Exact rational from a string ``p``, ``p/q`` or a decimal with at most
    12 fractional digits; JSON integers are accepted, floats are not."""
    if isinstance(value, bool):
        raise InputError(f"{field}: expected a rational string, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise InputError(
            f"{field}: floats are not accepted; use a rational string"
        )
    if isinstance(value, str):
        text = value.strip()
        if _RATIONAL_RE.match(text):
            return Fraction(text)
        if _DECIMAL_RE.match(text):
            whole, frac = text.split(".")
            sign = -1 if whole.startswith("-") else 1
            num = abs(int(whole)) * 10 ** len(frac) + int(frac)
            return Fraction(sign * num, 10 ** len(frac))
        raise InputError(f"{field}: {value!r} is not a valid rational string")
    raise InputError(f"{field}: expected a rational string, got {type(value).__name__}")


def format_rational(x: Fraction) -> str:
    """Canonical rational string: lowest terms, `p/q` or a bare integer."""
    return str(Fraction(x))


def _rs(values) -> list[str]:
    return [format_rational(v) for v in values]


def _parse_list(values, field: str) -> list[Fraction]:
    if not isinstance(values, list):
        raise InputError(f"{field}: expected a list")
    return [parse_rational(v, f"{field}[{i}]") for i, v in enumerate(values)]


def _parse_grid(
    text: Optional[str], field: str, default=None
) -> Optional[list[Fraction]]:
    """The comma-separated grid of an option; ``default`` when it is not given."""
    if not text:
        return default
    items = [t for t in text.split(",") if t.strip()]
    if not items:
        raise InputError(f"{field}: empty grid")
    return [parse_rational(t.strip(), field) for t in items]


# ---------------------------------------------------------------------------
# input files


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc


def _load_space(outcomes, field: str) -> SampleSpace:
    """The sample space of a list of unique, nonempty string labels."""
    if not isinstance(outcomes, list) or not all(
        isinstance(o, str) for o in outcomes
    ):
        raise InputError(f"{field}: expected a list of strings")
    try:
        return SampleSpace(outcomes)
    except ValueError as exc:
        raise InputError(f"{field}: {exc}") from exc


def _load_vertices(rows, space: SampleSpace, field: str) -> AmbiguitySet:
    """The ambiguity set of a nonempty list of probability vectors."""
    if not isinstance(rows, list) or not rows:
        raise InputError(f"{field}: expected a nonempty list")
    vertices = []
    for i, row in enumerate(rows):
        mass = _parse_list(row, f"{field}[{i}]")
        try:
            vertices.append(ProbabilityMeasure(space, mass))
        except (ValueError, RobustFtapError) as exc:
            raise InputError(f"{field}[{i}]: {exc}") from exc
    return AmbiguitySet(space, vertices)


def load_market(obj, where: str = "market") -> Market:
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected an object")
    for key in ("outcomes", "d", "S0", "S1", "ambiguity_vertices"):
        if key not in obj:
            raise InputError(f"{where}: missing field {key!r}")
    space = _load_space(obj["outcomes"], f"{where}.outcomes")
    d = obj["d"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 0:
        raise InputError(f"{where}.d: expected a nonnegative integer")
    s0 = _parse_list(obj["S0"], f"{where}.S0")
    if len(s0) != d:
        raise InputError(f"{where}.S0: expected {d} entries, got {len(s0)}")
    s1_rows = obj["S1"]
    if not isinstance(s1_rows, list) or len(s1_rows) != space.size:
        raise InputError(f"{where}.S1: expected {space.size} rows")
    s1 = [_parse_list(row, f"{where}.S1[{i}]") for i, row in enumerate(s1_rows)]
    for i, row in enumerate(s1):
        if len(row) != d:
            raise InputError(f"{where}.S1[{i}]: expected {d} entries")
    P = _load_vertices(
        obj["ambiguity_vertices"], space, f"{where}.ambiguity_vertices"
    )
    try:
        return Market(space, s0, s1, P)
    except (ValueError, RobustFtapError) as exc:
        raise InputError(f"{where}: {exc}") from exc


def market_to_obj(m: Market) -> dict:
    return {
        "outcomes": list(m.space.outcomes),
        "d": m.d,
        "S0": _rs(m.s0),
        "S1": [_rs(row) for row in m.s1],
        "ambiguity_vertices": [_rs(v.mass) for v in m.P.vertices],
    }


def load_sequence(obj) -> MarketSequence:
    if not isinstance(obj, dict) or "markets" not in obj:
        raise InputError('sequence file: expected {"markets": [...]}')
    markets_obj = obj["markets"]
    if not isinstance(markets_obj, list) or not markets_obj:
        raise InputError("sequence file: markets must be a nonempty list")
    markets = [
        load_market(mo, f"markets[{i}]") for i, mo in enumerate(markets_obj)
    ]
    try:
        return MarketSequence(markets)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def sequence_to_obj(seq: MarketSequence) -> dict:
    return {"markets": [market_to_obj(m) for m in seq.markets]}


def load_payoff(obj, space: SampleSpace) -> BoundedFunction:
    if not isinstance(obj, dict) or "values" not in obj:
        raise InputError('payoff file: expected {"values": [...]}')
    values = _parse_list(obj["values"], "payoff.values")
    if len(values) != space.size:
        raise InputError(
            f"payoff.values: expected {space.size} entries, got {len(values)}"
        )
    return BoundedFunction(space, values)


def load_hs_pair(obj) -> tuple[SampleSpace, AmbiguitySet, AmbiguitySet]:
    if not isinstance(obj, dict):
        raise InputError("pair file: expected an object")
    for key in ("outcomes", "p_vertices", "q_vertices"):
        if key not in obj:
            raise InputError(f"pair file: missing field {key!r}")
    space = _load_space(obj["outcomes"], "pair.outcomes")
    P = _load_vertices(obj["p_vertices"], space, "pair.p_vertices")
    return space, P, _load_vertices(obj["q_vertices"], space, "pair.q_vertices")


def hs_pair_to_obj(space, P: AmbiguitySet, Q: AmbiguitySet) -> dict:
    return {
        "outcomes": list(space.outcomes),
        "p_vertices": [_rs(v.mass) for v in P.vertices],
        "q_vertices": [_rs(v.mass) for v in Q.vertices],
    }


# ---------------------------------------------------------------------------
# certificates


def canonical_json(obj) -> bytes:
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


def _digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj)).hexdigest()


def build_certificate(command, input_obj, verdict, witness, transcript) -> dict:
    payload = {
        "command": command,
        "input_digest": _digest(input_obj),
        "verdict": verdict,
        "witness": witness,
        "transcript": transcript,
    }
    cert = dict(payload)
    cert["payload_sha256"] = _digest(payload)
    return cert


def verify_certificate(cert) -> list[str]:
    """All reasons to reject the certificate; empty means accepted."""
    problems: list[str] = []
    if not isinstance(cert, dict):
        return ["certificate must be a JSON object"]
    for key in ("command", "input_digest", "verdict", "witness", "transcript",
                "payload_sha256"):
        if key not in cert:
            problems.append(f"missing field {key!r}")
    if problems:
        return problems
    payload = {k: cert[k] for k in
               ("command", "input_digest", "verdict", "witness", "transcript")}
    if _digest(payload) != cert["payload_sha256"]:
        problems.append("payload digest mismatch")
    transcript = cert["transcript"]
    if not isinstance(transcript, list):
        return problems + ["transcript must be a list"]
    for i, e in enumerate(transcript):
        try:
            lhs = parse_rational(e["lhs"], f"transcript[{i}].lhs")
            rhs = parse_rational(e["rhs"], f"transcript[{i}].rhs")
            rel = e["relation"]
            if rel not in RELATIONS:
                raise InputError(f"transcript[{i}]: unknown relation {rel!r}")
        except (InputError, KeyError, TypeError) as exc:
            problems.append(f"transcript[{i}]: malformed entry ({exc})")
            continue
        if not RELATIONS[rel](lhs, rhs):
            problems.append(
                f"transcript[{i}] fails: {e['lhs']} {rel} {e['rhs']}"
                f" ({e.get('description', '')})"
            )
    witness = cert["witness"]
    if isinstance(witness, dict):
        for field in ("probability_vectors", "weight_vectors"):
            for j, vec in enumerate(witness.get(field, []) or []):
                try:
                    values = _parse_list(vec, f"witness.{field}[{j}]")
                except InputError as exc:
                    problems.append(str(exc))
                    continue
                problems += (
                    f"witness.{field}[{j}] {defect}"
                    for defect in probability_defects(values)
                )
    return problems


# ---------------------------------------------------------------------------
# shared serialization helpers


def _transcript(claims: Sequence[Claim]) -> list[dict]:
    return [
        {
            "description": c.description,
            "lhs": format_rational(c.lhs),
            "relation": c.relation,
            "rhs": format_rational(c.rhs),
        }
        for c in claims
    ]


def _modulus_str(x: Fraction) -> str:
    return "none-qualifying" if x == NO_QUALIFYING_SET else format_rational(x)


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (verdict, witness, claims, input_obj)


def _cmd_check_na(args, max_enum):
    m = load_market(_load_json(args.input))
    holds, w = check_na(m)
    if holds:
        return "NA holds", None, [], market_to_obj(m)
    witness = {"H": _rs(w.H), "strict_outcome": w.strict_outcome}
    return "NA fails", witness, w.claims, market_to_obj(m)


def _cmd_martingale_polytope(args, max_enum):
    m = load_market(_load_json(args.input))
    poly = martingale_polytope(m, max_enum)
    claims = [
        c for k, q in enumerate(poly.vertices)
        for c in m.martingale_claims(q, f"vertex {k}")
    ]
    witness = {"probability_vectors": [_rs(v.mass) for v in poly.vertices]}
    verdict = f"{len(poly.vertices)} martingale vertices"
    return verdict, witness, claims, market_to_obj(m)


def _cmd_ftap(args, max_enum):
    m = load_market(_load_json(args.input))
    na_holds, per_vertex = check_ftap(m)
    claims, dominating, vectors = [], [], []
    for vp, q in per_vertex:
        if q is None:
            dominating.append(None)
            continue
        dominating.append(len(vectors))
        vectors.append(_rs(q.mass))
        claims += dominating_claims(m, vp, q)
    verdict = (
        "NA holds; every ambiguity vertex admits a dominating martingale measure"
        if na_holds
        else "NA fails; some ambiguity vertex has no dominating martingale measure"
    )
    witness = {
        "probability_vectors": vectors,
        "dominating_index_per_vertex": dominating,
    }
    return verdict, witness, claims, market_to_obj(m)


def _cmd_superhedge(args, max_enum):
    if not args.payoff:
        raise InputError("superhedge requires --payoff <file>")
    m = load_market(_load_json(args.input))
    f = load_payoff(_load_json(args.payoff), m.space)
    input_obj = {"market": market_to_obj(m),
                 "payoff": {"values": _rs(f.values)}}
    try:
        cert = superhedge(m, f, max_enum)
    except NaViolated:
        return ("NA fails; superhedging duality unavailable", None, [],
                input_obj)
    witness = {
        "price": format_rational(cert.price),
        "H": _rs(cert.H),
        "probability_vectors": [_rs(cert.attaining_q.mass)],
    }
    verdict = f"superhedging price {format_rational(cert.price)}"
    return verdict, witness, cert.claims, input_obj


def _hs_instance(args):
    space, P, Q = load_hs_pair(_load_json(args.input))
    if args.epsilon is None or args.delta is None:
        raise InputError("this subcommand requires --epsilon and --delta")
    eps = parse_rational(args.epsilon, "--epsilon")
    delta = parse_rational(args.delta, "--delta")
    try:
        inst = HsInstance(P, Q, eps, delta)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    input_obj = {
        "pair": hs_pair_to_obj(space, P, Q),
        "epsilon": format_rational(eps),
        "delta": format_rational(delta),
    }
    return inst, input_obj


def _cmd_hs_check(args, max_enum):
    inst, input_obj = _hs_instance(args)
    if args.kind == "primal":
        holds, worst = check_hypothesis_primal(inst, max_enum)
    else:
        holds, worst = check_hypothesis_dual(inst, max_enum)
    verdict = f"{args.kind} hypothesis {'holds' if holds else 'fails'}"
    witness = {"worst_event": sorted(worst)}
    input_obj = dict(input_obj, kind=args.kind)
    return verdict, witness, [], input_obj


def _vertex_p(inst, args):
    """The P-vertex named by --vertex-index, which must be in range."""
    count = len(inst.P.vertices)
    if not 0 <= args.vertex_index < count:
        raise InputError(
            f"--vertex-index: {args.vertex_index} is not in 0..{count - 1}"
        )
    return inst.P.vertices[args.vertex_index]


def _cmd_hs_witness(args, max_enum, kind):
    inst, input_obj = _hs_instance(args)
    vertex_p = _vertex_p(inst, args)
    construct = construct_hs_witness if kind == "primal" else construct_dual_hs_witness
    try:
        w = construct(inst, vertex_p, max_enum)
    except HypothesisViolated:
        return f"{kind} hypothesis fails; no witness", None, [], input_obj
    bound = format_rational(w.guaranteed_bound)
    if kind == "dual":
        verdict = f"dual witness with strict bound {bound}"
    elif w.guaranteed_bound == NO_QUALIFYING_SET:
        verdict = "no event reaches mass 2*epsilon; conclusion vacuous"
    else:
        verdict = f"witness with guaranteed bound {bound}"
    witness = {
        "probability_vectors": [_rs(w.q_star.mass)],
        "weight_vectors": [_rs(w.weights)],
        "guaranteed_bound": bound,
        "for_vertex_p": _rs(vertex_p.mass),
    }
    input_obj = dict(input_obj, vertex_index=args.vertex_index)
    return verdict, witness, witness_claims(inst, w, max_enum), input_obj


def _cmd_hs_modulus(args, max_enum):
    space, P, Q = load_hs_pair(_load_json(args.input))
    if args.epsilon is None:
        raise InputError("hs-modulus requires --epsilon")
    eps = parse_rational(args.epsilon, "--epsilon")
    value = hs_modulus(P, Q, eps, max_enum)
    input_obj = {
        "pair": hs_pair_to_obj(space, P, Q),
        "epsilon": format_rational(eps),
    }
    witness = {"modulus": format_rational(value)}
    return f"modulus {_modulus_str(value)}", witness, [], input_obj


def _cmd_scan(args, max_enum, kind):
    seq = load_sequence(_load_json(args.input))
    if kind == "first":
        scan, levels = scan_aa1, _parse_grid(args.c_schedule, "--c-schedule")
    else:
        scan, levels = scan_aa2, _parse_grid(args.target_levels, "--target-levels")
    alphas = _parse_grid(args.alpha_grid, "--alpha-grid", list(DEFAULT_ALPHA_GRID))
    try:
        w = scan(seq, alphas, levels, max_enum)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    input_obj = sequence_to_obj(seq)
    if w is None:
        return f"no {kind}-kind witness on this family", None, [], input_obj
    witness = {
        "alpha": format_rational(w.alpha),
        "indices": list(w.indices),
        "strategies": [_rs(H) for H in w.strategies],
        "probability_vectors": [_rs(v.mass) for v in w.measures],
    }
    if kind == "first":
        witness["bounds"] = _rs(w.bounds)
    else:
        witness["attained"] = _rs(w.attained)
    verdict = f"{kind}-kind witness at alpha {format_rational(w.alpha)}"
    return verdict, witness, w.claims, input_obj


def _cmd_certify(args, max_enum, kind):
    seq = load_sequence(_load_json(args.input))
    grid = _parse_grid(args.epsilon_grid, "--epsilon-grid", list(DEFAULT_ALPHA_GRID))
    table = certify_moduli(seq, grid, kind, max_enum)
    input_obj = dict(sequence_to_obj(seq), epsilon_grid=_rs(grid), kind=kind)
    witness = {
        "epsilon_grid": _rs(table.epsilon_grid),
        "per_market": [
            [_modulus_str(x) for x in row] for row in table.per_market
        ],
        "uniform_delta": [_modulus_str(x) for x in table.uniform_delta],
    }
    label = "first" if kind == "primal" else "second"
    verdict = (
        f"uniform positive moduli: finite-horizon certificate of no "
        f"{label}-kind asymptotic arbitrage"
        if table.positive
        else "no uniform positive modulus on this grid"
    )
    return verdict, witness, table.claims, input_obj


def _cmd_build_contiguous(args, max_enum):
    seq = load_sequence(_load_json(args.input))
    try:
        cs = build_contiguous_sequence(seq, max_enum=max_enum)
    except HypothesisViolated as exc:
        return f"construction unavailable: {exc}", None, [], sequence_to_obj(seq)
    witness = {
        "probability_vectors": [_rs(q.mass) for q in cs.per_market],
        "weight_vectors": [_rs(w) for w in cs.mixture_weights],
        "schedule": [
            [format_rational(e), format_rational(d)] for e, d in cs.schedule
        ],
    }
    verdict = f"contiguous dominating mixtures built for {len(seq)} markets"
    return verdict, witness, cs.claims, sequence_to_obj(seq)


def _cmd_weak_contiguity(args, max_enum):
    seq = load_sequence(_load_json(args.input))
    if args.epsilon is None:
        raise InputError("weak-contiguity requires --epsilon")
    eps = parse_rational(args.epsilon, "--epsilon")
    input_obj = dict(sequence_to_obj(seq), epsilon=format_rational(eps))
    try:
        delta, picks = weak_contiguity_witness(
            seq, epsilon=eps, max_enum=max_enum
        )
    except HypothesisViolated as exc:
        return f"certificate unavailable: {exc}", None, [], input_obj
    claims = weak_contiguity_claims(seq, delta, picks, eps, max_enum=max_enum)
    witness = {
        "delta": format_rational(delta),
        "probability_vectors": [_rs(q.mass) for q in picks],
    }
    verdict = (
        f"finite-horizon weak-contiguity certificate: delta "
        f"{format_rational(delta)} at epsilon {format_rational(eps)}"
    )
    return verdict, witness, claims, input_obj


_HANDLERS = {
    "check-na": _cmd_check_na,
    "martingale-polytope": _cmd_martingale_polytope,
    "ftap": _cmd_ftap,
    "superhedge": _cmd_superhedge,
    "hs-check": _cmd_hs_check,
    "hs-witness": lambda a, c: _cmd_hs_witness(a, c, "primal"),
    "hs-dual-witness": lambda a, c: _cmd_hs_witness(a, c, "dual"),
    "hs-modulus": _cmd_hs_modulus,
    "scan-aa1": lambda a, c: _cmd_scan(a, c, "first"),
    "scan-aa2": lambda a, c: _cmd_scan(a, c, "second"),
    "certify-naa1": lambda a, c: _cmd_certify(a, c, "primal"),
    "certify-naa2": lambda a, c: _cmd_certify(a, c, "dual"),
    "build-contiguous": _cmd_build_contiguous,
    "weak-contiguity": _cmd_weak_contiguity,
}


# ---------------------------------------------------------------------------
# output


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".robust-ftap-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(cert: dict, args) -> None:
    if args.format == "json":
        text = json.dumps(cert, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"command: {cert['command']}", f"verdict: {cert['verdict']}"]
        if cert["witness"] is not None:
            lines += ["witness:", "  " + json.dumps(cert["witness"], sort_keys=True)]
        lines.append(f"transcript: {len(cert['transcript'])} checked inequalities")
        lines += (
            f"  {e['description']}: {e['lhs']} {e['relation']} {e['rhs']}"
            for e in cert["transcript"]
        )
        lines.append(f"payload_sha256: {cert['payload_sha256']}")
        text = "\n".join(lines) + "\n"
    if args.output:
        _atomic_write(args.output, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# argument parsing and dispatch


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robust-ftap",
        description=(
            "Exact-rational no-arbitrage, superhedging and contiguity "
            "certificates for finite robust markets."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--input", help="input JSON file")
        p.add_argument("--output", help="write the certificate here (atomic)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--max-enum", type=int, default=None,
                       help="enumeration cap (default 20; env "
                            f"{ENV_MAX_ENUM} overrides)")
        return p

    add("check-na", help="robust no-arbitrage verdict for one market")
    add("martingale-polytope", help="vertex list of the martingale polytope")
    add("ftap", help="both sides of the one-period FTAP equivalence")
    p = add("superhedge", help="least superhedging price and hedge")
    p.add_argument("--payoff", help="payoff JSON file")

    for name in ("hs-check", "hs-witness", "hs-dual-witness"):
        p = add(name)
        p.add_argument("--epsilon")
        p.add_argument("--delta")
        if name == "hs-check":
            p.add_argument("--kind", choices=("primal", "dual"),
                           default="primal")
        else:
            p.add_argument("--vertex-index", type=int, default=0)
    p = add("hs-modulus", help="worst-case best Q-mass at level epsilon")
    p.add_argument("--epsilon")

    p = add("scan-aa1", help="search for a first-kind asymptotic arbitrage")
    p.add_argument("--alpha-grid")
    p.add_argument("--c-schedule")
    p = add("scan-aa2", help="search for a second-kind asymptotic arbitrage")
    p.add_argument("--alpha-grid")
    p.add_argument("--target-levels")
    p = add("certify-naa1", help="uniform primal moduli over the family")
    p.add_argument("--epsilon-grid")
    p = add("certify-naa2", help="uniform dual moduli over the family")
    p.add_argument("--epsilon-grid")
    add("build-contiguous",
        help="dominating martingale mixtures on the 1/m level schedule")
    p = add("weak-contiguity", help="per-epsilon weak-contiguity certificate")
    p.add_argument("--epsilon")

    p = sub.add_parser("verify", help="re-check an emitted certificate")
    p.add_argument("--certificate", required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--output")
    return parser


def _resolve_max_enum(args) -> int:
    if getattr(args, "max_enum", None) is not None:
        cap, source = args.max_enum, "--max-enum"
    else:
        env = os.environ.get(ENV_MAX_ENUM)
        if not env:
            return DEFAULT_MAX_ENUM
        try:
            cap, source = int(env), ENV_MAX_ENUM
        except ValueError:
            raise InputError(f"{ENV_MAX_ENUM} must be an integer, got {env!r}")
    if cap < 0:
        raise InputError(f"{source} must be a nonnegative integer, got {cap}")
    return cap


def _run_verify(args) -> int:
    cert = _load_json(args.certificate)
    problems = verify_certificate(cert)
    if not problems:
        sys.stdout.write("certificate accepted\n")
        return 0
    sys.stdout.write("certificate REJECTED\n")
    for p in problems:
        sys.stdout.write(f"  {p}\n")
    return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _run_verify(args)
        if not args.input:
            raise InputError(f"{args.command} requires --input <file>")
        max_enum = _resolve_max_enum(args)
        verdict, witness, claims, input_obj = _HANDLERS[args.command](args, max_enum)
        cert = build_certificate(
            args.command, input_obj, verdict, witness, _transcript(claims)
        )
        _emit(cert, args)
        return 0
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 1
    except EnumerationCapExceeded as exc:
        sys.stderr.write(f"enumeration cap exceeded: {exc}\n")
        return 2
    except (AssertionError, RobustFtapError) as exc:
        sys.stderr.write(f"internal assertion failed: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
