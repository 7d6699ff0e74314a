"""Batch command-line front-end emitting machine-checkable certificates.

Every subcommand loads rational-valued JSON inputs, dispatches to the
library, and emits a certificate containing the verdict, an explicit
witness, and a transcript: the claims (:mod:`robust_ftap.claims`) the
library checked before it returned, with both sides as rational strings.
A separate ``verify`` subcommand re-checks a certificate without re-running
the original computation: it validates the payload digest, re-evaluates
every transcript inequality, and checks the membership constraints of the
witness vectors.

The wire format lives in :mod:`robust_ftap.codec`; this module keeps argv,
file I/O and dispatch.  It reads the files, wraps the codec's validated
fields in a ``Market`` or ``MarketSequence`` and writes the certificate.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import tempfile
from fractions import Fraction
from typing import Optional, Sequence

from .claims import RELATIONS, probability_defects
from .codec import (
    PAYLOAD_FIELDS,
    build_certificate,
    claims_to_obj,
    digest,
    format_list,
    format_rational,
    hs_pair_to_obj,
    load_hs_pair,
    load_payoff,
    market_fields,
    market_to_obj,
    parse_list,
    parse_rational,
    payoff_to_obj,
    sequence_fields,
    sequence_to_obj,
)
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
)
from .large_market import (
    DEFAULT_ALPHA_GRID,
    MarketSequence,
    build_contiguous_sequence,
    certify_moduli,
    scan_aa1,
    scan_aa2,
    weak_contiguity_certificate,
)
from .market import (
    Market,
    charging_claims,
    check_na,
    check_ftap,
    martingale_polytope,
    superhedge,
)
from .measures import DEFAULT_MAX_ENUM


def _parse_level(value, field: str, below_one: bool = False) -> Fraction:
    """A level (epsilon, delta, alpha): a rational above 0, and below 1 where
    ``below_one`` (the levels of a Halmos-Savage hypothesis).  Above 1, a
    modulus or contiguity level is vacuous but meaningful."""
    x = parse_rational(value, field)
    if x <= 0 or (below_one and x >= 1):
        interval = "(0, 1)" if below_one else "(0, infinity)"
        raise InputError(f"{field}: {format_rational(x)} is not in {interval}")
    return x


def _parse_grid(
    text: Optional[str], field: str, default=None
) -> Optional[list[Fraction]]:
    """The comma-separated levels of an option; ``default`` when the option
    is not given.  An empty entry is refused."""
    if text is None:
        return default
    items = [t.strip() for t in text.split(",")]
    if "" in items:
        raise InputError(f"{field}: empty entry in {text!r}")
    return [_parse_level(t, field) for t in items]


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
    except (ValueError, RecursionError) as exc:  # bad UTF-8, too many digits, nesting
        raise InputError(f"{path}: unreadable JSON: {exc}") from exc


def load_market(obj, where: str = "market") -> Market:
    return Market(*market_fields(obj, where))


def load_sequence(obj) -> MarketSequence:
    markets = [Market(*fields) for fields in sequence_fields(obj)]
    try:
        return MarketSequence(markets)
    except ValueError as exc:  # a market admits an arbitrage
        raise InputError(str(exc)) from exc


# ---------------------------------------------------------------------------
# certificates


def verify_certificate(cert) -> list[str]:
    """All reasons to reject the certificate; empty means accepted."""
    problems: list[str] = []
    if not isinstance(cert, dict):
        return ["certificate must be a JSON object"]
    for key in PAYLOAD_FIELDS + ("payload_sha256",):
        if key not in cert:
            problems.append(f"missing field {key!r}")
    if problems:
        return problems
    command, input_digest = cert["command"], cert["input_digest"]
    if not (isinstance(command, str) and command in _HANDLERS):
        problems.append(f"command: {command!r} is not a subcommand")
    if not (isinstance(input_digest, str) and re.fullmatch("[0-9a-f]{64}", input_digest)):
        problems.append("input_digest: expected 64 lowercase hex digits")
    if not isinstance(cert["verdict"], str):
        problems.append("verdict: expected a string")
    payload = {k: cert[k] for k in PAYLOAD_FIELDS}
    try:
        payload_digest = digest(payload)
    except (TypeError, ValueError) as exc:  # not JSON, or an int past the str limit
        return [f"payload cannot be serialized ({exc})"]
    if payload_digest != cert["payload_sha256"]:
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
            if not isinstance(e["description"], str):
                raise InputError(f"transcript[{i}].description: expected a string")
        except (InputError, KeyError, TypeError) as exc:
            problems.append(f"transcript[{i}]: malformed entry ({exc})")
            continue
        if not RELATIONS[rel](lhs, rhs):
            problems.append(
                f"transcript[{i}] fails: {e['lhs']} {rel} {e['rhs']} ({e['description']})"
            )
    witness = cert["witness"]
    if witness is not None and not isinstance(witness, dict):
        problems.append("witness: expected an object or null")
    if isinstance(witness, dict):
        for field in ("probability_vectors", "weight_vectors"):
            vectors = witness.get(field, [])
            if not isinstance(vectors, list):
                problems.append(f"witness.{field}: expected a list")
                continue
            for j, vec in enumerate(vectors):
                try:
                    values = parse_list(vec, f"witness.{field}[{j}]")
                except InputError as exc:
                    problems.append(str(exc))
                    continue
                problems += (
                    f"witness.{field}[{j}] {defect}"
                    for defect in probability_defects(values)
                )
        problems += _multiplier_defects(witness)
        problems += _index_defects(witness)
    return problems


def _index_defects(witness: dict) -> list[str]:
    """Why ``dominating_index_per_vertex`` (ftap) is not a list whose
    entries are null or an index into ``probability_vectors``."""
    if "dominating_index_per_vertex" not in witness:
        return []
    field = "witness.dominating_index_per_vertex"
    indices = witness["dominating_index_per_vertex"]
    if not isinstance(indices, list):
        return [f"{field}: expected a list"]
    vectors = witness.get("probability_vectors", [])
    n = len(vectors) if isinstance(vectors, list) else 0
    return [
        f"{field}[{i}]: {json.dumps(k)} is not null or an index below {n}"
        for i, k in enumerate(indices)
        if k is not None and not (type(k) is int and 0 <= k < n)
    ]


def _multiplier_defects(witness: dict) -> list[str]:
    """Why ``multiplier``, or an entry of ``multipliers`` (a list, of
    lists for build-contiguous), is not a rational string >= 0."""
    rows = witness.get("multipliers", [])
    if not isinstance(rows, list):
        return ["witness.multipliers: expected a list"]
    entries = [("witness.multiplier", witness[k]) for k in ("multiplier",) if k in witness]
    for i, row in enumerate(rows):
        field = f"witness.multipliers[{i}]"
        entries += ([(f"{field}[{j}]", x) for j, x in enumerate(row)]
                    if isinstance(row, list) else [(field, row)])
    problems = []
    for field, value in entries:
        try:
            if parse_rational(value, field) < 0:
                problems.append(f"{field}: {value} is negative")
        except InputError as exc:
            problems.append(str(exc))
    return problems


def _modulus_str(x: Fraction) -> str:
    return "none-qualifying" if x == NO_QUALIFYING_SET else format_rational(x)


# ---------------------------------------------------------------------------
# subcommand handlers; each returns (verdict, witness, claims, input_obj),
# and those of the enumerating subcommands also take the enumeration cap


def _cmd_check_na(args):
    m = load_market(_load_json(args.input))
    holds, w = check_na(m)
    if holds:
        return "NA holds", None, [], market_to_obj(m)
    witness = {"H": format_list(w.H), "strict_outcome": w.strict_outcome}
    return "NA fails", witness, w.claims, market_to_obj(m)


def _cmd_martingale_polytope(args, max_enum):
    m = load_market(_load_json(args.input))
    poly = martingale_polytope(m, max_enum)
    claims = [
        c for k, q in enumerate(poly.vertices)
        for c in m.martingale_claims(q, f"vertex {k}")
    ]
    witness = {"probability_vectors": [format_list(v.mass) for v in poly.vertices]}
    verdict = f"{len(poly.vertices)} martingale vertices"
    return verdict, witness, claims, market_to_obj(m)


def _cmd_ftap(args):
    m = load_market(_load_json(args.input))
    na_holds, per_vertex = check_ftap(m)
    # each distinct measure is listed, and its martingale claims made, once
    claims, index, vectors = [], {}, []
    for vp, q in per_vertex:
        if q is None:
            continue
        if q not in index:
            index[q] = len(vectors)
            vectors.append(format_list(q.mass))
            claims += m.martingale_claims(q, "dominating Q")
        claims += charging_claims(vp, q)
    dominating = [index.get(q) for _, q in per_vertex]
    verdict = (
        "NA holds; every ambiguity vertex admits a dominating martingale measure"
        if na_holds
        else "NA fails; some ambiguity vertex has no dominating martingale measure"
    )
    witness = {"probability_vectors": vectors, "dominating_index_per_vertex": dominating}
    return verdict, witness, claims, market_to_obj(m)


def _cmd_superhedge(args):
    if not args.payoff:
        raise InputError("superhedge requires --payoff <file>")
    m = load_market(_load_json(args.input))
    f = load_payoff(_load_json(args.payoff), m.space)
    input_obj = {"market": market_to_obj(m), "payoff": payoff_to_obj(f)}
    try:
        cert = superhedge(m, f)
    except NaViolated:
        return "NA fails; superhedging duality unavailable", None, [], input_obj
    witness = {
        "price": format_rational(cert.price),
        "H": format_list(cert.H),
        "probability_vectors": [format_list(cert.attaining_q.mass)],
    }
    verdict = f"superhedging price {format_rational(cert.price)}"
    return verdict, witness, cert.claims, input_obj


def _hs_instance(args):
    space, P, Q = load_hs_pair(_load_json(args.input))
    if args.epsilon is None or args.delta is None:
        raise InputError("this subcommand requires --epsilon and --delta")
    eps = _parse_level(args.epsilon, "--epsilon", below_one=True)
    delta = _parse_level(args.delta, "--delta", below_one=True)
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
        raise InputError(f"--vertex-index: {args.vertex_index} is not in 0..{count - 1}")
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
        "probability_vectors": [format_list(w.q_star.mass)],
        "weight_vectors": [format_list(w.weights)],
        "guaranteed_bound": bound,
        "for_vertex_p": format_list(vertex_p.mass),
        "multiplier": format_rational(w.multiplier),
    }
    input_obj = dict(input_obj, vertex_index=args.vertex_index)
    return verdict, witness, w.claims, input_obj


def _cmd_hs_modulus(args, max_enum):
    space, P, Q = load_hs_pair(_load_json(args.input))
    if args.epsilon is None:
        raise InputError("hs-modulus requires --epsilon")
    eps = _parse_level(args.epsilon, "--epsilon")
    value = hs_modulus(P, Q, eps, max_enum)
    input_obj = {"pair": hs_pair_to_obj(space, P, Q), "epsilon": format_rational(eps)}
    witness = {"modulus": format_rational(value)}
    return f"modulus {_modulus_str(value)}", witness, [], input_obj


def _cmd_scan(args, max_enum, kind):
    seq = load_sequence(_load_json(args.input))
    if kind == "first":
        scan, flag, text = scan_aa1, "--c-schedule", args.c_schedule
    else:
        scan, flag, text = scan_aa2, "--target-levels", args.target_levels
    levels = _parse_grid(text, flag)
    alphas = _parse_grid(args.alpha_grid, "--alpha-grid", list(DEFAULT_ALPHA_GRID))
    try:
        w = scan(seq, alphas, levels, max_enum)
    except ValueError as exc:  # the levels are positive but out of order
        raise InputError(f"{flag}: {exc}") from exc
    input_obj = sequence_to_obj(seq)
    if w is None:
        return f"no {kind}-kind witness on this family", None, [], input_obj
    witness = {
        "alpha": format_rational(w.alpha),
        "indices": list(w.indices),
        "strategies": [format_list(H) for H in w.strategies],
        "probability_vectors": [format_list(v.mass) for v in w.measures],
    }
    if kind == "first":
        witness["bounds"] = format_list(w.bounds)
    else:
        witness["attained"] = format_list(w.attained)
    verdict = f"{kind}-kind witness at alpha {format_rational(w.alpha)}"
    return verdict, witness, w.claims, input_obj


def _cmd_certify(args, max_enum, kind):
    seq = load_sequence(_load_json(args.input))
    grid = _parse_grid(args.epsilon_grid, "--epsilon-grid", list(DEFAULT_ALPHA_GRID))
    table = certify_moduli(seq, grid, kind, max_enum)
    input_obj = dict(sequence_to_obj(seq), epsilon_grid=format_list(grid), kind=kind)
    witness = {
        "epsilon_grid": format_list(table.epsilon_grid),
        "per_market": [[_modulus_str(x) for x in row] for row in table.per_market],
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
        "probability_vectors": [format_list(q.mass) for q in cs.per_market],
        "weight_vectors": [format_list(w) for w in cs.mixture_weights],
        "schedule": [
            [format_rational(e), format_rational(d)] for e, d in cs.schedule
        ],
        "multipliers": [format_list(row) for row in cs.multipliers],
    }
    verdict = f"contiguous dominating mixtures built for {len(seq)} markets"
    return verdict, witness, cs.claims, sequence_to_obj(seq)


def _cmd_weak_contiguity(args, max_enum):
    seq = load_sequence(_load_json(args.input))
    if args.epsilon is None:
        raise InputError("weak-contiguity requires --epsilon")
    eps = _parse_level(args.epsilon, "--epsilon")
    input_obj = dict(sequence_to_obj(seq), epsilon=format_rational(eps))
    try:
        delta, picks, multipliers, claims = weak_contiguity_certificate(
            seq, epsilon=eps, max_enum=max_enum
        )
    except HypothesisViolated as exc:
        return f"certificate unavailable: {exc}", None, [], input_obj
    witness = {
        "delta": format_rational(delta),
        "probability_vectors": [format_list(q.mass) for q in picks],
        "multipliers": format_list(multipliers),
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
    """Replace the regular file at ``path``, or at the target of a symlink
    there, keeping its mode; a new file gets 0o666 & ~umask.  Anything but
    a regular file is refused before a file is opened."""
    path = os.path.realpath(path)
    umask = os.umask(0o022)
    os.umask(umask)
    mode = 0o666 & ~umask
    if os.path.lexists(path):
        if not os.path.isfile(path):
            raise OSError("not a regular file")
        mode = os.stat(path).st_mode & 0o7777
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".robust-ftap-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.chmod(tmp, mode)
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
    if args.output is not None:
        try:
            _atomic_write(args.output, text)
        except OSError as exc:  # a missing directory, or not a regular file
            reason = exc.strerror or exc
            raise InputError(f"--output: cannot write {args.output}: {reason}") from exc
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

    def add(name, enumerates=True, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--input", help="input JSON file")
        p.add_argument("--output", help="write the certificate here (atomic)")
        p.add_argument("--format", choices=("json", "text"), default="json")
        if enumerates:
            p.add_argument("--max-enum", type=int, default=DEFAULT_MAX_ENUM,
                           help=f"enumeration cap (default {DEFAULT_MAX_ENUM})")
        return p

    # check-na, ftap and superhedge solve LPs only: no cap to set
    add("check-na", enumerates=False,
        help="robust no-arbitrage verdict for one market")
    add("martingale-polytope", help="vertex list of the martingale polytope")
    add("ftap", enumerates=False,
        help="both sides of the one-period FTAP equivalence")
    p = add("superhedge", enumerates=False,
            help="least superhedging price and hedge")
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
    return parser


def _resolve_max_enum(args) -> int:
    if args.max_enum < 0:
        raise InputError(f"--max-enum must be a nonnegative integer, got {args.max_enum}")
    return args.max_enum


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
        if args.output == "":
            raise InputError("--output requires a path, got an empty one")
        cap = (_resolve_max_enum(args),) if "max_enum" in vars(args) else ()
        verdict, witness, claims, input_obj = _HANDLERS[args.command](args, *cap)
        cert = build_certificate(
            args.command, input_obj, verdict, witness, claims_to_obj(claims)
        )
        _emit(cert, args)
        return 0
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 1
    except EnumerationCapExceeded as exc:
        sys.stderr.write(f"enumeration cap exceeded: {exc}\n")
        return 2
    except RobustFtapError as exc:
        sys.stderr.write(f"internal assertion failed: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
