"""The wire format: rational strings, input files and certificates as JSON.

Every number is an exact rational string (``p/q`` in lowest terms, or a
plain integer); floats are rejected on input.  The loaders check each
field of an input object and name the bad one in an ``InputError``; they
return plain validated fields, which the caller wraps.  The ``*_to_obj``
serializers write the canonical form that the loaders read back.  A
certificate is a payload (command, input digest, verdict, witness and
transcript) and the SHA-256 of its canonical JSON.

The codec imports only :mod:`measures` and :mod:`errors`, and it reads a
market or a market sequence by its fields, so inputs and certificates
parse without loading an LP engine.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction

from .errors import InputError, RobustFtapError
from .measures import AmbiguitySet, BoundedFunction, ProbabilityMeasure, SampleSpace, rational

# p, p/q or p.f: the integer part with its sign, then the denominator or
# the fractional digits
_NUMBER_RE = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*)|\.([0-9]{1,12}))?\Z")


def parse_rational(value, field: str = "value") -> Fraction:
    """Exact rational from a string ``p``, ``p/q`` or a decimal with at most
    12 fractional digits; JSON integers are accepted, floats are not."""
    if isinstance(value, bool):
        raise InputError(f"{field}: expected a rational string, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise InputError(f"{field}: floats are not accepted; use a rational string")
    if isinstance(value, str):
        match = _NUMBER_RE.match(value.strip())
        if match is None:
            raise InputError(f"{field}: {value!r} is not a valid rational string")
        whole, den, frac = match.groups()
        try:
            if den is not None:
                return Fraction(int(whole), int(den))
            if frac is not None:  # the sign of whole carries over: -0.5 is -05/10
                return Fraction(int(whole + frac), 10 ** len(frac))
            return Fraction(int(whole))
        except ValueError as exc:  # more digits than int() converts
            raise InputError(f"{field}: {exc}") from exc
    raise InputError(f"{field}: expected a rational string, got {type(value).__name__}")


def format_rational(x: Fraction) -> str:
    """Canonical rational string: lowest terms, `p/q` or a bare integer.

    Every input number is below the interpreter's int/str digit limit, but
    an exact result computed from them can pass it; such a result cannot
    be written, and the input is refused."""
    try:
        return str(rational(x))
    except ValueError as exc:
        raise InputError(f"a computed value cannot be written: {exc}") from exc


def format_list(values) -> list[str]:
    return [format_rational(v) for v in values]


def parse_list(values, field: str) -> list[Fraction]:
    if not isinstance(values, list):
        raise InputError(f"{field}: expected a list")
    return [parse_rational(v, f"{field}[{i}]") for i, v in enumerate(values)]


# ---------------------------------------------------------------------------
# input files


def _load_space(outcomes, field: str) -> SampleSpace:
    """The sample space of a list of unique, nonempty string labels."""
    if not isinstance(outcomes, list) or not all(isinstance(o, str) for o in outcomes):
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
        mass = parse_list(row, f"{field}[{i}]")
        try:
            vertices.append(ProbabilityMeasure(space, mass))
        except (ValueError, RobustFtapError) as exc:
            raise InputError(f"{field}[{i}]: {exc}") from exc
    return AmbiguitySet(space, vertices)


def market_fields(obj, where: str = "market") -> tuple:
    """(space, S0, S1, P) of a market object: S0 has d entries, S1 one row
    of d entries per outcome, and P lives on the same space."""
    if not isinstance(obj, dict):
        raise InputError(f"{where}: expected an object")
    for key in ("outcomes", "d", "S0", "S1", "ambiguity_vertices"):
        if key not in obj:
            raise InputError(f"{where}: missing field {key!r}")
    space = _load_space(obj["outcomes"], f"{where}.outcomes")
    d = obj["d"]
    if not isinstance(d, int) or isinstance(d, bool) or d < 0:
        raise InputError(f"{where}.d: expected a nonnegative integer")
    s0 = parse_list(obj["S0"], f"{where}.S0")
    if len(s0) != d:
        raise InputError(f"{where}.S0: expected {d} entries, got {len(s0)}")
    s1_rows = obj["S1"]
    if not isinstance(s1_rows, list) or len(s1_rows) != space.size:
        raise InputError(f"{where}.S1: expected {space.size} rows")
    s1 = [parse_list(row, f"{where}.S1[{i}]") for i, row in enumerate(s1_rows)]
    for i, row in enumerate(s1):
        if len(row) != d:
            raise InputError(f"{where}.S1[{i}]: expected {d} entries")
    P = _load_vertices(obj["ambiguity_vertices"], space, f"{where}.ambiguity_vertices")
    return space, s0, s1, P


def market_to_obj(m) -> dict:
    return {
        "outcomes": list(m.space.outcomes),
        "d": m.d,
        "S0": format_list(m.s0),
        "S1": [format_list(row) for row in m.s1],
        "ambiguity_vertices": [format_list(v.mass) for v in m.P.vertices],
    }


def sequence_fields(obj) -> list[tuple]:
    """The `market_fields` of each market of a sequence object."""
    if not isinstance(obj, dict) or "markets" not in obj:
        raise InputError('sequence file: expected {"markets": [...]}')
    markets_obj = obj["markets"]
    if not isinstance(markets_obj, list) or not markets_obj:
        raise InputError("sequence file: markets must be a nonempty list")
    return [market_fields(mo, f"markets[{i}]") for i, mo in enumerate(markets_obj)]


def sequence_to_obj(seq) -> dict:
    return {"markets": [market_to_obj(m) for m in seq.markets]}


def load_payoff(obj, space: SampleSpace) -> BoundedFunction:
    if not isinstance(obj, dict) or "values" not in obj:
        raise InputError('payoff file: expected {"values": [...]}')
    values = parse_list(obj["values"], "payoff.values")
    if len(values) != space.size:
        raise InputError(f"payoff.values: expected {space.size} entries, got {len(values)}")
    return BoundedFunction(space, values)


def payoff_to_obj(f: BoundedFunction) -> dict:
    return {"values": format_list(f.values)}


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
        "p_vertices": [format_list(v.mass) for v in P.vertices],
        "q_vertices": [format_list(v.mass) for v in Q.vertices],
    }


# ---------------------------------------------------------------------------
# certificates

# the fields of a certificate that its payload_sha256 digests
PAYLOAD_FIELDS = ("command", "input_digest", "verdict", "witness", "transcript")


def canonical_json(obj) -> bytes:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True)
    return text.encode("ascii")


def digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj)).hexdigest()


def claims_to_obj(claims) -> list[dict]:
    """The transcript of checked claims, both sides as rational strings."""
    return [{"description": c.description, "lhs": format_rational(c.lhs),
             "relation": c.relation, "rhs": format_rational(c.rhs)} for c in claims]


def build_certificate(command, input_obj, verdict, witness, transcript) -> dict:
    payload = {"command": command, "input_digest": digest(input_obj),
               "verdict": verdict, "witness": witness, "transcript": transcript}
    return dict(payload, payload_sha256=digest(payload))
