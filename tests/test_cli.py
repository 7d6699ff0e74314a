"""Command-line front-end: parsing, canonical round-trips, exit codes,
and certificate self-verification."""

import ast
import hashlib
import json
import os
import random
from fractions import Fraction

import pytest

from hs_reference import mixture_pair_instance, with_primal_delta
from robust_ftap import cli, halmos_savage, large_market
from robust_ftap.cli import load_market, load_sequence, main, verify_certificate
from robust_ftap.codec import (
    PAYLOAD_FIELDS,
    build_certificate,
    canonical_json,
    digest,
    format_rational,
    hs_pair_to_obj,
    load_hs_pair,
    load_payoff,
    market_to_obj,
    parse_rational,
    payoff_to_obj,
    sequence_to_obj,
)
from robust_ftap.errors import InputError
from robust_ftap.halmos_savage import HsInstance, construct_dual_hs_witness, witness_claims

F = Fraction

M1 = {
    "outcomes": ["u", "d"],
    "d": 1,
    "S0": ["1"],
    "S1": [["2"], ["1/2"]],
    "ambiguity_vertices": [["1/2", "1/2"]],
}

SEQUENCE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "golden", "inputs", "sequence_flat.json"
)

PAIR = {
    "outcomes": ["a", "b"],
    "p_vertices": [["1", "0"], ["0", "1"]],
    "q_vertices": [["1/3", "2/3"]],
}


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_json(tmp_path, args):
    """Run a subcommand writing its certificate to a file; return it parsed."""
    out = tmp_path / "cert.json"
    code = main(args + ["--output", str(out)])
    return code, json.loads(out.read_text())


class TestRationalStrings:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("3", F(3)),
            ("-7", F(-7)),
            ("1/3", F(1, 3)),
            ("-22/7", F(-22, 7)),
            ("0.5", F(1, 2)),
            ("-1.25", F(-5, 4)),
            ("0.333333333333", F(333333333333, 10**12)),
        ],
    )
    def test_accepted(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize(
        "bad", ["1/0", "1/-3", "1/02", "", "a", "1.2345678901234", "1e3", 1.5]
    )
    def test_rejected(self, bad):
        with pytest.raises(InputError):
            parse_rational(bad)

    def test_canonical_form(self):
        assert format_rational(F(2, 4)) == "1/2"
        assert format_rational(F(4, 2)) == "2"
        assert format_rational(F(-1, 3)) == "-1/3"


def golden_input(name):
    with open(os.path.join(os.path.dirname(SEQUENCE), name), encoding="utf-8") as fh:
        return json.load(fh)


class TestRoundTrip:
    def test_market_file_idempotent(self):
        # each loader reads back what its emitter wrote, byte for byte
        space = load_market(golden_input("market_two_assets.json")).space
        cases = [
            ("market", M1, load_market, market_to_obj),
            ("pair.json", golden_input("pair.json"), load_hs_pair,
             lambda loaded: hs_pair_to_obj(*loaded)),
            ("payoff_two_assets.json", golden_input("payoff_two_assets.json"),
             lambda obj: load_payoff(obj, space), payoff_to_obj),
            ("sequence_flat.json", golden_input("sequence_flat.json"), load_sequence,
             sequence_to_obj),
        ]
        for name, obj, load, emit in cases:
            emitted = emit(load(obj))
            assert canonical_json(emitted) == canonical_json(emit(load(emitted))), name

    def test_non_canonical_input_normalized(self):
        obj = dict(M1, S0=["2/2"], S1=[["4/2"], ["2/4"]])
        assert market_to_obj(load_market(obj)) == market_to_obj(load_market(M1))

    def test_field_errors_are_named(self):
        with pytest.raises(InputError, match="S1"):
            load_market(dict(M1, S1=[["2"]]))
        with pytest.raises(InputError, match="ambiguity_vertices"):
            load_market(dict(M1, ambiguity_vertices=[["1/2", "1/3"]]))


class TestSubcommands:
    def test_check_na(self, tmp_path, capsys):
        path = write(tmp_path, "m1.json", M1)
        code, cert = run_json(tmp_path, ["check-na", "--input", path])
        assert code == 0
        assert cert["verdict"] == "NA holds"

    def test_superhedge_digital(self, tmp_path):
        mpath = write(tmp_path, "m1.json", M1)
        fpath = write(tmp_path, "f.json", {"values": ["1", "0"]})
        code, cert = run_json(
            tmp_path, ["superhedge", "--input", mpath, "--payoff", fpath]
        )
        assert code == 0
        assert cert["witness"]["price"] == "1/3"
        assert cert["witness"]["H"] == ["2/3"]

    def test_hs_modulus(self, tmp_path):
        path = write(tmp_path, "pair.json", PAIR)
        code, cert = run_json(
            tmp_path, ["hs-modulus", "--input", path, "--epsilon", "1/2"]
        )
        assert code == 0
        assert cert["witness"]["modulus"] == "1/3"

    def test_ftap_and_polytope(self, tmp_path):
        path = write(tmp_path, "m1.json", M1)
        code, cert = run_json(tmp_path, ["martingale-polytope", "--input", path])
        assert code == 0
        assert cert["witness"]["probability_vectors"] == [["1/3", "2/3"]]
        code, cert = run_json(tmp_path, ["ftap", "--input", path])
        assert code == 0
        assert cert["verdict"].startswith("NA holds")

    def test_input_error_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "bad.json", {"outcomes": ["u"]})
        assert main(["check-na", "--input", path]) == 1
        assert main(["check-na", "--input", str(tmp_path / "missing.json")]) == 1

    def test_cap_exceeded_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "m1.json", M1)
        assert main(
            ["martingale-polytope", "--input", path, "--max-enum", "1"]
        ) == 2

    def test_cap_message_reports_refused_events(self, tmp_path, capsys):
        path = write(tmp_path, "pair.json", PAIR)
        args = ["hs-modulus", "--input", path, "--epsilon", "1/2", "--max-enum", "1"]
        assert main(args) == 2
        assert capsys.readouterr().err == (
            "enumeration cap exceeded: enumeration over 2 outcomes exceeds "
            "cap 1 (4 events refused)\n"
        )

    @pytest.mark.parametrize(
        "outcomes", [[1, 2], ["a", None], "ab", ["a", ["b"]], ["a", "a"], ["a", ""]]
    )
    def test_pair_outcomes_must_be_strings(self, tmp_path, capsys, outcomes):
        path = write(tmp_path, "pair.json", dict(PAIR, outcomes=outcomes))
        assert main(["hs-modulus", "--input", path, "--epsilon", "1/2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: pair.outcomes: ")
        assert "Traceback" not in err

    def test_cap_has_one_setting(self, tmp_path, monkeypatch):
        # --max-enum is the only setting of the cap: no environment variable
        # lowers its default of 20 below the 2 outcomes of M1
        path = write(tmp_path, "m1.json", M1)
        monkeypatch.setenv("ROBUST_FTAP_MAX_ENUM", "1")
        assert main(["martingale-polytope", "--input", path]) == 0

    @pytest.mark.parametrize("command", ["hs-witness", "hs-dual-witness"])
    def test_vertex_index_out_of_range(self, tmp_path, capsys, command):
        path = write(tmp_path, "pair.json", PAIR)
        argv = [command, "--input", path, "--epsilon", "1/4", "--delta", "1/4"]
        assert main(argv + ["--vertex-index", "7"]) == 1
        err = capsys.readouterr().err
        assert "--vertex-index" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["hs-witness", "hs-dual-witness"])
    def test_negative_vertex_index(self, tmp_path, capsys, command):
        path = write(tmp_path, "pair.json", PAIR)
        argv = [command, "--input", path, "--epsilon", "1/4", "--delta", "1/4"]
        assert main(argv + ["--vertex-index", "-1"]) == 1
        assert "--vertex-index" in capsys.readouterr().err

    def test_negative_max_enum(self, tmp_path, capsys):
        path = write(tmp_path, "m1.json", M1)
        assert main(
            ["martingale-polytope", "--input", path, "--max-enum", "-1"]
        ) == 1
        assert "--max-enum" in capsys.readouterr().err

    def test_cap_message_reports_refused_bases(self, tmp_path, capsys):
        m3 = dict(M1, outcomes=["u", "m", "d"], S1=[["2"], ["1"], ["0"]],
                  ambiguity_vertices=[["1/3", "1/3", "1/3"]])
        path = write(tmp_path, "m3.json", m3)
        assert main(["martingale-polytope", "--input", path, "--max-enum", "2"]) == 2
        assert capsys.readouterr().err == (
            "enumeration cap exceeded: enumeration over 3 outcomes exceeds "
            "cap 2 (3 bases refused)\n"
        )

    def test_superhedge_has_no_enumeration_cap(self, tmp_path):
        # 24 outcomes, increments -11..12: above the default cap of 20.  The
        # call payoff is convex, so the martingale measure on the two extreme
        # increments attains its price: 12 * 11/23
        n = 24
        big = {
            "outcomes": [f"o{k}" for k in range(n)],
            "d": 1,
            "S0": ["0"],
            "S1": [[str(k - 11)] for k in range(n)],
            "ambiguity_vertices": [[f"1/{n}"] * n],
        }
        path = write(tmp_path, "m24.json", big)
        fpath = write(tmp_path, "f24.json",
                      {"values": [str(max(k - 11, 0)) for k in range(n)]})
        code, cert = run_json(
            tmp_path, ["superhedge", "--input", path, "--payoff", fpath]
        )
        assert code == 0
        assert cert["verdict"] == "superhedging price 132/23"
        q = cert["witness"]["probability_vectors"][0]
        assert (q[0], q[-1]) == ("12/23", "11/23") and set(q[1:-1]) == {"0"}
        assert verify_certificate(cert) == []

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["hs-modulus", "--epsilon", "-1"], "--epsilon"),
            (["hs-modulus", "--epsilon", "0"], "--epsilon"),
            (["certify-naa1", "--epsilon-grid", "0"], "--epsilon-grid"),
            (["certify-naa2", "--epsilon-grid", "1/4,-1/2"], "--epsilon-grid"),
            (["weak-contiguity", "--epsilon", "-1"], "--epsilon"),
            (["hs-witness", "--epsilon", "1", "--delta", "1/4"], "--epsilon"),
            (["hs-check", "--epsilon", "1/4", "--delta", "0"], "--delta"),
            (["scan-aa1", "--alpha-grid", "0"], "--alpha-grid"),
            (["scan-aa1", "--alpha-grid", "-1"], "--alpha-grid"),
            (["scan-aa2", "--alpha-grid", "1/2,0"], "--alpha-grid"),
            (["scan-aa2", "--target-levels", "0"], "--target-levels"),
            (["scan-aa2", "--target-levels", "-1"], "--target-levels"),
            (["scan-aa1", "--c-schedule", "0"], "--c-schedule"),
            # an empty entry is refused, not dropped
            (["certify-naa1", "--epsilon-grid", "1/4,,1/2"], "--epsilon-grid"),
            (["scan-aa1", "--alpha-grid", "1/2,"], "--alpha-grid"),
            (["scan-aa1", "--alpha-grid", ""], "--alpha-grid"),
            (["scan-aa1", "--alpha-grid", ","], "--alpha-grid"),
            (["scan-aa1", "--c-schedule", ",1/2"], "--c-schedule"),
            (["scan-aa2", "--target-levels", " "], "--target-levels"),
        ],
    )
    def test_levels_share_one_rule(self, tmp_path, capsys, argv, flag):
        inp = write(tmp_path, "p.json", PAIR) if argv[0].startswith("hs-") else SEQUENCE
        assert main(argv + ["--input", inp]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {flag}: ")
        assert "is not in (0, " in err or "empty entry in " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv,flag,rule",
        [
            (["scan-aa1", "--c-schedule", "1,1"], "--c-schedule", "decreasing"),
            (["scan-aa2", "--target-levels", "1/2,1/4"], "--target-levels",
             "nondecreasing"),
        ],
    )
    def test_scan_schedule_order_names_the_option(self, capsys, argv, flag, rule):
        assert main(argv + ["--input", SEQUENCE]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {flag}: ") and err.rstrip().endswith(rule)
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["check-na", "ftap", "superhedge"])
    def test_max_enum_only_where_it_acts(self, tmp_path, capsys, command):
        # these subcommands enumerate nothing, so they have no cap to set
        path = write(tmp_path, "m1.json", M1)
        assert main([command, "--input", path, "--max-enum", "1"]) == 1
        err = capsys.readouterr().err
        assert err == "input error: unrecognized arguments: --max-enum 1\n"

    @pytest.mark.parametrize("argv", [["--help"], ["check-na", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: robust-ftap")

    @pytest.mark.parametrize(
        "argv,inputs,message",
        [
            # argparse's usage errors: exit 2 is the enumeration cap's alone
            (["hs-witness", "--input", "pair.json", "--epsilon", "1/4", "--delta",
              "1/4", "--vertex-index", "abc"], {},
             "argument --vertex-index: invalid int value: 'abc'"),
            (["check-na", "--input", "m1.json", "--bogus"], {},
             "unrecognized arguments: --bogus"),
            (["hs-check", "--input", "pair.json", "--kind", "both"], {},
             "argument --kind: invalid choice: 'both'"),
            (["martingale-polytope", "--input", "m1.json", "--max-enum", "x"], {},
             "argument --max-enum: invalid int value: 'x'"),
            (["verify"], {}, "the following arguments are required: --certificate"),
            (["no-such-command"], {},
             "argument command: invalid choice: 'no-such-command'"),
            ([], {}, "the following arguments are required: command"),
            # the handlers' and loaders' own refusals
            (["check-na"], {}, "check-na requires --input <file>"),
            (["superhedge", "--input", "m1.json"], {}, "superhedge requires --payoff <file>"),
            (["hs-check", "--input", "pair.json", "--epsilon", "1/4"], {},
             "this subcommand requires --epsilon and --delta"),
            (["hs-witness", "--input", "pair.json", "--delta", "1/4"], {},
             "this subcommand requires --epsilon and --delta"),
            (["hs-dual-witness", "--input", "pair.json"], {},
             "this subcommand requires --epsilon and --delta"),
            (["hs-modulus", "--input", "pair.json"], {}, "hs-modulus requires --epsilon"),
            (["weak-contiguity", "--input", "seq.json"], {},
             "weak-contiguity requires --epsilon"),
            (["hs-check", "--input", "undominated.json", "--epsilon", "1/4",
              "--delta", "1/4"],
             {"undominated.json": dict(PAIR, p_vertices=[["1", "0"]])},
             "pair.q_vertices: every Q-vertex must be dominated by the P ambiguity set"),
            (["check-na", "--input", "s0.json"], {"s0.json": dict(M1, d=2)},
             "market.S0: expected 2 entries, got 1"),
            (["certify-naa1", "--input", "empty.json"], {"empty.json": {"markets": []}},
             "sequence file: markets must be a nonempty list"),
            (["superhedge", "--input", "m1.json", "--payoff", "f1.json"],
             {"f1.json": {"values": ["1"]}}, "payoff.values: expected 2 entries, got 1"),
            (["hs-modulus", "--input", "noq.json", "--epsilon", "1/2"],
             {"noq.json": {"outcomes": ["a", "b"], "p_vertices": [["1", "0"]]}},
             "pair file: missing field 'q_vertices'"),
        ],
    )
    def test_input_errors_name_the_flag_or_field(self, tmp_path, capsys, argv, inputs,
                                                 message):
        files = {"pair.json": PAIR, "m1.json": M1, "seq.json": {"markets": [M1]}}
        for name, obj in dict(files, **inputs).items():
            write(tmp_path, name, obj)
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        assert main(argv) == 1
        err = capsys.readouterr().err
        # an invalid choice lists the choices after the message
        assert err.startswith(f"input error: {message}") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_a_zero_dual_modulus_on_an_na_market(self, tmp_path):
        # NA holds on the support {w0, w2, w3}, whose martingale vertices
        # are (1, 0, 0, 0) and (0, 0, 1/3, 2/3).  Each charges {w0, w2}
        # with mass >= 1/4, and the P-vertex (0, 0, 0, 1) charges it with
        # 0, so the dual modulus at 1/4 is 0.  Every primal modulus stays
        # positive, so build-contiguous builds.
        market = {
            "outcomes": ["w0", "w1", "w2", "w3"], "d": 1, "S0": ["0"],
            "S1": [["0"], ["2"], ["-2"], ["1"]],
            "ambiguity_vertices": [["0", "0", "0", "1"], ["1/2", "0", "1/2", "0"]],
        }
        path = write(tmp_path, "seq.json", {"markets": [market]})
        for argv, verdict in [
            (["weak-contiguity", "--epsilon", "1/2"],
             "certificate unavailable: uniform dual modulus at level 1/4 is not positive"),
            (["certify-naa2", "--epsilon-grid", "1/4"],
             "no uniform positive modulus on this grid"),
            (["build-contiguous"], "contiguous dominating mixtures built for 1 markets"),
        ]:
            code, cert = run_json(tmp_path, argv + ["--input", path])
            assert (code, cert["verdict"]) == (0, verdict)
            assert verify_certificate(cert) == []

    def test_negative_verdict_is_exit_zero(self, tmp_path):
        arb = dict(M1, S1=[["2"], ["1"]])  # increments (1, 0): arbitrage
        path = write(tmp_path, "arb.json", arb)
        code, cert = run_json(tmp_path, ["check-na", "--input", path])
        assert code == 0
        assert cert["verdict"] == "NA fails"
        assert cert["witness"]["strict_outcome"] == "u"

    def test_weak_contiguity_transcript_is_the_picks_claims(self, tmp_path):
        # each market's claim is its pick's own dual-witness claim, at the
        # multiplier the certificate carries: no event is scanned for it
        path = os.path.join(os.path.dirname(SEQUENCE), "sequence_shrinking.json")
        code, cert = run_json(
            tmp_path, ["weak-contiguity", "--input", path, "--epsilon", "1/2"]
        )
        assert code == 0
        with open(path, encoding="utf-8") as fh:
            seq = load_sequence(json.load(fh))
        half = F(1, 4)
        d_eff = F(cert["witness"]["delta"]) / half
        q_sets = large_market.martingale_sets(seq)
        expected = []
        for n, (m, q_set) in enumerate(zip(seq.markets, q_sets), start=1):
            inst = HsInstance(m.P, q_set, half, d_eff)
            w = construct_dual_hs_witness(inst, m.P.vertices[0])
            assert cert["witness"]["probability_vectors"][n - 1] == [
                format_rational(x) for x in w.q_star.mass]
            assert cert["witness"]["multipliers"][n - 1] == format_rational(w.multiplier)
            expected += [
                {"description": f"market {n}: {c.description}",
                 "lhs": format_rational(c.lhs), "relation": c.relation,
                 "rhs": format_rational(c.rhs)}
                for c in witness_claims(inst, w)
            ]
        assert cert["transcript"] == expected and len(expected) == len(seq)

    def test_hs_witness_transcript_lists_no_events(self, tmp_path):
        # 12 outcomes, 4096 events: the witness states its guarantee in
        # at most 3 claims, at its multiplier
        inst = with_primal_delta(mixture_pair_instance(random.Random(12)))
        path = write(tmp_path, "pair12.json", hs_pair_to_obj(inst.P.space, inst.P, inst.Q))
        levels = ["--epsilon", format_rational(inst.epsilon),
                  "--delta", format_rational(inst.delta)]
        code, cert = run_json(tmp_path, ["hs-witness", "--input", path, *levels])
        assert code == 0 and cert["verdict"].startswith("witness with guaranteed bound")
        assert 1 <= len(cert["transcript"]) <= 3
        assert F(cert["witness"]["multiplier"]) >= 0
        assert verify_certificate(cert) == []

    @pytest.mark.parametrize("command", ["hs-witness", "hs-dual-witness"])
    def test_hs_witness_checks_its_claims_once(self, tmp_path, monkeypatch, command):
        # the transcript is the claims the constructor checked, carried by
        # the witness, so one run evaluates one knapsack bound
        kinds = []
        bound = halmos_savage.knapsack_bound

        def counting(inst, kind, *args):
            kinds.append(kind)
            return bound(inst, kind, *args)

        monkeypatch.setattr(halmos_savage, "knapsack_bound", counting)
        path = os.path.join(os.path.dirname(SEQUENCE), "pair.json")
        code, cert = run_json(
            tmp_path, [command, "--input", path, "--epsilon", "1/4", "--delta", "1/8"]
        )
        assert code == 0 and cert["transcript"]
        assert kinds == ["primal" if command == "hs-witness" else "dual"]

    @pytest.mark.parametrize("target", ["missing/c.json", "taken", "fifo"])
    def test_unwritable_output(self, tmp_path, capsys, target):
        # a directory that does not exist, an existing directory as the file,
        # and a FIFO, which is refused before it is opened (opening it blocks)
        path = write(tmp_path, "m1.json", M1)
        (tmp_path / "taken").mkdir()
        os.mkfifo(tmp_path / "fifo")
        out = tmp_path / target
        assert main(["check-na", "--input", path, "--output", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: --output: cannot write {out}: ")
        assert "Traceback" not in err
        assert not list(tmp_path.rglob(".robust-ftap-*"))

    def test_empty_output_is_refused(self, tmp_path, capsys):
        # an empty path names no file: refused, not taken for stdout
        path = write(tmp_path, "m1.json", M1)
        assert main(["check-na", "--input", path, "--output", ""]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "input error: --output requires a path, got an empty one\n"

    def test_output_through_symlink(self, tmp_path):
        # the link stays a link; its target is replaced, keeping its mode
        path = write(tmp_path, "m1.json", M1)
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("old")
        target.chmod(0o640)
        link.symlink_to(target)
        assert main(["check-na", "--input", path, "--output", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert json.loads(target.read_text())["verdict"] == "NA holds"
        assert target.stat().st_mode & 0o777 == 0o640
        assert not list(tmp_path.rglob(".robust-ftap-*"))

    def test_new_output_file_follows_umask(self, tmp_path):
        path = write(tmp_path, "m1.json", M1)
        out = tmp_path / "cert.json"
        old = os.umask(0o027)
        try:
            assert main(["check-na", "--input", path, "--output", str(out)]) == 0
        finally:
            os.umask(old)
        assert out.stat().st_mode & 0o777 == 0o640

    def test_arbitrage_in_sequence_is_named_in_rationals(self, tmp_path, capsys):
        arb = dict(M1, S1=[["2"], ["3/2"]])
        path = write(tmp_path, "seq.json", {"markets": [M1, arb]})
        assert main(["build-contiguous", "--input", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: market 2 admits an arbitrage (H = [")
        assert "Fraction(" not in err and "Traceback" not in err

    def test_text_format(self, tmp_path, capsys):
        path = write(tmp_path, "m1.json", M1)
        assert main(["check-na", "--input", path, "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "verdict: NA holds" in out


class TestUnreadableInput:
    """A number past the 4300-digit limit of int/str conversion is an input
    error naming its field or file, or a malformed transcript entry; so is
    a file that is not UTF-8 or nests too deeply for the JSON decoder."""

    DIGITS = "1" * 5000

    def test_long_rational_string(self, tmp_path, capsys):
        path = write(tmp_path, "m.json", dict(M1, S0=[self.DIGITS]))
        assert main(["check-na", "--input", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error: market.S0[0]: ")
        assert "Traceback" not in err

    def test_long_json_integer(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(M1).replace('"S0": ["1"]', f'"S0": [{self.DIGITS}]'))
        assert main(["check-na", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {path}: unreadable JSON: ")
        assert "Traceback" not in err

    def test_certificate_object_that_is_not_json(self):
        # no JSON file can carry these past the loader, but a dict can
        cert = build_certificate("check-na", {}, "NA fails", None, [])
        cert["transcript"] = [
            {"description": "d", "lhs": 10**5000, "relation": ">=", "rhs": "0"}
        ]
        assert verify_certificate(cert)[0].startswith("payload cannot be serialized (")
        cert["transcript"], cert["witness"] = [], {"H": {1, 2}}
        assert verify_certificate(cert)[0].startswith("payload cannot be serialized (")

    @pytest.mark.parametrize(
        "content", [b"\xff\xfe{}", b"[" * 100000], ids=["not-utf8", "deep"]
    )
    def test_undecodable_file(self, tmp_path, capsys, content):
        path = tmp_path / "m.json"
        path.write_bytes(content)
        assert main(["check-na", "--input", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {path}: unreadable JSON: ")
        assert "Traceback" not in err

    def test_long_transcript_entry(self, tmp_path, capsys):
        arb = write(tmp_path, "arb.json", dict(M1, S1=[["2"], ["1"]]))
        code, cert = run_json(tmp_path, ["check-na", "--input", arb])
        assert code == 0 and cert["transcript"]
        cert["transcript"][0]["lhs"] = self.DIGITS
        assert main(["verify", "--certificate", write(tmp_path, "c.json", cert)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("certificate REJECTED\n")
        assert "transcript[0]: malformed entry (transcript[0].lhs: " in out

    def test_computed_value_past_the_limit(self, tmp_path, capsys):
        # every input number is below the limit, but the martingale measure
        # and the superhedging price computed from them are not
        market = {
            "outcomes": ["a", "b", "c"],
            "d": 1,
            "S0": ["1/" + "7" * 2500],
            "S1": [["3"], ["1/" + "3" * 2400], ["0"]],
            "ambiguity_vertices": [["1/3", "1/3", "1/3"]],
        }
        path = write(tmp_path, "m.json", market)
        payoff = write(tmp_path, "f.json", {"values": ["1/" + "9" * 2500, "0", "0"]})
        for argv in (["ftap", "--input", path],
                     ["superhedge", "--input", path, "--payoff", payoff]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(
                "input error: a computed value cannot be written: Exceeds the limit"
            )
            assert "Traceback" not in captured.err
        assert main(["check-na", "--input", path]) == 0


class TestVerify:
    def cert_for(self, tmp_path, name="m1.json"):
        path = write(tmp_path, name, M1)
        fpath = write(tmp_path, "f.json", {"values": ["1", "0"]})
        _, cert = run_json(
            tmp_path, ["superhedge", "--input", path, "--payoff", fpath]
        )
        return cert

    def test_accepts_emitted(self, tmp_path, capsys):
        cert = self.cert_for(tmp_path)
        assert verify_certificate(cert) == []
        cpath = write(tmp_path, "cert_copy.json", cert)
        assert main(["verify", "--certificate", cpath]) == 0
        assert "accepted" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", [["--output", "v.out"], ["--format", "json"]])
    def test_refuses_output_and_format(self, tmp_path, capsys, flag):
        cpath = write(tmp_path, "cert_copy.json", self.cert_for(tmp_path))
        assert main(["verify", "--certificate", cpath] + flag) == 1
        assert capsys.readouterr().err.startswith("input error: unrecognized arguments")

    def test_rejects_tampered_verdict(self, tmp_path, capsys):
        cert = self.cert_for(tmp_path)
        cert["verdict"] = "superhedging price 1/2"
        assert verify_certificate(cert)
        cpath = write(tmp_path, "cert_bad.json", cert)
        assert main(["verify", "--certificate", cpath]) == 1

    def test_rejects_flipped_digits(self, tmp_path):
        cert = self.cert_for(tmp_path)
        text = json.dumps(cert, sort_keys=True)
        digit_positions = [i for i, ch in enumerate(text) if ch.isdigit()]
        rng = random.Random(101)
        for pos in rng.sample(digit_positions, 25):
            old = text[pos]
            new = str((int(old) + rng.randint(1, 9)) % 10)
            mutated = text[:pos] + new + text[pos + 1 :]
            try:
                obj = json.loads(mutated)
            except json.JSONDecodeError:
                continue  # not valid JSON at all: rejected upstream
            assert verify_certificate(obj), f"mutation at {pos} accepted"

    def test_rejects_witness_vectors_that_are_not_a_list(self, tmp_path, capsys):
        cert = build_certificate("hs-witness", {}, "ok", {"probability_vectors": 5}, [])
        assert verify_certificate(cert) == [
            "witness.probability_vectors: expected a list"
        ]
        cpath = write(tmp_path, "cert_bad.json", cert)
        assert main(["verify", "--certificate", cpath]) == 1
        out = capsys.readouterr().out
        assert "witness.probability_vectors: expected a list" in out

    @pytest.mark.parametrize("witness,problem", [
        ("garbage", "witness: expected an object or null"),
        ([1, 2], "witness: expected an object or null"),
        (5, "witness: expected an object or null"),
        ({"probability_vectors": 0}, "witness.probability_vectors: expected a list"),
        ({"probability_vectors": ""}, "witness.probability_vectors: expected a list"),
        ({"weight_vectors": False}, "witness.weight_vectors: expected a list"),
        ({"weight_vectors": {}}, "witness.weight_vectors: expected a list"),
    ], ids=["str", "list", "int", "vectors-0", "vectors-empty-str",
            "weights-false", "weights-empty-object"])
    def test_rejects_malformed_witness(self, tmp_path, capsys, witness, problem):
        # a re-signed hs-witness certificate whose witness, or one of its
        # vector lists, has the wrong type: rejected, naming the field
        path = os.path.join(os.path.dirname(SEQUENCE), "..", "expected", "hs-witness.out")
        with open(path, encoding="utf-8") as fh:
            cert = json.load(fh)
        if isinstance(witness, dict):
            witness = dict(cert["witness"], **witness)
        cert["witness"] = witness
        cert["payload_sha256"] = digest({k: cert[k] for k in PAYLOAD_FIELDS})
        assert verify_certificate(cert) == [problem]
        assert main(["verify", "--certificate", write(tmp_path, "c.json", cert)]) == 1
        assert problem in capsys.readouterr().out

    @pytest.mark.parametrize("indices,problems", [
        ([99, -1], ["witness.dominating_index_per_vertex[0]: 99 is not null or an index below 1",
                    "witness.dominating_index_per_vertex[1]: -1 is not null or an index below 1"]),
        ("x", ["witness.dominating_index_per_vertex: expected a list"]),
        ([True, 0.5], ["witness.dominating_index_per_vertex[0]: true is not null or an index below 1",
                       "witness.dominating_index_per_vertex[1]: 0.5 is not null or an index below 1"]),
    ], ids=["out-of-range", "str", "bool-and-float"])
    def test_rejects_bad_dominating_index(self, tmp_path, capsys, indices, problems):
        # a re-signed ftap certificate whose vertices point at no listed
        # dominating measure: rejected, naming the field
        path = os.path.join(os.path.dirname(SEQUENCE), "..", "expected", "ftap-holds.out")
        with open(path, encoding="utf-8") as fh:
            cert = json.load(fh)
        assert verify_certificate(cert) == []
        cert["witness"]["dominating_index_per_vertex"] = indices
        cert["payload_sha256"] = digest({k: cert[k] for k in PAYLOAD_FIELDS})
        assert verify_certificate(cert) == problems
        assert main(["verify", "--certificate", write(tmp_path, "c.json", cert)]) == 1
        assert problems[0] in capsys.readouterr().out

    @pytest.mark.parametrize("field,value,problem", [
        ("command", 5, "command: 5 is not a subcommand"),
        ("command", "no-such-command",
         "command: 'no-such-command' is not a subcommand"),
        ("input_digest", 5, "input_digest: expected 64 lowercase hex digits"),
        ("input_digest", "zz", "input_digest: expected 64 lowercase hex digits"),
        ("verdict", None, "verdict: expected a string"),
        ("verdict", {"x": 1}, "verdict: expected a string"),
        ("description", 5, "transcript[0]: malformed entry "
         "(transcript[0].description: expected a string)"),
    ], ids=["command-int", "command-unknown", "digest-int", "digest-short",
            "verdict-null", "verdict-object", "description-int"])
    def test_rejects_malformed_payload_field(self, tmp_path, capsys, field, value, problem):
        # a re-signed build-contiguous certificate with one payload field,
        # or the description of its first transcript entry, of the wrong
        # type or form: rejected, naming the field
        path = os.path.join(
            os.path.dirname(SEQUENCE), "..", "expected", "build-contiguous.out"
        )
        with open(path, encoding="utf-8") as fh:
            cert = json.load(fh)
        (cert["transcript"][0] if field == "description" else cert)[field] = value
        cert["payload_sha256"] = digest({k: cert[k] for k in PAYLOAD_FIELDS})
        assert verify_certificate(cert) == [problem]
        assert main(["verify", "--certificate", write(tmp_path, "c.json", cert)]) == 1
        assert problem in capsys.readouterr().out

    def test_rejects_negative_multiplier(self, tmp_path):
        pair = os.path.join(os.path.dirname(SEQUENCE), "pair.json")
        _, cert = run_json(tmp_path, ["hs-witness", "--input", pair,
                                      "--epsilon", "1/4", "--delta", "1/8"])
        assert cert["witness"]["multiplier"] == "2/3"
        assert verify_certificate(cert) == []
        cert["witness"]["multiplier"] = "-1/2"
        payload = {k: cert[k] for k in
                   ("command", "input_digest", "verdict", "witness", "transcript")}
        cert["payload_sha256"] = hashlib.sha256(canonical_json(payload)).hexdigest()
        assert verify_certificate(cert) == ["witness.multiplier: -1/2 is negative"]

    @pytest.mark.parametrize("multipliers,problem", [
        (["1", "x"], "witness.multipliers[1]: 'x' is not a valid rational string"),
        ([["0"], ["0", "-1"]], "witness.multipliers[1][1]: -1 is negative"),
        ("1", "witness.multipliers: expected a list"),
    ])
    def test_rejects_bad_multipliers(self, multipliers, problem):
        cert = build_certificate("hs-witness", {}, "ok", {"multipliers": multipliers}, [])
        assert verify_certificate(cert) == [problem]

    def test_rejects_bad_weight_vector(self):
        cert = build_certificate(
            "hs-witness", {}, "ok", {"weight_vectors": [["1/2", "1/3"]]}, []
        )
        problems = verify_certificate(cert)
        assert any("sum to 1" in p for p in problems)

    def test_rejects_false_transcript_entry(self):
        cert = build_certificate(
            "hs-witness",
            {},
            "ok",
            None,
            [{"description": "x", "lhs": "1/3", "relation": ">=", "rhs": "1/2"}],
        )
        assert any("fails" in p for p in verify_certificate(cert))


def test_no_private_cross_module_imports():
    # a module's underscore names are its own: no sibling imports them
    package = os.path.dirname(os.path.abspath(cli.__file__))
    private = []
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        private += [
            f"{name}: {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            and (node.level or (node.module or "").startswith("robust_ftap"))
            for alias in node.names
            if alias.name.startswith("_")
        ]
    assert private == []
