"""CLI behaviour: subcommands, exit codes, deterministic reports."""

from __future__ import annotations

import collections
import importlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from nambu import algebroid, cohomology, structure
from nambu.cli import CHECKS, build_parser, main
from nambu.poly import Polynomial

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

R3_SCALED = str(FIXTURES / "r3_scaled.json")
R3_VOLUME = str(FIXTURES / "r3_volume.json")
R4_NF = str(FIXTURES / "r4_normal_form.json")
R6_SUM = str(FIXTURES / "r6_nonexample.json")
R6_RATIONAL = str(FIXTURES / "r6_rational.json")


def _structure_text(coeff: str) -> str:
    """A structure file on R^3 with the 3-vector ``coeff * d1^d2^d3``."""
    lam = [{"index": [1, 2, 3], "coeff": coeff}]
    return json.dumps({"schema": "nambu-structure/1", "dimension": 3, "order": 3, "lambda": lam})


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def order_two(tmp_path) -> str:
    """A Poisson structure file: ``x2 * d1^d2`` on R^2, order 2."""
    lam = [{"index": [1, 2], "coeff": "x2"}]
    doc = {"schema": "nambu-structure/1", "dimension": 2, "order": 2, "lambda": lam}
    target = tmp_path / "poisson.json"
    target.write_text(json.dumps(doc))
    return str(target)


class TestCompute:
    def test_modular(self, capsys):
        code, out, _ = run(capsys, ["compute", R3_SCALED, "modular"])
        assert code == 0
        assert out == "d1^d2\n"

    def test_hamiltonian(self, capsys):
        code, out, _ = run(capsys, ["compute", R3_SCALED, "hamiltonian", "x1", "x2"])
        assert code == 0
        assert out == "x3*d3\n"

    def test_sharp(self, capsys):
        code, out, _ = run(capsys, ["compute", R3_SCALED, "sharp", "dx1^dx3"])
        assert code == 0
        assert out == "-x3*d2\n"

    def test_bracket_counterexample_both_orders(self, capsys):
        code, out, _ = run(
            capsys, ["compute", R4_NF, "bracket", "dx3^dx4", "x1*dx1^dx2"]
        )
        assert code == 0 and out == "0\n"
        code, out, _ = run(
            capsys, ["compute", R4_NF, "bracket", "x1*dx1^dx2", "dx3^dx4"]
        )
        assert code == 0 and out == "dx1^dx4\n"

    def test_leading_minus_argument_after_double_dash(self, capsys):
        argv = ["compute", R4_NF, "bracket", "-x1*dx1^dx2", "dx3^dx4"]
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        code, out, _ = run(capsys, [*argv[:3], "--", *argv[3:]])
        assert (code, out) == (0, "-dx1^dx4\n")

    def test_arity_error(self, capsys):
        code, _, err = run(capsys, ["compute", R3_SCALED, "hamiltonian", "x1"])
        assert code == 1
        assert "error" in err

    def test_bad_expression(self, capsys):
        code, _, err = run(capsys, ["compute", R3_SCALED, "sharp", "dx1^dx9"])
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("expression", ["(x1+x2+x3+1)^200", "3^99999999"])
    def test_oversized_power_is_a_parse_error(self, capsys, expression):
        start = time.perf_counter()
        code, _, err = run(capsys, ["compute", R3_SCALED, "hamiltonian", expression, "x2"])
        assert time.perf_counter() - start < 1
        assert code == 1
        assert "column" in err

    def test_coefficient_beyond_the_int_str_limit_prints_exactly(self, capsys, tmp_path):
        # 2^90000 has 27,093 digits, above Python's default limit of 4,300
        # for int-to-str conversion but within the parser's coefficient bits
        target = tmp_path / "big.json"
        target.write_text(_structure_text("((2^100)^100)^9*x3"), encoding="utf-8")
        code, out, err = run(capsys, ["compute", str(target), "sharp", "dx1^dx2"])
        assert (code, err) == (0, "")
        digits, _, rest = out.partition("*")
        assert (len(digits), rest) == (27093, "x3*d3\n")
        value = 0
        for start in range(0, len(digits), 500):
            chunk = digits[start : start + 500]
            value = value * 10 ** len(chunk) + int(chunk)
        assert value == 2**90000

    def test_oversized_literal_coefficient_is_located(self, capsys, tmp_path):
        target = tmp_path / "literal.json"
        target.write_text(_structure_text("2*" + "1" * 5000 + "*x3"), encoding="utf-8")
        code, out, err = run(capsys, ["compute", str(target), "sharp", "dx1^dx2"])
        assert (code, out) == (1, "")
        assert err == "error: $.lambda[0].coeff: column 3: integer literal exceeds 600 digits\n"

    @pytest.mark.parametrize(
        "tensor,message",
        [
            ("dx1^dx2 + (x1+)*dx2^dx3", "column 15: unexpected character ')'"),
            ("  dx1^dx2 + x1^^2*dx2^dx3", "column 16: exponent must be a non-negative integer"),
            ("dx1^dx2 + x1*dx2^ dy3", "column 19: malformed basis axis 'dy3'"),
            (" dx1^dx2 - dx1^ dx9", "column 17: axis index 9 outside chart of dimension 4"),
            ("dx1^dx2 + ((x1+1)*dx2^dx3", "column 11: unbalanced '('"),
        ],
    )
    def test_tensor_error_column_counts_within_the_argument(self, capsys, tensor, message):
        code, out, err = run(capsys, ["compute", R4_NF, "bracket", tensor, "dx1^dx2"])
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "fixture, args, result",
        [
            (R3_SCALED, ["modular"], "d1^d2"),
            (R3_SCALED, ["sharp", "dx1^dx3"], "-x3*d2"),
            (R4_NF, ["bracket", "x1*dx1^dx2", "dx3^dx4"], "dx1^dx4"),
            (R3_SCALED, ["hamiltonian", "x1", "x2"], "x3*d3"),
        ],
        ids=["modular", "sharp", "bracket", "hamiltonian"],
    )
    def test_json_payload(self, capsys, fixture, args, result):
        code, out, err = run(capsys, ["compute", fixture, *args, "--json"])
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["schema"] == "nambu-report/1"
        assert payload["result"] == result
        assert payload["exit"] == 0
        # the exact bytes, key order included
        envelope = {
            "schema": "nambu-report/1",
            "command": "compute",
            "what": args[0],
            "args": args[1:],
            "result": result,
            "exit": 0,
        }
        assert out == json.dumps(envelope, indent=2) + "\n"


class TestOrderTwo:
    """Order 2 runs the one code path of every order: x2 * d1^d2 is the dual
    of [e1, e2] = e2, whose modular character is tr(ad e1) d1 = d1."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            # lbracket(dx1, dx2) = d{x1, x2} on exact forms
            (["compute", "FILE", "bracket", "dx1", "dx2"], "dx2\n"),
            (["compute", "FILE", "bracket", "x1*dx2", "dx1"], "-x1*dx2\n"),
            (["compute", "FILE", "modular"], "d1\n"),
            (
                ["witness", "FILE"],
                "infeasible at max degree 4\n"
                "obstruction: x2*df/dx2 = 1\n"
                "the obstruction is degree-uniform: no polynomial f of any degree"
                " satisfies the displayed equation\n"
                "no smooth f satisfies it either: the left side vanishes where an"
                " obstructing variable is zero, the right side does not\n",
            ),
        ],
        ids=["bracket-exact", "bracket", "modular", "witness"],
    )
    def test_bracket_level_commands_answer(self, capsys, order_two, argv, expected):
        argv = [order_two if arg == "FILE" else arg for arg in argv]
        assert run(capsys, argv) == (0, expected, "")

    def test_modular_json(self, capsys, order_two):
        code, out, err = run(capsys, ["compute", order_two, "modular", "--json"])
        assert (code, err) == (0, "")
        assert json.loads(out)["result"] == "d1"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["compute", "FILE", "bracket"], "compute bracket takes exactly 2 argument(s), got 0"),
            (["witness", "FILE", "--max-degree=-1"], "--max-degree must be non-negative"),
        ],
        ids=["bracket-arity", "witness-degree"],
    )
    def test_bad_arguments_are_input_errors(self, capsys, order_two, argv, message):
        argv = [order_two if arg == "FILE" else arg for arg in argv]
        assert run(capsys, argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("what, arg", [("sharp", "dx1"), ("hamiltonian", "x1")])
    def test_sharp_and_hamiltonian_run(self, capsys, order_two, what, arg):
        code, out, err = run(capsys, ["compute", order_two, what, arg])
        assert (code, out, err) == (0, "x2*d2\n", "")

    def test_default_check_runs(self, capsys, order_two):
        code, out, _ = run(capsys, ["check", order_two])
        assert code == 0
        assert out.splitlines()[-1] == "result: pass"


class TestCheck:
    def test_default_set_passes(self, capsys):
        code, out, _ = run(capsys, ["check", R3_SCALED])
        assert code == 0
        for name in (
            "fundamental-identity",
            "invariance",
            "anchor",
            "leibniz",
            "characterization",
            "lsv",
            "modular-cocycle",
        ):
            assert f"{name}: pass" in out
        assert out.rstrip().endswith("result: pass")

    def test_failure_exit_code_and_counterexample(self, capsys):
        code, out, _ = run(
            capsys,
            ["check", R6_SUM, "--checks=fundamental-identity", "--jet-degree=2"],
        )
        assert code == 2
        assert "fundamental-identity: FAIL" in out
        assert "inputs:" in out and "residual:" in out

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "schema": "nambu-structure/1",
                    "dimension": 3,
                    "order": 3,
                    "lambda": [{"index": [1, 1, 2], "coeff": "1"}],
                }
            )
        )
        code, out, err = run(capsys, ["check", str(bad)])
        assert code == 1
        assert "$.lambda[0].index" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, ["check", "no-such-file.json"])
        assert code == 1
        assert "error" in err

    def test_unknown_check_name(self, capsys):
        code, _, err = run(capsys, ["check", R3_SCALED, "--checks=bogus"])
        assert code == 1
        assert "unknown check" in err

    def test_unknown_check_name_is_located(self, capsys, tmp_path):
        code, out, err = run(capsys, ["check", R3_SCALED, "--checks=bogus"])
        assert (code, out) == (1, "")
        assert err.startswith("error: --checks: unknown check 'bogus' (available: ")
        doc = json.loads(Path(R3_SCALED).read_text())
        doc["checks"] = ["bogus"]
        target = tmp_path / "bogus_check.json"
        target.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["check", str(target)])
        assert (code, out) == (1, "")
        assert err.startswith("error: $.checks[0]: unknown check 'bogus' (available: ")

    def test_order_two_check_list_is_resolved_before_any_check_runs(
        self, capsys, tmp_path, monkeypatch
    ):
        lam = [{"index": [1, 2], "coeff": "x3"}]
        doc = {"schema": "nambu-structure/1", "dimension": 3, "order": 2, "lambda": lam}
        target = tmp_path / "poisson.json"
        target.write_text(json.dumps(doc))

        def must_not_run(*args):
            raise AssertionError("a check ran before the check list was resolved")

        monkeypatch.setitem(CHECKS, "fundamental-identity", must_not_run)
        argv = ["check", str(target), "--checks=fundamental-identity,anchor,bogus"]
        code, out, err = run(capsys, argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: --checks: unknown check 'bogus' (available: ")

    def test_jet_degree_floor(self, capsys):
        code, out, err = run(capsys, ["check", R3_SCALED, "--jet-degree=1"])
        assert code == 1
        assert (out, err) == (
            "", "error: --jet-degree 1: identity certification requires max_degree >= 2\n"
        )

    def test_jet_degree_zero_is_rejected_not_defaulted(self, capsys):
        code, out, err = run(capsys, ["check", R3_SCALED, "--jet-degree=0"])
        assert code == 1
        assert out == ""
        assert "max_degree >= 2" in err

    def test_jet_degree_above_budget_is_rejected_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, ["check", R6_SUM, "--checks=lsv", "--jet-degree=12"])
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.startswith("error: --jet-degree 12 needs 278,460 jet-basis forms")

    def test_file_jet_degree_above_budget_is_rejected(self, capsys, tmp_path):
        doc = json.loads(Path(R6_SUM).read_text())
        doc["jet_degree"] = 12
        target = tmp_path / "deep.json"
        target.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["check", str(target), "--checks=lsv"])
        assert (code, out) == (1, "")
        assert err.startswith("error: $.jet_degree 12 needs 278,460 jet-basis forms")

    def test_default_jet_degree_is_budgeted_too(self, capsys, tmp_path):
        doc = {"schema": "nambu-structure/1", "dimension": 12, "order": 3,
               "lambda": [{"index": [1, 2, 3], "coeff": "1"}]}
        target = tmp_path / "wide.json"
        target.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["check", str(target)])
        assert (code, out) == (1, "")
        assert err.startswith("error: default jet degree 3 needs 30,030 jet-basis forms")

    def test_capped_function_tuples_are_budgeted(self, capsys, tmp_path):
        # 168 jet-basis forms at jet degree 2, but C(28, 5) = 98,280 capped
        # f-tuples for the fundamental-identity, invariance and exact-forms sweeps
        doc = {"schema": "nambu-structure/1", "dimension": 6, "order": 6,
               "lambda": [{"index": [1, 2, 3, 4, 5, 6], "coeff": "x1"}]}
        target = tmp_path / "top.json"
        target.write_text(json.dumps(doc))
        for argv in (["--jet-degree=2"], ["--checks=invariance", "--jet-degree=2"], []):
            start = time.perf_counter()
            code, out, err = run(capsys, ["check", str(target), *argv])
            assert time.perf_counter() - start < 1
            assert (code, out) == (1, "")
            assert err.startswith("error: $.order 6 needs 98,280 capped function tuples")

    @pytest.mark.parametrize("command", [["check"], ["witness"], ["compute", "modular"]])
    def test_huge_dimension_is_rejected_before_allocation(self, capsys, tmp_path, command):
        doc = {"schema": "nambu-structure/1", "dimension": 10**9, "order": 3,
               "lambda": [{"index": [1, 2, 3], "coeff": "x1 + 1"}]}
        target = tmp_path / "huge.json"
        target.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, [command[0], str(target), *command[1:]])
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.startswith("error: $.dimension: dimension must lie in 1..64")

    @pytest.mark.parametrize(
        "field, location",
        [
            ("dimension", "$.dimension"),
            ("order", "$.order"),
            ("index", "$.lambda[0].index"),
            ("jet_degree", "$.jet_degree"),
        ],
    )
    def test_oversized_json_integer_is_located(self, capsys, tmp_path, field, location):
        doc = json.loads(Path(R3_SCALED).read_text())
        literal = "7" * 5000
        if field == "index":
            doc["lambda"][0]["index"] = [1, 2, 0]
            text = json.dumps(doc).replace("[1, 2, 0]", f"[1, 2, {literal}]")
        else:
            doc[field] = 0
            text = json.dumps(doc).replace(f'"{field}": 0', f'"{field}": -{literal}')
        assert literal in text
        target = tmp_path / "long_literal.json"
        target.write_text(text)
        code, out, err = run(capsys, ["check", str(target)])
        assert (code, out) == (1, "")
        assert err == f"error: {location}: integer literal exceeds 600 digits\n"

    @pytest.mark.parametrize(
        "old, new, diagnostic",
        [
            ('"volume"', '"check": ["lsv"], "volume"', "$.check: unknown field 'check'"),
            ('"exponent"', '"exponant"', "$.volume.exponant: unknown field 'exponant'"),
            ('"volume"', '"checks": ["lsv"], "checks": ["anchor"], "volume"',
             "$.checks: repeated field 'checks'"),
        ],
        ids=["unknown-top", "unknown-volume", "repeated"],
    )
    def test_field_outside_the_schema_is_an_input_error(
        self, capsys, tmp_path, old, new, diagnostic
    ):
        text = Path(R3_SCALED).read_text()
        assert old in text
        target = tmp_path / "extra_field.json"
        target.write_text(text.replace(old, new, 1))
        code, out, err = run(capsys, ["check", str(target)])
        assert (code, out, err) == (1, "", f"error: {diagnostic}\n")

    def test_deeply_nested_json_is_an_input_error(self, capsys, tmp_path):
        # the JSON decoder recurses once per level, so 100,000 levels exceed
        # the interpreter's recursion limit
        depth = 100_000
        target = tmp_path / "deep.json"
        target.write_text('{"schema": "nambu-structure/1", "x": ' + "[" * depth + "]" * depth + "}")
        code, out, err = run(capsys, ["check", str(target)])
        assert (code, out) == (1, "")
        assert err.startswith("error: invalid JSON: ")
        assert err.count("\n") == 1

    def test_huge_volume_constant_is_rejected_before_expansion(self, capsys, tmp_path):
        doc = json.loads(Path(R3_SCALED).read_text())
        doc["volume"] = {"constant": "1e20000000"}
        target = tmp_path / "huge_constant.json"
        target.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, ["compute", str(target), "modular"])
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.startswith("error: $.volume.constant: volume constant may exceed")

    def test_deeply_nested_coefficient(self, capsys, tmp_path):
        doc = json.loads(Path(R3_SCALED).read_text())
        doc["lambda"][0]["coeff"] = "(" * 5000 + "x3" + ")" * 5000
        target = tmp_path / "nested.json"
        target.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["check", str(target)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: $.lambda[0].coeff: column 101:")
        assert "Traceback" not in err

    def test_json_and_human_agree(self, capsys):
        args = ["check", R3_VOLUME, "--checks=invariance,anchor,lsv"]
        code_h, human, _ = run(capsys, args)
        code_j, raw, _ = run(capsys, args + ["--json"])
        assert code_h == code_j == 0
        payload = json.loads(raw)
        verdicts = {r["check"]: r["verdict"] for r in payload["results"]}
        for name, verdict in verdicts.items():
            expected = "pass" if verdict == "pass" else "FAIL"
            assert f"{name}: {expected}" in human
        assert payload["exit"] == code_h

    def test_byte_identical_reruns(self, capsys):
        args = ["check", R3_SCALED, "--checks=invariance,lsv", "--json"]
        _, first, _ = run(capsys, args)
        _, second, _ = run(capsys, args)
        assert first == second

    @pytest.mark.parametrize(
        "argv, exit_code",
        [
            (["check", R3_SCALED, "--checks=invariance"], 0),
            (["check", R6_SUM, "--checks=anchor"], 2),
            (["witness", R3_SCALED], 0),
            (["compute", R3_SCALED, "modular"], 0),
        ],
        ids=["check-pass", "check-fail", "witness", "compute"],
    )
    def test_quiet_suppresses_output(self, capsys, argv, exit_code):
        code, out, err = run(capsys, [*argv, "--quiet"])
        assert code == exit_code
        assert out == ""
        assert err == ""

    def test_file_checks_field_used_as_default(self, capsys, tmp_path):
        doc = json.loads(Path(R3_SCALED).read_text())
        doc["checks"] = ["invariance"]
        target = tmp_path / "with_checks.json"
        target.write_text(json.dumps(doc))
        code, out, _ = run(capsys, ["check", str(target)])
        assert code == 0
        assert "invariance: pass" in out
        assert "anchor" not in out


    def test_empty_check_list_is_an_input_error(self, capsys):
        for flag in ("--checks=,", "--checks="):
            code, out, err = run(capsys, ["check", R3_SCALED, flag])
            assert code == 1
            assert out == ""
            assert err == "error: --checks names no check\n"

    def test_empty_checks_field_is_an_input_error(self, capsys, tmp_path):
        doc = json.loads(Path(R3_SCALED).read_text())
        doc["checks"] = []
        target = tmp_path / "no_checks.json"
        target.write_text(json.dumps(doc))
        code, out, err = run(capsys, ["check", str(target)])
        assert code == 1
        assert out == ""
        assert err.startswith("error: $.checks:")


class TestOneBasisPerRun:
    """``check`` builds one jet basis per run, so a scan that two checks
    share runs once, and no report depends on which check ran it first."""

    INTEGRABILITY = "fundamental-identity,invariance,anchor,sharp-d,leibniz"

    @pytest.mark.parametrize(
        "argv, expected",
        [
            # the anchor defect of the 5 x 6 basis forms x^g dx^I with
            # deg g <= 1 on R^4, evaluated once although five checks read
            # the scan; it passes, which certifies FI, invariance, anchor,
            # sharp-d and Leibniz, so none of them evaluates a defect, an
            # anchor residual or a sharp-d pair of its own
            (
                [R4_NF],
                {
                    "structure.anchor_defect": 30,
                    "structure.invariance_defect": 0,
                    "algebroid.anchor_residual": 0,
                    "algebroid.reduced_sharp_d": 0,
                },
            ),
            # the anchor defect of 21 basis forms, to its hit at x1 dx^{2,3};
            # on that hit the f-tuples without the constant 1, 14 from
            # (x1, x2) to the invariance hit at (x1, x2*x4), of which the 5
            # coordinate tuples (x1, x2)..(x1, x6) read T(dx^I) off the scan,
            # plus the defect there re-evaluated by each report; the sharp-d
            # scan of the anchor hit's row of 6 x 15 pairs from g = 1, 60 to
            # its hit at x4; the Leibniz lift scans the third slot through the
            # factorization, with S = 0 at the anchor hit, so only the report
            # re-evaluates the direct nested residual
            (
                [R6_SUM, f"--checks={INTEGRABILITY}"],
                {
                    "structure.anchor_defect": 21,
                    "structure.invariance_defect": 11,
                    # the anchor hit, the sharp-d scan and the Leibniz lift
                    # read A off the anchor defect of the hit row, so only
                    # the anchor report's direct re-check evaluates it
                    "algebroid.anchor_residual": 1,
                    "algebroid.reduced_sharp_d": 60,
                    "algebroid.leibniz_residual": 1,
                },
            ),
            # FI alone runs the anchor-defect scan itself: the same 21 anchor
            # defects, the hit's dx^J read off the hit row's one value, then
            # the 14 capped f-tuples without the constant 1 up to the
            # invariance hit at (x1, x2*x4), less the 5 coordinate tuples
            # read off the scan (the rescan finds no earlier f-tuple, since
            # every (x1, cubic) comes later), and the defect there
            # re-evaluated by FI's locate; only the report evaluates the
            # direct nested residual
            (
                [R6_SUM, "--checks=fundamental-identity"],
                {
                    "structure.anchor_defect": 21,
                    "structure.invariance_defect": 10,
                    "structure.fi_residual": 1,
                },
            ),
            # the consistency scan of characterization and phi-morphism:
            # 6 coordinate f-tuples x_I times the 14 monomials of capped(2)
            # on R^4 other than 1, one nbracket each, evaluated once for
            # both checks
            (
                [R4_NF, "--checks=characterization,phi-morphism"],
                {"algebroid.nbracket": 84},
            ),
            # characterization's function-slot rules after the consistency
            # scan: slot-2 is swept structure-free, through lie_form_defect,
            # so its residual on lam is not evaluated; slot-1 is a multiple
            # of its second slot, so it is swept at the first index set
            # alone, on the 6 index sets times the 4 monomials x1..x4 (the
            # row f = 1 is zero whatever the kernels compute)
            (
                [R4_NF, "--checks=characterization"],
                {
                    "algebroid.function_slot1_residual": 24,
                    "algebroid.function_slot2_residual": 0,
                },
            ),
            # the cocycle defect of r6_rational's unit forms dx^I in order, to
            # its hit at dx4^dx5, the 13th of 15; the report's re-check of
            # the pair is the only evaluation of the direct cobound1
            (
                [R6_RATIONAL, "--checks=modular-cocycle"],
                {"cohomology.cocycle_defect": 13, "cohomology.cobound1_eval": 1},
            ),
            # r3_scaled is Nambu-Poisson: the anchor defect of its 4 x 3
            # basis forms with deg g <= 1 passes, and since the cocycle
            # defect of the modular multivector is +-d_nu of the anchor
            # defect, that pass proves the modular cocycle, which evaluates
            # no cocycle defect in the default run or alone
            (
                [R3_SCALED],
                {"structure.anchor_defect": 12, "cohomology.cocycle_defect": 0},
            ),
            (
                [R3_SCALED, "--checks=modular-cocycle"],
                {"structure.anchor_defect": 12, "cohomology.cocycle_defect": 0},
            ),
            # the modular multivector of r6_nonexample is zero, whose
            # cocycle defect is zero for every n-vector, so the check runs
            # neither scan
            (
                [R6_SUM, "--checks=modular-cocycle"],
                {"structure.anchor_defect": 0, "cohomology.cocycle_defect": 0},
            ),
        ],
        ids=[
            "r4-default", "r6-integrability", "r6-fundamental-identity", "r4-consistency",
            "r4-characterization", "r6-rational-modular-cocycle", "r3-default",
            "r3-modular-cocycle", "r6-modular-cocycle",
        ],
    )
    def test_shared_scans_run_once(self, monkeypatch, capsys, argv, expected):
        counts = dict.fromkeys(expected, 0)
        for name in expected:
            module, attribute = name.split(".")
            namespace = importlib.import_module(f"nambu.{module}")
            original = getattr(namespace, attribute)

            def counted(*args, name=name, original=original):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(namespace, attribute, counted)
        run(capsys, ["check", *argv])
        assert counts == expected

    @pytest.mark.parametrize("fixture", [R3_SCALED, R6_RATIONAL], ids=["r3", "r6-rational"])
    def test_modular_cocycle_does_not_depend_on_who_ran_the_anchor_scan(self, capsys, fixture):
        # the modular cocycle reads the anchor-defect scan that FI also
        # reads: its result is the same when it runs that scan itself,
        # before FI, and when FI has run it
        def result(checks):
            _, out, _ = run(capsys, ["check", fixture, f"--checks={checks}", "--json"])
            return {r["check"]: r for r in json.loads(out)["results"]}["modular-cocycle"]

        alone = result("modular-cocycle")
        assert result("modular-cocycle,fundamental-identity") == alone
        assert result("fundamental-identity,modular-cocycle") == alone

    def test_unit_anchors_and_brackets_are_computed_once(self, monkeypatch, capsys):
        # sharp(dx^I) and lbracket(dx^I, dx^J) are computed once per structure
        # instance and then read from its table; r4_normal_form (m = 4, n = 3)
        # has 6 unit forms, and its n-vector is integral, so lam is the swept
        # structure too.  Of the 36 unit pairs only characterization's slot-1
        # sweep at J0 reads brackets, the 6 pairs (dx^I, dx^J0)
        counts = collections.Counter()
        instances = []  # holds every structure, so no id is reused

        def unit(form):
            """The index set I of ``dx^I``, else None."""
            if len(form.components) == 1:
                [(indices, coeff)] = form.components.items()
                if coeff == Polynomial.one(form.m):
                    return indices
            return None

        for module, name in ((structure, "_contract"), (algebroid, "_cartan")):

            def counted(instance, *forms, name=name, original=getattr(module, name)):
                keys = [unit(form) for form in forms]
                if None not in keys:
                    instances.append(instance)
                    counts[name, id(instance), *keys] += 1
                return original(instance, *forms)

            monkeypatch.setattr(module, name, counted)
        assert run(capsys, ["check", R4_NF])[0] == 0
        assert len({id(instance) for instance in instances}) == 1
        assert collections.Counter(key[0] for key in counts) == {"_contract": 6, "_cartan": 6}
        assert set(counts.values()) == {1}

    @pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("*.json")), ids=lambda p: p.stem)
    def test_reports_equal_a_fresh_basis_in_either_order(self, capsys, fixture):
        def results(names):
            argv = ["check", str(fixture), f"--checks={','.join(names)}", "--json"]
            _, out, _ = run(capsys, argv)
            return {result["check"]: result for result in json.loads(out)["results"]}

        fresh = {}
        for name in CHECKS:
            fresh.update(results([name]))
        assert results(list(CHECKS)) == fresh
        assert results(list(CHECKS)[::-1]) == fresh


class TestWitnessColumns:
    """``witness`` builds the m coordinate columns ``cobound0(x_j)`` and
    assembles every jet column from them, so the number of ``cobound0``
    calls does not grow with ``--max-degree``."""

    @pytest.mark.parametrize("degree", [0, 4, 8])
    @pytest.mark.parametrize(
        "fixture, verdict, calls",
        # the 5 coordinate columns and the guard on the witness; the
        # obstructed r3 stops after its 3 coordinate columns
        [
            (FIXTURES / "r5_normal_form.json", "feasible", 6),
            (R3_SCALED, "infeasible", 3),
        ],
        ids=["r5-feasible", "r3-obstructed"],
    )
    def test_cobound0_calls_do_not_grow_with_degree(
        self, monkeypatch, capsys, fixture, verdict, calls, degree
    ):
        original, count = cohomology.cobound0, [0]

        def counted(*args):
            count[0] += 1
            return original(*args)

        monkeypatch.setattr(cohomology, "cobound0", counted)
        code, out, _ = run(capsys, ["witness", str(fixture), f"--max-degree={degree}"])
        assert code == 0 and out.startswith(verdict)
        assert count[0] == calls


class TestUsageErrors:
    """Parser errors are input errors: exit 1 with an ``error:`` line."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["check", R3_SCALED, "--jet-degree=abc"],
            ["witness", R3_SCALED, "--max-degree=x"],
            ["frobnicate", R3_SCALED],
        ],
    )
    def test_usage_error_exits_1(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert any(line.startswith("error: ") for line in captured.err.splitlines())

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["check", "--help"])
        assert info.value.code == 0
        assert "--jet-degree" in capsys.readouterr().out


class TestOneParserPerProcess:
    """``main`` reuses one parser, so a call must leave nothing behind that
    a later call could see: each call's exit code, stdout and stderr equal
    those of the same argv in a fresh interpreter."""

    SEQUENCE = [
        ["check", R6_SUM, "--json", "--checks=anchor"],
        ["check", R3_SCALED, "--quiet"],
        ["witness", R3_SCALED, "--max-degree=6"],
        ["compute", R3_SCALED, "hamiltonian", "--", "-x1", "x2"],
        ["check", R3_SCALED, "--jet-degree=abc"],
        ["--help"],
        ["check", R6_SUM, "--json", "--checks=anchor"],
    ]

    def test_calls_equal_fresh_interpreters(self, monkeypatch, capsys):
        # argparse wraps help text at the terminal width, which a fresh
        # interpreter with piped output takes from COLUMNS
        monkeypatch.setenv("COLUMNS", "80")
        env = {**os.environ, "COLUMNS": "80", "PYTHONPATH": str(FIXTURES.parent / "src")}
        assert build_parser() is build_parser()
        for argv in self.SEQUENCE:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "nambu.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60,
            )
            assert (code, captured.out, captured.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr
            ), argv


class TestWitness:
    def test_obstructed_structure(self, capsys):
        code, out, _ = run(capsys, ["witness", R3_SCALED, "--max-degree=8"])
        assert code == 0
        assert "infeasible at max degree 8" in out
        assert "obstruction: x3*df/dx3 = 1" in out
        assert "degree-uniform" in out
        assert "no smooth f" in out

    def test_volume_structure_zero_witness(self, capsys):
        code, out, _ = run(capsys, ["witness", R3_VOLUME])
        assert code == 0
        assert out.splitlines()[0] == "feasible: witness = 0"

    def test_planted_witness(self, capsys, tmp_path):
        doc = json.loads(Path(R3_VOLUME).read_text())
        doc["volume"] = {"constant": "1", "exponent": "x1*x2"}
        target = tmp_path / "planted.json"
        target.write_text(json.dumps(doc))
        code, out, _ = run(capsys, ["witness", str(target), "--max-degree=3"])
        assert code == 0
        assert out.splitlines()[0] == "feasible: witness = x1*x2"

    def test_max_degree_above_budget_is_rejected_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, ["witness", R6_SUM, "--max-degree=40"])
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err.startswith("error: --max-degree 40 needs 9,366,819 witness columns")

    def test_json_roundtrip(self, capsys):
        code, raw, _ = run(capsys, ["witness", R3_SCALED, "--json", "--max-degree=2"])
        assert code == 0
        payload = json.loads(raw)
        assert payload["feasible"] is False
        assert payload["obstruction"] == "x3*df/dx3 = 1"
        assert payload["degree_uniform"] is True
        assert payload["smooth_obstruction"] is True
