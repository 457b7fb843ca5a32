"""CLI behaviour: subcommands, exit codes, deterministic reports."""

from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from nambu.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

R3_SCALED = str(FIXTURES / "r3_scaled.json")
R3_VOLUME = str(FIXTURES / "r3_volume.json")
R4_NF = str(FIXTURES / "r4_normal_form.json")
R6_SUM = str(FIXTURES / "r6_nonexample.json")


def _structure_text(coeff: str) -> str:
    """A structure file on R^3 with the 3-vector ``coeff * d1^d2^d3``."""
    lam = [{"index": [1, 2, 3], "coeff": coeff}]
    return json.dumps({"schema": "nambu-structure/1", "dimension": 3, "order": 3, "lambda": lam})


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        ],
    )
    def test_tensor_error_column_counts_within_the_argument(self, capsys, tensor, message):
        code, out, err = run(capsys, ["compute", R4_NF, "bracket", tensor, "dx1^dx2"])
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, ["compute", R3_SCALED, "modular", "--json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "nambu-report/1"
        assert payload["result"] == "d1^d2"
        assert payload["exit"] == 0


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

    def test_jet_degree_floor(self, capsys):
        code, _, err = run(capsys, ["check", R3_SCALED, "--jet-degree=1"])
        assert code == 1

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

    def test_quiet_suppresses_output(self, capsys):
        code, out, _ = run(capsys, ["check", R3_SCALED, "--checks=invariance", "--quiet"])
        assert code == 0
        assert out == ""

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
