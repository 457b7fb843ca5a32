"""Tensor text grammar and structure-file schema."""

from __future__ import annotations

import json
import math
from fractions import Fraction

import pytest

from nambu.cli import MAX_JET_FORMS
from nambu.errors import ParseError
from nambu.exterior import Form, Multivector
from nambu.textio import (
    MAX_DIMENSION,
    SCHEMA,
    format_tensor,
    load_structure_dict,
    load_structure_text,
    parse_form,
    parse_multivector,
)

from conftest import random_form, random_multivector, x


class TestTensorGrammar:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("d1^d2", Multivector.basis(3, (1, 2))),
            ("x3*d3", lambda: x(3, 3) * Multivector.basis(3, (3,))),
            ("-d1^d2", lambda: -Multivector.basis(3, (1, 2))),
            (
                "d1^d2 + x3*d2^d3",
                lambda: Multivector.basis(3, (1, 2))
                + x(3, 3) * Multivector.basis(3, (2, 3)),
            ),
            ("0", lambda: Multivector.zero(3, 2)),
        ],
    )
    def test_parse_multivector(self, text, expected):
        value = expected() if callable(expected) else expected
        assert parse_multivector(text, 3, value.degree) == value

    @pytest.mark.parametrize(
        "text,expected",
        [
            ("dx1^dx2", lambda: Form.basis(3, (1, 2))),
            ("x1*dx1^dx2 - dx2^dx3", lambda: x(3, 1) * Form.basis(3, (1, 2))
             - Form.basis(3, (2, 3))),
            ("(x1+1)*dx1^dx3", lambda: (x(3, 1) + 1) * Form.basis(3, (1, 3))),
            ("3/2*dx2^dx3", lambda: Form.basis(3, (2, 3)) * Fraction(3, 2)),
        ],
    )
    def test_parse_form(self, text, expected):
        value = expected()
        assert parse_form(text, 3, value.degree) == value

    def test_roundtrip_random(self, rng):
        for degree in (1, 2):
            for _ in range(10):
                form = random_form(rng, 4, degree)
                assert parse_form(format_tensor(form), 4, degree) == form
                mv = random_multivector(rng, 4, degree)
                assert parse_multivector(format_tensor(mv), 4, degree) == mv

    def test_zero_prints_as_zero(self):
        assert format_tensor(Form.zero(3, 2)) == "0"
        assert parse_form("0", 3, 2).is_zero()

    def test_golden_formats(self):
        assert format_tensor(Multivector.basis(3, (1, 2))) == "d1^d2"
        assert format_tensor(x(3, 3) * Multivector.basis(3, (3,))) == "x3*d3"
        assert (
            format_tensor(
                Multivector.basis(3, (1, 2)) + x(3, 3) * Multivector.basis(3, (2, 3))
            )
            == "d1^d2 + x3*d2^d3"
        )
        assert format_tensor(-Form.basis(3, (1,))) == "-dx1"

    @pytest.mark.parametrize(
        "text,degree",
        [
            ("dx1^dx1", 2),
            ("dx2^dx1", 2),
            ("dx1", 2),
            ("d1^d2", 2),
            ("dx9", 1),
            pytest.param("dx" + "1" * 5000, 1, id="5000-digit-axis"),
            ("x1*", 1),
            ("", 1),
        ],
    )
    def test_form_parse_errors(self, text, degree):
        with pytest.raises(ParseError):
            parse_form(text, 3, degree)


class TestStructureFiles:
    def good(self) -> dict:
        return {
            "schema": SCHEMA,
            "dimension": 3,
            "order": 3,
            "lambda": [{"index": [1, 2, 3], "coeff": "x3"}],
            "volume": {"constant": "2", "exponent": "x1"},
            "checks": ["invariance"],
            "jet_degree": 2,
        }

    def test_load(self):
        loaded = load_structure_dict(self.good())
        assert loaded.dimension == 3 and loaded.order == 3
        assert loaded.nvector == x(3, 3) * Multivector.basis(3, (1, 2, 3))
        assert loaded.volume_constant == 2
        assert loaded.volume_exponent == x(3, 1)
        assert loaded.checks == ("invariance",)
        assert loaded.jet_degree == 2
        structure = loaded.structure()
        assert structure.n == 3

    def test_defaults(self):
        doc = self.good()
        del doc["volume"], doc["checks"], doc["jet_degree"]
        loaded = load_structure_dict(doc)
        assert loaded.volume_constant == 1
        assert loaded.volume_exponent.is_zero()
        assert loaded.checks is None and loaded.jet_degree is None

    @pytest.mark.parametrize(
        "mutate,location",
        [
            (lambda d: d.pop("schema"), "$"),
            (lambda d: d.update(schema="other/9"), "$.schema"),
            (lambda d: d.update(order=4), "$.order"),
            (lambda d: d.update(dimension="3"), "$.dimension"),
            (lambda d: d["lambda"][0].update(index=[1, 1, 2]), "$.lambda[0].index"),
            (lambda d: d["lambda"][0].update(index=[1, 2]), "$.lambda[0].index"),
            (lambda d: d["lambda"][0].update(index=[1, 2, 9]), "$.lambda[0].index"),
            (lambda d: d["lambda"][0].update(index=[True, 2, 3]), "$.lambda[0].index"),
            (lambda d: d["lambda"][0].update(coeff="x9"), "$.lambda[0].coeff"),
            (lambda d: d.update(volume={"constant": "0"}), "$.volume.constant"),
            (lambda d: d.update(volume={"constant": "1e20000000"}), "$.volume.constant"),
            (lambda d: d.update(volume={"constant": "1e5000000"}), "$.volume.constant"),
            (lambda d: d.update(volume={"constant": "-2e-31000"}), "$.volume.constant"),
            (lambda d: d.update(volume={"constant": "1e" + "9" * 5000}), "$.volume.constant"),
            (lambda d: d.update(jet_degree=1), "$.jet_degree"),
            (lambda d: d.update(checks=[3]), "$.checks"),
        ],
    )
    def test_validation_errors_carry_location(self, mutate, location):
        doc = self.good()
        mutate(doc)
        with pytest.raises(ParseError) as info:
            load_structure_dict(doc)
        assert location in str(info.value)

    @pytest.mark.parametrize(
        "text,value",
        [("2", 2), ("-3/4", Fraction(-3, 4)), ("0.5", Fraction(1, 2)), ("1e3", 1000),
         ("1e-3", Fraction(1, 1000))],
    )
    def test_volume_constant_values(self, text, value):
        doc = self.good()
        doc["volume"] = {"constant": text}
        assert load_structure_dict(doc).volume_constant == value

    @pytest.mark.parametrize("dimension", [0, MAX_DIMENSION + 1, 10**9])
    def test_dimension_is_bounded(self, dimension):
        doc = self.good()
        doc["dimension"] = dimension
        with pytest.raises(ParseError) as info:
            load_structure_dict(doc)
        assert info.value.location == "$.dimension"

    def test_dimension_bound_loses_no_admitted_check(self):
        # the smallest check, order 2 at jet degree 2, needs C(m+2, 2) * m
        # jet-basis forms; above MAX_DIMENSION that is past the check budget
        m = MAX_DIMENSION + 1
        assert math.comb(m + 2, 2) * m > MAX_JET_FORMS
        doc = {"schema": SCHEMA, "dimension": MAX_DIMENSION, "order": 2,
               "lambda": [{"index": [1, MAX_DIMENSION], "coeff": f"x{MAX_DIMENSION}"}]}
        assert load_structure_dict(doc).dimension == MAX_DIMENSION

    def test_empty_checks_rejected(self):
        doc = self.good()
        doc["checks"] = []
        with pytest.raises(ParseError) as info:
            load_structure_dict(doc)
        assert "$.checks" in str(info.value)

    def test_duplicate_index_rejected(self):
        doc = self.good()
        doc["lambda"].append({"index": [1, 2, 3], "coeff": "1"})
        with pytest.raises(ParseError):
            load_structure_dict(doc)

    @pytest.mark.parametrize(
        "mutate,location",
        [
            # a typo for "checks" must not run the default checks
            (lambda d: d.update(check=["lsv"]), "$.check"),
            # a typo for "exponent" must not mean exponent 0
            (lambda d: d["volume"].update(exponant="x1"), "$.volume.exponant"),
            (lambda d: d["lambda"][0].update(coef="1"), "$.lambda[0].coef"),
        ],
        ids=["top", "volume", "lambda"],
    )
    def test_unknown_field_is_rejected_at_its_path(self, mutate, location):
        doc = self.good()
        mutate(doc)
        with pytest.raises(ParseError) as info:
            load_structure_dict(doc)
        assert info.value.message.startswith("unknown field ")
        assert info.value.location == location

    @pytest.mark.parametrize(
        "old,new,location",
        [
            ('"checks": ["invariance"]', '"checks": ["invariance"], "checks": ["lsv"]',
             "$.checks"),
            ('"exponent": "x1"', '"exponent": "x1", "exponent": "x2"', "$.volume.exponent"),
            ('"coeff": "x3"', '"coeff": "x3", "coeff": "x3"', "$.lambda[0].coeff"),
        ],
        ids=["top", "volume", "lambda"],
    )
    def test_repeated_field_is_rejected_at_its_path(self, old, new, location):
        text = json.dumps(self.good())
        assert old in text
        with pytest.raises(ParseError) as info:
            load_structure_text(text.replace(old, new))
        assert info.value.message.startswith("repeated field ")
        assert info.value.location == location

    @pytest.mark.parametrize(
        "text",
        ["{not json", "[" * 100_000 + "]" * 100_000],
        ids=["malformed", "nested-100000-deep"],
    )
    def test_invalid_json_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="^invalid JSON: "):
            load_structure_text(text)

    def test_fixture_files_load(self):
        from pathlib import Path

        fixtures = Path(__file__).resolve().parent.parent / "fixtures"
        names = [
            "r3_scaled.json",
            "r3_volume.json",
            "r4_normal_form.json",
            "r5_normal_form.json",
            "r6_nonexample.json",
        ]
        for name in names:
            loaded = load_structure_text((fixtures / name).read_text())
            assert loaded.order == 3
