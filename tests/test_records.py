"""The value records behave as frozen records of their fields.

``NambuStructure``, ``Counterexample``, ``CheckReport``, ``VolumeForm``,
``WitnessReport``, ``FormalWedge`` and ``StructureFile`` each take their
fields by position or keyword, refuse assignment and deletion, compare,
hash and print as their fields, survive copy, deepcopy and pickle, and keep
their construction checks.  The repr literals were recorded when these
classes were frozen dataclasses, so a change of the record base cannot
change what they print.
"""

from __future__ import annotations

import copy
import pickle
from fractions import Fraction

import pytest

from nambu.algebroid import FormalWedge
from nambu.cohomology import VolumeForm, WitnessReport
from nambu.errors import ArityError, ChartMismatchError, DegreeError, OrderError
from nambu.poly import parse_polynomial
from nambu.structure import CheckReport, Counterexample, NambuStructure
from nambu.textio import StructureFile, parse_multivector

LAM = parse_multivector("x3*d1^d2^d3", 3, 3)
X1, X2 = parse_polynomial("x1", 3), parse_polynomial("x2^2", 3)
FAILURE = Counterexample(inputs=("x1", "x2"), residual="x3")

# class, its fields in order with one value each, and the repr of that record
CASES = {
    "NambuStructure": (
        NambuStructure,
        {"m": 3, "n": 3, "nvector": LAM},
        "NambuStructure(m=3, n=3, nvector=Multivector(3, 3, 'x3*d1^d2^d3'))",
    ),
    "Counterexample": (
        Counterexample,
        {"inputs": ("x1", "x2"), "residual": "x3"},
        "Counterexample(inputs=('x1', 'x2'), residual='x3')",
    ),
    "CheckReport": (
        CheckReport,
        {
            "check": "fundamental-identity",
            "passed": False,
            "items_checked": 7,
            "counterexample": FAILURE,
        },
        "CheckReport(check='fundamental-identity', passed=False, items_checked=7,"
        " counterexample=Counterexample(inputs=('x1', 'x2'), residual='x3'))",
    ),
    "VolumeForm": (
        VolumeForm,
        {"c": Fraction(1, 2), "p": parse_polynomial("x1*x2", 3)},
        "VolumeForm(c=Fraction(1, 2), p=Polynomial(3, x1*x2))",
    ),
    "WitnessReport": (
        WitnessReport,
        {
            "feasible": False,
            "witness": None,
            "search_degree": 4,
            "obstruction": "x",
            "degree_uniform": True,
            "smooth_obstruction": False,
        },
        "WitnessReport(feasible=False, witness=None, search_degree=4, obstruction='x',"
        " degree_uniform=True, smooth_obstruction=False)",
    ),
    "FormalWedge": (
        FormalWedge,
        {"m": 3, "arity": 2, "terms": ((Fraction(3, 2), (X1, X2)),)},
        "FormalWedge(m=3, arity=2, terms=((Fraction(3, 2), (Polynomial(3, x1),"
        " Polynomial(3, x2^2))),))",
    ),
    "StructureFile": (
        StructureFile,
        {
            "dimension": 3,
            "order": 3,
            "nvector": LAM,
            "volume_constant": Fraction(2),
            "volume_exponent": X1,
            "checks": None,
            "jet_degree": 2,
        },
        "StructureFile(dimension=3, order=3, nvector=Multivector(3, 3, 'x3*d1^d2^d3'),"
        " volume_constant=Fraction(2, 1), volume_exponent=Polynomial(3, x1), checks=None,"
        " jet_degree=2)",
    ),
}
NAMES = list(CASES)


def record(name):
    cls, fields, _ = CASES[name]
    return cls(*fields.values())


@pytest.mark.parametrize("name", NAMES)
class TestRecordParity:
    def test_keyword_construction_equals_positional(self, name):
        cls, fields, _ = CASES[name]
        keyword = cls(**fields)
        assert keyword == record(name)
        assert [getattr(keyword, field) for field in fields] == list(fields.values())

    def test_equal_records_hash_equal(self, name):
        assert record(name) is not record(name)
        assert record(name) == record(name)
        assert not record(name) != record(name)
        assert hash(record(name)) == hash(record(name))

    def test_another_record_class_is_not_equal(self, name):
        other = record(NAMES[NAMES.index(name) - 1])
        assert record(name) != other
        assert record(name).__eq__(other) is NotImplemented
        assert record(name).__eq__(tuple(CASES[name][1].values())) is NotImplemented

    def test_repr(self, name):
        assert repr(record(name)) == CASES[name][2]

    def test_assignment_and_deletion_are_refused(self, name):
        value = record(name)
        field = next(iter(CASES[name][1]))
        with pytest.raises(AttributeError):
            setattr(value, field, 1)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.unknown = 1
        assert value == record(name)

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_round_trip(self, name, clone):
        value = record(name)
        twin = clone(value)
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value) and repr(twin) == repr(value)

    def test_missing_or_extra_argument_is_a_type_error(self, name):
        cls, fields, _ = CASES[name]
        values = list(fields.values())
        with pytest.raises(TypeError):
            cls(*values[:1])
        with pytest.raises(TypeError):
            cls(*values, None)
        with pytest.raises(TypeError):
            cls(**fields, unknown=None)
        with pytest.raises(TypeError):
            cls(values[0], **fields)


def test_defaults():
    passing = CheckReport("invariance", True, 3)
    assert passing.counterexample is None
    assert passing == CheckReport(check="invariance", passed=True, items_checked=3)
    assert repr(passing) == (
        "CheckReport(check='invariance', passed=True, items_checked=3, counterexample=None)"
    )
    feasible = WitnessReport(True, parse_polynomial("1/3*x2", 3), 2)
    assert (feasible.obstruction, feasible.degree_uniform, feasible.smooth_obstruction) == (
        None, False, False
    )
    assert repr(feasible) == (
        "WitnessReport(feasible=True, witness=Polynomial(3, 1/3*x2), search_degree=2,"
        " obstruction=None, degree_uniform=False, smooth_obstruction=False)"
    )


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: NambuStructure(2, 3, LAM), OrderError),
        (lambda: NambuStructure(4, 3, LAM), ChartMismatchError),
        (lambda: NambuStructure(3, 2, LAM), DegreeError),
        (lambda: VolumeForm(0, X1), ValueError),
        (lambda: VolumeForm(Fraction(0), X1), ValueError),
        (lambda: VolumeForm(0.5, X1), ValueError),
        (lambda: VolumeForm("1", X1), ValueError),
        (lambda: CheckReport("invariance", True, 3, FAILURE), ValueError),
        (lambda: CheckReport("invariance", False, 3), ValueError),
        (lambda: WitnessReport(True, None, 2), ValueError),
        (lambda: FormalWedge(3, 2, ((Fraction(1), (X1,)),)), ArityError),
        (lambda: FormalWedge(2, 1, ((Fraction(1), (X1,)),)), ArityError),
    ],
    ids=[
        "structure-order", "structure-chart", "structure-degree", "volume-zero",
        "volume-zero-fraction", "volume-float", "volume-text", "report-pass-with-failure",
        "report-fail-without-failure", "witness-feasible-without-witness", "wedge-arity",
        "wedge-chart",
    ],
)
def test_construction_checks_still_raise(build, error):
    with pytest.raises(error):
        build()


def test_volume_constant_becomes_a_fraction():
    volume = VolumeForm(2, X1)
    assert type(volume.c) is Fraction and volume.c == 2
    assert volume == VolumeForm(Fraction(2), X1)
