"""Text grammar for tensors and the structure-file schema.

Tensor grammar (parsing and canonical printing)::

    tensor :=  ['-'] term (('+' | '-') term)*  |  '0'
    term   :=  [poly '*'] blade  |  poly
    blade  :=  axis ('^' axis)*
    axis   :=  'dx' INT   (form basis)    |   'd' INT   (multivector basis)

so ``d1^d2`` is the bivector on indices (1,2), ``x3*d3`` a vector field,
``x1*dx1^dx2 - dx3^dx4`` a 2-form combination.  A ``poly`` coefficient is
any expression in the polynomial grammar; it must be parenthesized when it
contains '+' or '-' at top level.  Canonical printing (``format_tensor``,
defined in ``exterior`` so that tensors can print themselves, and re-exported
here) orders blades by their index tuples, omits unit coefficients, and
prints the zero tensor as ``0``.

Structure files are JSON documents with schema tag ``nambu-structure/1``::

    {
      "schema": "nambu-structure/1",
      "dimension": 3,
      "order": 3,
      "lambda": [{"index": [1, 2, 3], "coeff": "x3"}],
      "volume": {"constant": "1", "exponent": "0"},      # optional
      "checks": ["fundamental-identity", ...],           # optional
      "jet_degree": 3                                    # optional
    }
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any

from .errors import ParseError
from .cohomology import VolumeForm
from .exterior import Form, Multivector, format_tensor
from .poly import MAX_BITS, MAX_DIGITS, Polynomial, parse_polynomial
from .structure import NambuStructure

SCHEMA = "nambu-structure/1"

# Every polynomial stores one exponent per variable, so the dimension is
# bounded before any is built.  From m = 34 on even the smallest check,
# order 2 at jet degree 2, needs C(m+2, 2) * m > 20,000 jet-basis forms,
# above the check budget of ``cli``, so this bound loses no admitted check.
MAX_DIMENSION = 64


# -- tensor parsing -----------------------------------------------------------


def parse_form(text: str, m: int, degree: int) -> Form:
    return _parse_tensor(text, m, degree, Form)


def parse_multivector(text: str, m: int, degree: int) -> Multivector:
    return _parse_tensor(text, m, degree, Multivector)


def _parse_tensor(text: str, m: int, degree: int, cls):
    if not text.strip():
        raise ParseError("empty tensor expression")
    result = cls.zero(m, degree)
    for sign, start, chunk in _split_terms(text):
        if chunk == "0":
            continue
        try:
            term = _parse_term(chunk, m, degree, cls)
        except ParseError as exc:
            # count the column within the argument, not within the term
            column = int(exc.location.removeprefix("column ")) + start
            message = str(exc).removeprefix(f"{exc.location}: ")
            raise ParseError(message, f"column {column}") from None
        result = result + (term if sign > 0 else -term)
    return result


def _split_terms(text: str) -> list[tuple[int, int, str]]:
    """Split on top-level '+' and '-' (outside parentheses) into
    ``(sign, start, term)``: the term without surrounding blanks, starting at
    0-based position ``start`` of ``text``."""
    opened: list[int] = []
    sign = 1
    start = len(text) - len(text.lstrip())
    terms: list[tuple[int, int, str]] = []

    def term(end: int) -> tuple[int, int, str]:
        chunk = text[start:end]
        return sign, end - len(chunk.lstrip()), chunk.strip()

    if text[start] in "+-":
        sign = -1 if text[start] == "-" else 1
        start += 1
    for i in range(start, len(text)):
        ch = text[i]
        if ch == "(":
            opened.append(i)
        elif ch == ")":
            if not opened:
                raise ParseError("unbalanced ')'", location=f"column {i + 1}")
            opened.pop()
        elif ch in "+-" and not opened:
            terms.append(term(i))
            sign = -1 if ch == "-" else 1
            start = i + 1
    if opened:
        raise ParseError("unbalanced '('", location=f"column {opened[0] + 1}")
    terms.append(term(len(text)))
    return terms


def _parse_term(chunk: str, m: int, degree: int, cls):
    """Parse one stripped term; every error is located by a column in it."""
    if not chunk:
        raise ParseError("empty term in tensor expression", "column 1")
    # Split coefficient from the blade: the blade is the trailing run of
    # axis factors joined by '^'; everything before the '*' that precedes
    # the first axis symbol is the polynomial coefficient.
    blade_start = _find_blade(chunk, cls)
    if blade_start is None:
        if degree != 0:
            raise ParseError(
                f"term {chunk!r} has no basis blade but tensor degree is {degree}",
                "column 1",
            )
        return cls.from_scalar(parse_polynomial(chunk, m))
    coeff_text = chunk[:blade_start].rstrip()
    if coeff_text.endswith("*"):
        coeff_text = coeff_text[:-1].rstrip()
    coeff = parse_polynomial(coeff_text, m) if coeff_text else Polynomial.one(m)
    indices = _parse_blade(chunk, blade_start, m, cls)
    if len(indices) != degree:
        raise ParseError(
            f"blade {chunk[blade_start:]!r} has degree {len(indices)}, expected {degree}",
            f"column {blade_start + 1}",
        )
    return cls.basis(m, indices) * coeff


def _find_blade(chunk: str, cls) -> int | None:
    """Index where the trailing blade starts, or None for a pure scalar."""
    depth = 0
    for i, ch in enumerate(chunk):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch == "d":
            if cls is Form and chunk.startswith("dx", i) and _digits_follow(chunk, i + 2):
                return i
            if cls is Multivector and not chunk.startswith("dx", i) and _digits_follow(
                chunk, i + 1
            ):
                return i
    return None


def _digits_follow(chunk: str, i: int) -> bool:
    return i < len(chunk) and chunk[i].isdigit()


def _parse_blade(chunk: str, start: int, m: int, cls) -> tuple[int, ...]:
    """Indices of the blade ``chunk[start:]``; errors give a column in ``chunk``."""
    text = chunk[start:]
    prefix = "dx" if cls is Form else "d"
    indices: list[int] = []
    position = start  # of the current axis, leading blanks included
    for axis in text.split("^"):
        column = f"column {position + 1 + len(axis) - len(axis.lstrip())}"
        position += len(axis) + 1
        axis = axis.strip()
        digits = axis[len(prefix) :]
        if not axis.startswith(prefix) or not digits.isdigit() or len(digits) > MAX_DIGITS:
            raise ParseError(f"malformed basis axis {axis!r}", column)
        index = int(digits)
        if not 1 <= index <= m:
            raise ParseError(f"axis index {index} outside chart of dimension {m}", column)
        indices.append(index)
    if len(set(indices)) != len(indices):
        raise ParseError(f"repeated index in blade {text!r}", f"column {start + 1}")
    if indices != sorted(indices):
        raise ParseError(
            f"blade indices must be strictly increasing in {text!r}", f"column {start + 1}"
        )
    return tuple(indices)


# -- structure files ----------------------------------------------------------


@dataclass(frozen=True)
class StructureFile:
    """Validated content of a structure file."""

    dimension: int
    order: int
    nvector: Multivector
    volume_constant: Fraction
    volume_exponent: Polynomial
    checks: tuple[str, ...] | None
    jet_degree: int | None

    def structure(self) -> NambuStructure:
        return NambuStructure(self.dimension, self.order, self.nvector)

    def volume(self) -> VolumeForm:
        return VolumeForm(self.volume_constant, self.volume_exponent)


# Stands in for a JSON integer literal of more than ``MAX_DIGITS`` digits:
# ``json`` converts integers before any schema check runs, and converting a
# long one fails with no location, so the schema checks reject this marker
# at its JSON path instead.
_LONG_LITERAL = object()


def _parse_json_int(text: str) -> int | object:
    return _LONG_LITERAL if len(text.lstrip("-")) > MAX_DIGITS else int(text)


def _check_literal(value: Any, location: str) -> None:
    if value is _LONG_LITERAL:
        raise ParseError(f"integer literal exceeds {MAX_DIGITS} digits", location)


def load_structure_text(text: str) -> StructureFile:
    try:
        doc = json.loads(text, parse_int=_parse_json_int)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return load_structure_dict(doc)


def load_structure_file(path: str | Path) -> StructureFile:
    return load_structure_text(Path(path).read_text(encoding="utf-8"))


def _require(doc: dict, key: str, kind, location: str):
    if key not in doc:
        raise ParseError(f"missing required field {key!r}", location=location)
    value = doc[key]
    _check_literal(value, f"{location}.{key}")
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParseError(
            f"field {key!r} must be of type {kind.__name__}", location=f"{location}.{key}"
        )
    return value


def load_structure_dict(doc: Any) -> StructureFile:
    if not isinstance(doc, dict):
        raise ParseError("structure file must be a JSON object", location="$")
    schema = _require(doc, "schema", str, "$")
    if schema != SCHEMA:
        raise ParseError(f"unsupported schema {schema!r}, expected {SCHEMA!r}", "$.schema")
    m = _require(doc, "dimension", int, "$")
    n = _require(doc, "order", int, "$")
    if not 1 <= m <= MAX_DIMENSION:
        raise ParseError(f"dimension must lie in 1..{MAX_DIMENSION}, got {m}", "$.dimension")
    if not 2 <= n <= m:
        raise ParseError(f"order must satisfy 2 <= n <= dimension, got {n}", "$.order")
    entries = _require(doc, "lambda", list, "$")
    components: dict[tuple[int, ...], Polynomial] = {}
    for pos, entry in enumerate(entries):
        location = f"$.lambda[{pos}]"
        if not isinstance(entry, dict):
            raise ParseError("component must be an object", location)
        index = _require(entry, "index", list, location)
        for i in index:
            _check_literal(i, f"{location}.index")
        if len(index) != n or not all(type(i) is int for i in index):
            raise ParseError(f"index must list {n} integers", f"{location}.index")
        if any(a >= b for a, b in zip(index, index[1:])):
            raise ParseError("index must be strictly increasing", f"{location}.index")
        if not all(1 <= i <= m for i in index):
            raise ParseError(f"index entries must lie in 1..{m}", f"{location}.index")
        key = tuple(index)
        if key in components:
            raise ParseError(f"duplicate index {index}", f"{location}.index")
        coeff_text = _require(entry, "coeff", str, location)
        try:
            coeff = parse_polynomial(coeff_text, m)
        except ParseError as exc:
            raise ParseError(str(exc), f"{location}.coeff") from exc
        components[key] = coeff
    nvector = Multivector(m, n, components)

    constant = Fraction(1)
    exponent = Polynomial.zero(m)
    if "volume" in doc:
        volume = doc["volume"]
        if not isinstance(volume, dict):
            raise ParseError("volume must be an object", "$.volume")
        if "constant" in volume:
            text = volume["constant"]
            if not isinstance(text, str):
                raise ParseError("volume constant must be a string", "$.volume.constant")
            # Fraction expands a decimal exponent eagerly: bound the digits first
            digits = len(text)
            power = text.lower().partition("e")[2].strip().lstrip("+-").replace("_", "")
            if power.isdecimal():
                digits += int(power) if len(power) < 10 else MAX_BITS
            if digits * math.log2(10) > MAX_BITS:
                raise ParseError(f"volume constant may exceed {MAX_BITS} bits", "$.volume.constant")
            try:
                constant = Fraction(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"invalid rational {text!r}", "$.volume.constant") from exc
            if constant == 0:
                raise ParseError("volume constant must be nonzero", "$.volume.constant")
        if "exponent" in volume:
            text = volume["exponent"]
            if not isinstance(text, str):
                raise ParseError("volume exponent must be a string", "$.volume.exponent")
            try:
                exponent = parse_polynomial(text, m)
            except ParseError as exc:
                raise ParseError(str(exc), "$.volume.exponent") from exc

    checks: tuple[str, ...] | None = None
    if "checks" in doc:
        raw = doc["checks"]
        if not isinstance(raw, list) or not all(isinstance(c, str) for c in raw):
            raise ParseError("checks must be a list of strings", "$.checks")
        if not raw:
            raise ParseError("checks must name at least one check", "$.checks")
        checks = tuple(raw)

    jet_degree: int | None = None
    if "jet_degree" in doc:
        raw = doc["jet_degree"]
        _check_literal(raw, "$.jet_degree")
        if not isinstance(raw, int) or isinstance(raw, bool) or raw < 2:
            raise ParseError("jet_degree must be an integer >= 2", "$.jet_degree")
        jet_degree = raw

    return StructureFile(
        dimension=m,
        order=n,
        nvector=nvector,
        volume_constant=constant,
        volume_exponent=exponent,
        checks=checks,
        jet_degree=jet_degree,
    )
