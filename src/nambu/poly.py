"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial on an ``m``-dimensional chart is a finite map from exponent
vectors (tuples of ``m`` non-negative ints) to nonzero exact rational
coefficients.  The zero polynomial is the empty map.  All operations
normalize their result (no stored zero coefficient), so two polynomials are
equal iff their stored representations are equal.

A coefficient is an ``int`` or a ``fractions.Fraction``, never a float or a
bool.  The constructor stores an integral value as ``int``, so arithmetic on
polynomials with ``int`` coefficients skips ``Fraction``'s gcd.  Operations
store what ``int`` and ``Fraction`` arithmetic returns (scalar
multiplication turns only an integral scalar into an ``int``), so a
``Fraction`` that an operation makes integral stays a ``Fraction``:
``Polynomial.constant(m, Fraction(3, 2)) * x1 * 2`` stores ``Fraction(3, 1)``.
Since ``3 == Fraction(3)`` and their hashes agree, equality and hashing do
not depend on which type holds a value.  ``Fraction`` enforces the rest of the
contract (lowest terms, positive denominator) and is re-exported as
``Rational``.  Code that divides coefficients divides through ``Fraction``,
because ``int / int`` is a float.

Each polynomial memoises its partial derivatives: ``diff(j)`` computes the
j-th partial once per instance and returns the same object afterwards.

A sum of many polynomials is ``poly_sum``: it collects the terms in one
dict, where a chain of ``+`` would build a new polynomial for each partial
sum.  ``-`` likewise runs one loop instead of negating its right operand.

Variables are positional and 1-based: ``x1`` .. ``xm``.  A chart context
fixes ``m`` for every object participating in a computation.

Text grammar (used for both parsing and canonical printing)::

    expr   :=  ['-'] term (('+' | '-') term)*
    term   :=  factor (('*' | '/') factor)*
    factor :=  base ('^' INT)?
    base   :=  INT | VAR | '(' expr ')'
    VAR    :=  'x' INT          (1-based index, 'x1' .. 'x9', 'x10', ...)

Division is restricted to nonzero constant divisors, which is enough for
rational literals like ``3/4`` or ``(x1+1)/2``.  Canonical printing orders
terms by graded lexicographic order, highest first (``x1`` dominates).
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence, Union

from .errors import ChartMismatchError, ParseError

Rational = Fraction

_Scalar = Union[int, Fraction]


def _exact(value: _Scalar) -> _Scalar:
    """``value`` as an ``int`` when it is integral, else as a ``Fraction``."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):  # bool and other int subclasses
        return int(value)
    raise ValueError(f"coefficient {value!r} is not an int or a Fraction")


def grlex_key(exponents: tuple[int, ...]) -> tuple:
    """Sort key of the grlex order of ``jet_exponents``: constants first,
    x1 before x2, x1^2 before x1*x2."""
    return (sum(exponents), tuple(-e for e in exponents))


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients.

    ``terms`` maps exponent tuples to nonzero ``int`` or ``Fraction``
    coefficients.  ``_partials`` holds the memoised ``diff`` results; it
    stays ``None`` until the first ``diff`` call.
    """

    __slots__ = ("num_vars", "terms", "_hash", "_partials")

    def __init__(self, num_vars: int, terms: Mapping[tuple[int, ...], _Scalar] | None = None):
        if num_vars < 1:
            raise ValueError(f"num_vars must be positive, got {num_vars}")
        normalized: dict[tuple[int, ...], _Scalar] = {}
        for exps, coeff in (terms or {}).items():
            if len(exps) != num_vars:
                raise ChartMismatchError(
                    f"exponent vector {exps} has length {len(exps)}, expected {num_vars}"
                )
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            value = _exact(coeff)
            if value:
                normalized[tuple(exps)] = value
        _set_num_vars(self, num_vars)
        _set_terms(self, normalized)
        _set_hash(self, None)
        _set_partials(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not __setattr__
        return Polynomial, (self.num_vars, self.terms)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, num_vars: int) -> Polynomial:
        return cls(num_vars)

    @classmethod
    def constant(cls, num_vars: int, value: _Scalar) -> Polynomial:
        return cls(num_vars, {(0,) * num_vars: value})

    @classmethod
    def one(cls, num_vars: int) -> Polynomial:
        return cls.constant(num_vars, 1)

    @classmethod
    def variable(cls, num_vars: int, index: int) -> Polynomial:
        """The coordinate function ``x<index>`` (1-based)."""
        if not 1 <= index <= num_vars:
            raise ChartMismatchError(f"variable index {index} outside 1..{num_vars}")
        exps = [0] * num_vars
        exps[index - 1] = 1
        return cls(num_vars, {tuple(exps): 1})

    @classmethod
    def monomial(cls, exponents: Sequence[int], coeff: _Scalar = 1) -> Polynomial:
        return cls(len(exponents), {tuple(exponents): coeff})

    # -- ring operations ---------------------------------------------------

    def _check_chart(self, other: Polynomial) -> None:
        if self.num_vars != other.num_vars:
            raise ChartMismatchError(
                f"chart dimension mismatch: {self.num_vars} vs {other.num_vars}"
            )

    def __add__(self, other: Polynomial | _Scalar) -> Polynomial:
        if type(other) is not Polynomial:
            if isinstance(other, (int, Fraction)):
                other = Polynomial.constant(self.num_vars, other)
            elif not isinstance(other, Polynomial):
                return NotImplemented
        self._check_chart(other)
        result = dict(self.terms)
        _merge_terms(result, other.terms)
        return _wrap(self.num_vars, result)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return _wrap(self.num_vars, {exps: -coeff for exps, coeff in self.terms.items()})

    def __sub__(self, other: Polynomial | _Scalar) -> Polynomial:
        if type(other) is not Polynomial:
            if isinstance(other, (int, Fraction)):
                other = Polynomial.constant(self.num_vars, other)
            elif not isinstance(other, Polynomial):
                return NotImplemented
        self._check_chart(other)
        result = dict(self.terms)
        _merge_terms(result, other.terms, True)
        return _wrap(self.num_vars, result)

    def __rsub__(self, other: _Scalar) -> Polynomial:
        return (-self) + other

    def __mul__(self, other: Polynomial | _Scalar) -> Polynomial:
        if type(other) is not Polynomial:
            if isinstance(other, (int, Fraction)):
                scalar = _exact(other)
                if not scalar:
                    return Polynomial.zero(self.num_vars)
                return _wrap(self.num_vars, {e: c * scalar for e, c in self.terms.items()})
            if not isinstance(other, Polynomial):
                return NotImplemented
        self._check_chart(other)
        result: dict[tuple[int, ...], _Scalar] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                key = tuple(map(add, ea, eb))
                acc = result.get(key)
                if acc is None:
                    result[key] = ca * cb
                else:
                    acc = acc + ca * cb
                    if acc:
                        result[key] = acc
                    else:
                        del result[key]
        return _wrap(self.num_vars, result)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Polynomial:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial powers must be non-negative integers")
        result = Polynomial.one(self.num_vars)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    # -- calculus ----------------------------------------------------------

    def diff(self, index: int) -> Polynomial:
        """Formal partial derivative with respect to ``x<index>`` (1-based).

        Computed once per instance and index; later calls return the same
        (immutable) polynomial.
        """
        if not 1 <= index <= self.num_vars:
            raise ChartMismatchError(f"variable index {index} outside 1..{self.num_vars}")
        partials = self._partials
        if partials is None:
            partials = [None] * self.num_vars
            _set_partials(self, partials)
        i = index - 1
        derivative = partials[i]
        if derivative is None:
            result: dict[tuple[int, ...], _Scalar] = {}
            for exps, coeff in self.terms.items():
                e = exps[i]
                if e:
                    key = exps[:i] + (e - 1,) + exps[i + 1 :]
                    result[key] = coeff * e
            derivative = partials[i] = _wrap(self.num_vars, result)
        return derivative

    def evaluate(self, point: Sequence[_Scalar]) -> Fraction:
        """Exact evaluation at a rational point."""
        if len(point) != self.num_vars:
            raise ChartMismatchError(
                f"point has {len(point)} coordinates, expected {self.num_vars}"
            )
        values = [Fraction(v) for v in point]
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for value, e in zip(values, exps):
                if e:
                    term *= value**e
            total += term
        return total

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(exps) for exps in self.terms)

    def constant_value(self) -> _Scalar:
        """Value of a constant polynomial."""
        if not self.terms:
            return 0
        [(exps, coeff)] = self.terms.items()
        if any(exps):
            raise ValueError(f"{self} is not constant")
        return coeff

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(exps) for exps in self.terms)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Polynomial:
            if isinstance(other, (int, Fraction)):
                other = Polynomial.constant(self.num_vars, other)
            elif not isinstance(other, Polynomial):
                return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.num_vars, frozenset(self.terms.items())))
            _set_hash(self, h)
        return h

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __repr__(self) -> str:
        return f"Polynomial({self.num_vars}, {self})"

    def __str__(self) -> str:
        return format_polynomial(self)


# ``__setattr__`` refuses assignment, so ``__init__``, ``diff`` and ``_wrap``
# write the slots through their descriptors, which is cheaper than
# ``object.__setattr__``.
_new = Polynomial.__new__
_set_num_vars, _set_terms, _set_hash, _set_partials = (
    Polynomial.__dict__[name].__set__ for name in Polynomial.__slots__
)


def _wrap(num_vars: int, terms: dict[tuple[int, ...], _Scalar]) -> Polynomial:
    """Trusted constructor for operation results; skips re-validation.

    The caller guarantees what ``__init__`` would check: every key is an
    exponent tuple of length ``num_vars`` with no negative entry, and every
    value is a nonzero ``int`` or ``Fraction``.
    """
    poly = _new(Polynomial)
    _set_num_vars(poly, num_vars)
    _set_terms(poly, terms)
    _set_hash(poly, None)
    _set_partials(poly, None)
    return poly


def _merge_terms(
    result: dict[tuple[int, ...], _Scalar],
    terms: Mapping[tuple[int, ...], _Scalar],
    negate: bool = False,
) -> None:
    """Add ``terms``, or subtract them when ``negate``, into ``result``;
    drop a term when it cancels."""
    for exps, coeff in terms.items():
        acc = result.get(exps)
        if acc is None:
            result[exps] = -coeff if negate else coeff
        else:
            acc = acc - coeff if negate else acc + coeff
            if acc:
                result[exps] = acc
            else:
                del result[exps]


def poly_sum(num_vars: int, summands: Iterable[Polynomial]) -> Polynomial:
    """Sum of polynomials on ``num_vars`` variables, collected in one dict.

    Equal to ``Polynomial.zero(num_vars) + s1 + s2 + ..``, term order
    included, without building a polynomial for each partial sum; a term
    that cancels is dropped as it cancels.
    """
    result: dict[tuple[int, ...], _Scalar] = {}
    for summand in summands:
        if summand.num_vars != num_vars:
            raise ChartMismatchError(
                f"chart dimension mismatch: {num_vars} vs {summand.num_vars}"
            )
        _merge_terms(result, summand.terms)
    return _wrap(num_vars, result)


# -- canonical printing ------------------------------------------------------


def _format_monomial(exponents: tuple[int, ...]) -> str:
    parts = []
    for i, e in enumerate(exponents, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts)


# Below the smallest int <-> str limit an interpreter may set (640 digits,
# ``sys.set_int_max_str_digits``): literals are bounded by it, ints print in chunks.
MAX_DIGITS = 600
_CHUNK = 10**MAX_DIGITS


def _decimal(value: int) -> str:
    """Exact decimal text of a non-negative int."""
    chunks = []
    while value >= _CHUNK:
        value, low = divmod(value, _CHUNK)
        chunks.append(str(low).zfill(MAX_DIGITS))
    return str(value) + "".join(reversed(chunks))


def _format_coefficient(coeff: _Scalar) -> str:
    """``a/b``, or ``a`` for an integer, of a positive int or Fraction (lowest terms)."""
    text = _decimal(coeff.numerator)
    return text if coeff.denominator == 1 else f"{text}/{_decimal(coeff.denominator)}"


def format_polynomial(poly: Polynomial) -> str:
    """Canonical text form, graded-lexicographic order, highest term first."""
    if not poly.terms:
        return "0"
    ordered = sorted(
        poly.terms.items(),
        key=lambda item: (-sum(item[0]), tuple(-e for e in item[0])),
    )
    pieces: list[str] = []
    for exps, coeff in ordered:
        monomial = _format_monomial(exps)
        magnitude = abs(coeff)
        if monomial and magnitude == 1:
            body = monomial
        elif monomial:
            body = f"{_format_coefficient(magnitude)}*{monomial}"
        else:
            body = _format_coefficient(magnitude)
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(pieces)


# -- parsing -----------------------------------------------------------------


# Each open parenthesis costs five nested parser calls; this bound keeps the
# recursion far below the interpreter's limit.
_MAX_NESTING = 100
# Bounds that stop a short input from asking for an unbounded computation:
# the exponent of a power, the number of terms a power or a product may
# produce, and the coefficient size in bits a power (or, in ``textio``, a
# volume constant) may produce.
_MAX_EXPONENT = 100
_MAX_TERMS = 1000
MAX_BITS = 100_000


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message: str, pos: int | None = None) -> ParseError:
        column = (self.pos if pos is None else pos) + 1
        return ParseError(message, location=f"column {column}")

    def peek(self) -> str | None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def take_int(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise self.error("expected an integer")
        if self.pos - start > MAX_DIGITS:
            raise self.error(f"integer literal exceeds {MAX_DIGITS} digits", start)
        return int(self.text[start : self.pos])


def parse_polynomial(text: str, num_vars: int) -> Polynomial:
    """Parse ``text`` in the expression grammar on an ``num_vars``-dim chart."""
    tokens = _Tokenizer(text)
    result = _parse_expr(tokens, num_vars)
    if tokens.peek() is not None:
        raise tokens.error(f"unexpected character {tokens.text[tokens.pos]!r}")
    return result


def _parse_expr(tok: _Tokenizer, num_vars: int) -> Polynomial:
    ch = tok.peek()
    negate = False
    if ch == "-":
        tok.pos += 1
        negate = True
    elif ch == "+":
        tok.pos += 1
    result = _parse_term(tok, num_vars)
    if negate:
        result = -result
    while True:
        ch = tok.peek()
        if ch == "+":
            tok.pos += 1
            result = result + _parse_term(tok, num_vars)
        elif ch == "-":
            tok.pos += 1
            result = result - _parse_term(tok, num_vars)
        else:
            return result


def _parse_term(tok: _Tokenizer, num_vars: int) -> Polynomial:
    result = _parse_factor(tok, num_vars)
    while True:
        ch = tok.peek()
        if ch == "*":
            star = tok.pos
            tok.pos += 1
            factor = _parse_factor(tok, num_vars)
            if len(result.terms) * len(factor.terms) > _MAX_TERMS:
                raise tok.error(f"product may exceed {_MAX_TERMS} terms", star)
            result = result * factor
        elif ch == "/":
            tok.pos += 1
            divisor = _parse_factor(tok, num_vars)
            if not divisor.is_constant():
                raise tok.error("division is only defined by nonzero constants")
            value = divisor.constant_value()
            if not value:
                raise tok.error("division by zero")
            result = result * Fraction(1, value)
        else:
            return result


def _parse_factor(tok: _Tokenizer, num_vars: int) -> Polynomial:
    base = _parse_base(tok, num_vars)
    if tok.peek() != "^":
        return base
    caret = tok.pos
    tok.pos += 1
    if tok.peek() is None or not tok.text[tok.pos].isdigit():
        raise tok.error("exponent must be a non-negative integer")
    exponent = tok.take_int()
    if exponent > _MAX_EXPONENT:
        raise tok.error(f"exponent {exponent} exceeds {_MAX_EXPONENT}", caret)
    # a t-term base has at most C(t+e-1, e) terms in its e-th power
    if math.comb(max(len(base.terms), 1) + exponent - 1, exponent) > _MAX_TERMS:
        raise tok.error(f"power may exceed {_MAX_TERMS} terms", caret)
    bits = max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in base.terms.values()),
        default=0,
    )
    if exponent * bits > MAX_BITS:
        raise tok.error(f"power may exceed {MAX_BITS}-bit coefficients", caret)
    return base ** exponent


def _parse_base(tok: _Tokenizer, num_vars: int) -> Polynomial:
    negate = False
    while tok.peek() == "-":
        tok.pos += 1
        negate = not negate
    base = _parse_signless_base(tok, num_vars)
    return -base if negate else base


def _parse_signless_base(tok: _Tokenizer, num_vars: int) -> Polynomial:
    ch = tok.peek()
    if ch is None:
        raise tok.error("unexpected end of expression")
    if ch == "(":
        if tok.depth == _MAX_NESTING:
            raise tok.error(f"parentheses nested deeper than {_MAX_NESTING}")
        tok.pos += 1
        tok.depth += 1
        inner = _parse_expr(tok, num_vars)
        if tok.peek() != ")":
            raise tok.error("expected ')'")
        tok.pos += 1
        tok.depth -= 1
        return inner
    if ch == "x":
        tok.pos += 1
        index = tok.take_int()
        if not 1 <= index <= num_vars:
            raise tok.error(f"variable x{index} outside chart of dimension {num_vars}")
        return Polynomial.variable(num_vars, index)
    if ch.isdigit():
        return Polynomial.constant(num_vars, tok.take_int())
    raise tok.error(f"unexpected character {ch!r}")


def jet_exponents(num_vars: int, max_degree: int) -> list[tuple[int, ...]]:
    """Exponent vectors of total degree <= max_degree, ascending grlex order.

    This is the pinned enumeration order for all verifier sweeps: the
    constant monomial first, then x1, x2, ..., then x1^2, x1*x2, ...
    """
    if max_degree < 0:
        return []
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int], budget: int, slots: int) -> None:
        if slots == 0:
            out.append(tuple(prefix))
            return
        for e in range(budget + 1):
            prefix.append(e)
            extend(prefix, budget - e, slots - 1)
            prefix.pop()

    extend([], max_degree, num_vars)
    return sorted(out, key=grlex_key)


def jet_monomials(num_vars: int, max_degree: int) -> list[Polynomial]:
    """Monomial test functions x^gamma with |gamma| <= max_degree."""
    return [Polynomial.monomial(exps) for exps in jet_exponents(num_vars, max_degree)]
