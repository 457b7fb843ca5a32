"""Skew-symmetric tensor calculus with polynomial coefficients.

Forms and multivectors on an ``m``-dimensional chart are stored on strictly
increasing multi-indices only; permutation signs are computed when
components are assembled, never stored.  Degree-1 multivectors double as
vector fields.

Conventions (fixed once, used everywhere):

* pairing: ``<dx^I, d_J> = delta_IJ`` for increasing multi-indices, so
  ``pair(omega, P) = sum_I omega_I * P^I``;
* contraction of a form into a multivector is the adjoint of left wedge:
  ``<gamma, contract_form(alpha, P)> = <alpha ^ gamma, P>`` for every test
  form ``gamma``.  With this choice the Hamiltonian field of ``alpha``
  applied to ``f`` equals the full bracket pairing with no extra sign;
* interior product by a vector field is evaluation in the first slot:
  ``contract_vec(X, omega)(Y1, ..) = omega(X, Y1, ..)``.

Operation results are canonical (no stored zero coefficient).
``_accumulate`` is the one place where a sum of components that cancels is
dropped; ``+`` and ``-`` run through it too.  A scalar result that is a sum
(``pair``, ``apply_vec``) is collected by ``poly.poly_sum``.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import reduce

from .errors import ChartMismatchError, DegreeError
from .poly import Polynomial, format_polynomial, poly_sum

_Scalar = int | Fraction | Polynomial

# strictly increasing chart indices, 1-based
MultiIndex = tuple[int, ...]


def check_multi_index(indices: tuple[int, ...], m: int) -> None:
    if any(not 1 <= i <= m for i in indices):
        raise DegreeError(f"multi-index {indices} outside chart range 1..{m}")
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise DegreeError(f"multi-index {indices} is not strictly increasing")


def _accumulate(
    result: dict[tuple[int, ...], Polynomial],
    key: tuple[int, ...],
    value: Polynomial,
    negate: bool = False,
) -> None:
    """Add ``value``, or subtract it when ``negate``, into ``result[key]``;
    drop the key when the sum is zero."""
    acc = result.get(key)
    if acc is None:
        if negate:
            value = -value
    else:
        value = acc - value if negate else acc + value
    if value.terms:
        result[key] = value
    else:
        result.pop(key, None)


def merge_sign(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """Sign and sorted union for concatenating two increasing multi-indices.

    Returns ``(0, ())`` when the indices overlap.  The sign is the parity of
    the permutation sorting ``left + right``, i.e. ``(-1)**inversions``.
    """
    inversions = 0
    for a in left:
        for b in right:
            if a == b:
                return 0, ()
            if a > b:
                inversions += 1
    merged = tuple(sorted(left + right))
    return (-1 if inversions % 2 else 1), merged


class _Alternating:
    """Shared implementation of forms and multivectors."""

    __slots__ = ("m", "degree", "components")

    def __init__(
        self,
        m: int,
        degree: int,
        components: Mapping[tuple[int, ...], Polynomial] | None = None,
    ):
        if m < 1:
            raise ValueError(f"chart dimension must be positive, got {m}")
        if degree < 0:
            raise DegreeError(f"tensor degree must be non-negative, got {degree}")
        normalized: dict[tuple[int, ...], Polynomial] = {}
        for indices, coeff in (components or {}).items():
            indices = tuple(indices)
            if len(indices) != degree:
                raise DegreeError(
                    f"multi-index {indices} has length {len(indices)}, expected {degree}"
                )
            check_multi_index(indices, m)
            if coeff.num_vars != m:
                raise ChartMismatchError(
                    f"coefficient on {coeff.num_vars} variables, chart has {m}"
                )
            if not coeff.is_zero():
                normalized[indices] = coeff
        if degree > m and normalized:
            raise DegreeError(f"nonzero tensor of degree {degree} > dimension {m}")
        _set_m(self, m)
        _set_degree(self, degree)
        _set_components(self, normalized)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not __setattr__
        return type(self), (self.m, self.degree, self.components)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m: int, degree: int):
        return cls(m, degree)

    @classmethod
    def basis(cls, m: int, indices: Iterable[int]):
        """Unit basis tensor on the given strictly increasing indices."""
        indices = tuple(indices)
        return cls(m, len(indices), {indices: Polynomial.one(m)})

    @classmethod
    def from_scalar(cls, value: Polynomial):
        return cls(value.num_vars, 0, {(): value})

    # -- linear structure ----------------------------------------------------

    def _check_compatible(self, other: _Alternating) -> None:
        if type(self) is not type(other):
            raise DegreeError(
                f"kind mismatch: {type(self).__name__} vs {type(other).__name__}"
            )
        if self.m != other.m:
            raise ChartMismatchError(f"chart dimension mismatch: {self.m} vs {other.m}")
        if self.degree != other.degree:
            raise DegreeError(f"degree mismatch: {self.degree} vs {other.degree}")

    @classmethod
    def _wrap(cls, m: int, degree: int, components: dict[tuple[int, ...], Polynomial]):
        """Trusted constructor for operation results; skips re-validation.

        The caller guarantees what ``__init__`` would check: every key is a
        strictly increasing multi-index in ``1..m`` of length ``degree``, no
        coefficient is zero, and there is no component when ``degree > m``.
        It writes the slots through their descriptors, as ``__init__`` does.
        """
        tensor = _new(cls)
        _set_m(tensor, m)
        _set_degree(tensor, degree)
        _set_components(tensor, components)
        return tensor

    def __add__(self, other):
        self._check_compatible(other)
        result = dict(self.components)
        for indices, coeff in other.components.items():
            _accumulate(result, indices, coeff)
        return self._wrap(self.m, self.degree, result)

    def __neg__(self):
        return self._wrap(self.m, self.degree, {i: -c for i, c in self.components.items()})

    def __sub__(self, other):
        self._check_compatible(other)
        result = dict(self.components)
        for indices, coeff in other.components.items():
            _accumulate(result, indices, coeff, True)
        return self._wrap(self.m, self.degree, result)

    def __mul__(self, scalar: _Scalar):
        """Multiplication by a rational or polynomial scalar."""
        if type(scalar) is not Polynomial:
            if isinstance(scalar, (int, Fraction)):
                scalar = Polynomial.constant(self.m, scalar)
            elif not isinstance(scalar, Polynomial):
                return NotImplemented
        if scalar.num_vars != self.m:
            raise ChartMismatchError(
                f"scalar on {scalar.num_vars} variables, chart has {self.m}"
            )
        result: dict[tuple[int, ...], Polynomial] = {}
        for indices, coeff in self.components.items():
            product = coeff * scalar
            if not product.is_zero():
                result[indices] = product
        return self._wrap(self.m, self.degree, result)

    __rmul__ = __mul__

    # -- queries -----------------------------------------------------------

    def component(self, indices: Iterable[int]) -> Polynomial:
        """Coefficient on an increasing multi-index (zero when absent)."""
        indices = tuple(indices)
        check_multi_index(indices, self.m)
        return self.components.get(indices, Polynomial.zero(self.m))

    def scalar(self) -> Polynomial:
        """The single coefficient of a degree-0 tensor."""
        if self.degree != 0:
            raise DegreeError(f"tensor has degree {self.degree}, not 0")
        return self.components.get((), Polynomial.zero(self.m))

    def is_zero(self) -> bool:
        return not self.components

    def __bool__(self) -> bool:
        return bool(self.components)

    def __eq__(self, other: object) -> bool:
        if type(self) is not type(other):
            return NotImplemented
        return (
            self.m == other.m
            and self.degree == other.degree
            and self.components == other.components
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.m, self.degree,
                     frozenset(self.components.items())))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.m}, {self.degree}, {format_tensor(self)!r})"


# ``__setattr__`` refuses assignment, so ``__init__`` and ``_wrap`` write the
# slots through their descriptors, which is cheaper than ``object.__setattr__``.
_new = object.__new__
_set_m, _set_degree, _set_components = (
    _Alternating.__dict__[name].__set__ for name in _Alternating.__slots__
)


class Form(_Alternating):
    """Differential k-form with polynomial coefficients."""

    __slots__ = ()


class Multivector(_Alternating):
    """Skew-symmetric k-vector field with polynomial coefficients."""

    __slots__ = ()


# -- tensor printing ----------------------------------------------------------


def format_tensor(tensor) -> str:
    """Canonical text of a Form or Multivector."""
    if tensor.is_zero():
        return "0"
    if tensor.degree == 0:
        return format_polynomial(tensor.scalar())
    prefix = "dx" if isinstance(tensor, Form) else "d"
    pieces: list[str] = []
    for indices in sorted(tensor.components):
        blade = "^".join(f"{prefix}{i}" for i in indices)
        body, negative = _coefficient_text(tensor.components[indices], blade)
        if not pieces:
            pieces.append(f"-{body}" if negative else body)
        else:
            pieces.append(f"- {body}" if negative else f"+ {body}")
    return " ".join(pieces)


def _coefficient_text(coeff: Polynomial, blade: str) -> tuple[str, bool]:
    """Render one component; factor a single leading sign out when possible."""
    if coeff == Polynomial.one(coeff.num_vars):
        return blade, False
    if coeff == -Polynomial.one(coeff.num_vars):
        return blade, True
    if len(coeff.terms) == 1:
        [(exps, value)] = coeff.terms.items()
        magnitude = Polynomial.monomial(exps, abs(value))
        return f"{format_polynomial(magnitude)}*{blade}", value < 0
    return f"({format_polynomial(coeff)})*{blade}", False


def wedge(a, b):
    """Graded-skew wedge product of two tensors of the same kind."""
    if type(a) is not type(b):
        raise DegreeError(f"kind mismatch: {type(a).__name__} vs {type(b).__name__}")
    if a.m != b.m:
        raise ChartMismatchError(f"chart dimension mismatch: {a.m} vs {b.m}")
    degree = a.degree + b.degree
    result: dict[tuple[int, ...], Polynomial] = {}
    for ia, ca in a.components.items():
        for ib, cb in b.components.items():
            sign, merged = merge_sign(ia, ib)
            if sign == 0:
                continue
            _accumulate(result, merged, ca * cb, sign < 0)
    # Degree overflow (> m) makes every index pair overlap, so the result is
    # the exact zero of the nominal degree.
    return type(a)._wrap(a.m, degree, result)


def wedge_all(factors: Sequence):
    """Wedge product ``factors[0] ^ factors[1] ^ ..`` of one or more tensors."""
    return reduce(wedge, factors)


def pair(omega: Form, mv: Multivector) -> Polynomial:
    """Canonical pairing of a k-form with a k-vector."""
    if not isinstance(omega, Form) or not isinstance(mv, Multivector):
        raise DegreeError("pair expects (Form, Multivector)")
    if omega.m != mv.m:
        raise ChartMismatchError(f"chart dimension mismatch: {omega.m} vs {mv.m}")
    if omega.degree != mv.degree:
        raise DegreeError(f"degree mismatch: {omega.degree} vs {mv.degree}")
    small, large = omega.components, mv.components
    if len(large) < len(small):
        small, large = large, small
    return poly_sum(
        omega.m, [coeff * large[indices] for indices, coeff in small.items() if indices in large]
    )


def contract_form(alpha: Form, mv: Multivector) -> Multivector:
    """Contraction ``i(alpha)P``, adjoint of left wedge on the form side.

    Defined by ``<gamma, i(alpha)P> = <alpha ^ gamma, P>`` for every form
    ``gamma`` of the complementary degree.
    """
    if not isinstance(alpha, Form) or not isinstance(mv, Multivector):
        raise DegreeError("contract_form expects (Form, Multivector)")
    if alpha.m != mv.m:
        raise ChartMismatchError(f"chart dimension mismatch: {alpha.m} vs {mv.m}")
    if alpha.degree > mv.degree:
        raise DegreeError(
            f"cannot contract degree {alpha.degree} form into degree {mv.degree} multivector"
        )
    result: dict[tuple[int, ...], Polynomial] = {}
    for ia, ca in alpha.components.items():
        index_set = set(ia)
        for ib, cb in mv.components.items():
            if not index_set.issubset(ib):
                continue
            rest = tuple(i for i in ib if i not in index_set)
            sign, _ = merge_sign(ia, rest)
            _accumulate(result, rest, ca * cb, sign < 0)
    return Multivector._wrap(mv.m, mv.degree - alpha.degree, result)


def contract_vec(vector: Multivector, omega: Form) -> Form:
    """Interior product ``i_X omega``: evaluation of ``omega`` in its first slot."""
    if not isinstance(vector, Multivector) or vector.degree != 1:
        raise DegreeError("contract_vec expects a degree-1 multivector")
    if not isinstance(omega, Form):
        raise DegreeError("contract_vec expects a Form")
    if vector.m != omega.m:
        raise ChartMismatchError(f"chart dimension mismatch: {vector.m} vs {omega.m}")
    if omega.degree < 1:
        raise DegreeError("cannot contract a vector into a 0-form")
    result: dict[tuple[int, ...], Polynomial] = {}
    for indices, coeff in omega.components.items():
        for position, j in enumerate(indices):
            xj = vector.components.get((j,))
            if xj is None:
                continue
            rest = indices[:position] + indices[position + 1 :]
            _accumulate(result, rest, coeff * xj, position % 2)
    return Form._wrap(omega.m, omega.degree - 1, result)


def differential(f: Polynomial) -> Form:
    """The exact 1-form df."""
    m = f.num_vars
    components: dict[tuple[int, ...], Polynomial] = {}
    for j in range(1, m + 1):
        partial = f.diff(j)
        if partial.terms:
            components[(j,)] = partial
    return Form._wrap(m, 1, components)


def ext_d(omega: Form) -> Form:
    """Coordinate exterior derivative."""
    if not isinstance(omega, Form):
        raise DegreeError("ext_d expects a Form")
    result: dict[tuple[int, ...], Polynomial] = {}
    for indices, coeff in omega.components.items():
        for j in range(1, omega.m + 1):
            # dx^j ^ dx^I vanishes for j in I: skip it before differentiating
            if j in indices:
                continue
            derivative = coeff.diff(j)
            if not derivative.terms:
                continue
            sign, merged = merge_sign((j,), indices)
            _accumulate(result, merged, derivative, sign < 0)
    return Form._wrap(omega.m, omega.degree + 1, result)


def apply_vec(vector: Multivector, f: Polynomial) -> Polynomial:
    """Vector field acting on a function: ``sum_j X^j df/dx^j``."""
    if not isinstance(vector, Multivector) or vector.degree != 1:
        raise DegreeError("apply_vec expects a degree-1 multivector")
    if vector.m != f.num_vars:
        raise ChartMismatchError(f"chart dimension mismatch: {vector.m} vs {f.num_vars}")
    return poly_sum(vector.m, [coeff * f.diff(j) for (j,), coeff in vector.components.items()])


def lie_form(vector: Multivector, omega: Form) -> Form:
    """Lie derivative of a form, Cartan formula ``i_X d + d i_X``."""
    result = contract_vec(vector, ext_d(omega))
    if omega.degree >= 1:
        result = result + ext_d(contract_vec(vector, omega))
    return result


def lie_mv(vector: Multivector, mv: Multivector) -> Multivector:
    """Lie derivative of a multivector by the component formula.

    ``(L_X P)^I = X(P^I) - sum_s sum_j (d_j X^{i_s}) P^{i_1 .. j .. i_k}``
    where the replaced index string is re-sorted with its skew sign.
    For degree 1 this is the bracket of vector fields; for degree 0, with no
    index to swap, it is ``X(P)``.
    """
    if not isinstance(vector, Multivector) or vector.degree != 1:
        raise DegreeError("lie_mv expects a degree-1 multivector")
    if not isinstance(mv, Multivector):
        raise DegreeError("lie_mv expects a Multivector")
    if vector.m != mv.m:
        raise ChartMismatchError(f"chart dimension mismatch: {vector.m} vs {mv.m}")
    m = mv.m
    result: dict[tuple[int, ...], Polynomial] = {}
    # derivatives[(j, i)] = d(X^i)/dx^j, nonzero entries only
    derivatives: dict[tuple[int, int], Polynomial] = {}
    for (i,), coeff in vector.components.items():
        for j in range(1, m + 1):
            partial = coeff.diff(j)
            if not partial.is_zero():
                derivatives[(j, i)] = partial
    for indices, coeff in mv.components.items():
        _accumulate(result, indices, apply_vec(vector, coeff))
        # Stored component P^B feeds every output component obtained by
        # swapping one index ``old`` of B for a new index ``t``, weighted by
        # -d(X^t)/dx^old and the two re-sorting signs.
        for position, old in enumerate(indices):
            rest = indices[:position] + indices[position + 1 :]
            sign_old = -1 if position % 2 else 1
            for t in range(1, m + 1):
                partial = derivatives.get((old, t))
                if partial is None:
                    continue
                sign_t, merged = merge_sign((t,), rest)
                if sign_t == 0:
                    continue
                _accumulate(result, merged, partial * coeff, sign_old * sign_t > 0)
    return Multivector._wrap(m, mv.degree, result)
