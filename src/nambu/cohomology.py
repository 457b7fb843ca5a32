"""Modular multivector, low-degree coboundaries, and exactness search.

Volume forms are restricted to the family ``c * e^p * dx^1 ^ .. ^ dx^m``
with rational ``c != 0`` and polynomial exponent ``p``: the family is closed
under the positive rescalings used by the volume-independence statement,
and it keeps every computation inside the polynomial ring, since the Lie
derivative of such a volume along a field X is ``(div X + X(p))``
(``volume_divergence``) times the volume.

A tensorial 1-cochain is an (n-1)-vector w, acting on (n-1)-forms by ``a ->
<a, w>``.  The degree-0 coboundary of a function f (``cobound0``) is the
(n-1)-vector

    w_f = (-1)^(n-1) * contract_form(df, lam),

the sign forced by the adjunction convention of the contraction so that
``pair(a, w_f) = sharp(a)(f)`` for every (n-1)-form a.  Since
``differential(x^e) = sum_j e_j x^(e - 1_j) dx_j`` and ``contract_form`` is
linear over polynomials in its form argument, the coboundary of a monomial
is read off the m coordinate columns ``W_j = w_(x_j)``:

    w_(x^e) = sum_j e_j * x^(e - 1_j) * W_j,

so the column of ``x^e`` has the entry ``e_j v`` at the row
``(C, e - 1_j + a)`` for each term ``(C, a, v)`` of ``W_j`` with
``e_j >= 1``, summed over j, and the row ``(C, r)`` meets the column
``r - a + 1_j`` for each such term with ``a <= r``.  ``exactness_witness``
walks these incidences from the rows of the target, assembles each column
when the walk first reaches it, and solves only the columns reached.  That
is exact: the connected components of the bipartite graph of rows and
columns are blocks that share no column, so elimination in one never
touches another, and a block without a target row is homogeneous, so its
solution with the free variables at zero is zero.  The walk also follows
entries that cancel, so its graph may have more edges than the system; a
vertex set closed under more edges is still a union of components.  The
degree-1 coboundary of a tensorial cochain w evaluates as

    sharp(a)<b, w> - sharp(b)<a, w> - <lbracket(a, b), w>   (``cobound1_eval``).

For any n-vector it is tensorial in its second slot, ``cobound1(w)(a, b) =
<b, U(a)>`` with the cocycle defect

    U(a) = D_a w - cobound0(<a, w>)

(``cocycle_defect``), with the dual action ``D_a P = L_{sharp a} P - (-1)^n
<d a, lam> P`` of ``structure``, since ``sharp(a)<b, w> - <L_{sharp a} b, w>
= <b, L_{sharp a} w>`` and ``pair(b, cobound0(h)) = sharp(b)(h)``.  U
reads no ``lbracket`` and, like the anchor defect T of ``structure``, is
first-order in the function slot (``cobound0`` is a derivation).  So
``verify_cocycle`` scans U as T is scanned, through
``structure.defect_scan``, whose hit is the first failing pair of the jet
grid (``structure`` docstring), and ``cobound1_eval`` re-checks it.  The
blind spot: where U vanishes, a fault in ``cobound1_eval`` alone goes unseen.

For the modular multivector M the cocycle defect is the divergence of the
anchor defect T of ``structure``: for every n-vector, every volume ``c e^p
dx^1 ^ .. ^ dx^m`` and every (n-1)-form a,

    U_M(a) = (-1)^(n+1) d_nu T(a),   d_nu P = sum_j d_j(i(dx_j) P) + i(dp) P,

with i the contraction ``contract_form`` (the Nambu form of the BV
identity, in which d_nu generates the bracket and M is ``(-1)^(n+1) d_nu
lam``; certified by the test suite against a dense d_nu).  A pass of the
run's anchor-defect scan proves T zero on every polynomial form (``structure``
docstring), so U_M is zero and ``verify_modular_cocycle`` passes on it with
no evaluation of its own; this is the source paper's statement that the
modular cochain is a cocycle of the Leibniz algebroid.  A zero cochain
passes unscanned too, since ``U(a) = D_a 0 - cobound0(0) = 0`` for every
n-vector.  Only when M is nonzero and T fails is U_M scanned, as
``verify_cocycle`` scans U.  ``verify_cocycle`` itself, for a general w,
keeps its own scan: the identity holds only for w = M.  Two more blind
spots follow: on a pass of T, and wherever M is zero, no cocycle defect is
evaluated, so a fault in ``cocycle_defect`` alone goes unseen there.

The volume identity ``lsv_residual`` is zero for every n-vector, Nambu-Poisson
or not: with ``a = f dx^I`` and ``X_I = sharp(dx^I)``, ``div(f X_I) =
f div(X_I) + X_I(f)``, and ``X_I(f) = (-1)^(n-1) <d a, lam>`` since ``d a =
df ^ dx^I``.  Like characterization, it says that the modular multivector
agrees with its definition.  It is first-order in ``f``, so ``verify_lsv``
sweeps the rows of degree <= 1 (capped rows, ``structure`` docstring).
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from fractions import Fraction
from functools import partial
from operator import add

from .algebroid import lbracket
from .errors import ChartMismatchError, DegreeError
from .exterior import (
    Form,
    Multivector,
    apply_vec,
    contract_form,
    differential,
    pair,
)
from .poly import Polynomial, grlex_key, poly_sum
from .structure import (
    CheckReport,
    JetBasis,
    NambuStructure,
    Record,
    anchor_defect_scan,
    bracket_scale,
    certify,
    certify_forms,
    defect_scan,
    dual_action,
    first_hit,
    sharp,
)


class VolumeForm(Record):
    """Nonvanishing volume ``c * e^p * dx^1 ^ .. ^ dx^m``."""

    c: Fraction
    p: Polynomial

    def __post_init__(self):
        if not isinstance(self.c, (int, Fraction)):
            raise ValueError(f"volume constant {self.c!r} is not an int or a Fraction")
        object.__setattr__(self, "c", Fraction(self.c))
        if self.c == 0:
            raise ValueError("volume constant must be nonzero")

    @property
    def m(self) -> int:
        return self.p.num_vars

    def rescaled(self, q: Polynomial) -> VolumeForm:
        """The volume ``e^q`` times this one."""
        return VolumeForm(self.c, self.p + q)

    @classmethod
    def standard(cls, m: int) -> VolumeForm:
        return cls(Fraction(1), Polynomial.zero(m))


def volume_structure(volume: VolumeForm, m: int) -> NambuStructure:
    """The order-m structure whose bracket is the Jacobian against the volume.

    Only constant volumes (zero exponent) are supported: a non-constant
    exponent would force coefficients outside the polynomial ring.
    """
    if volume.m != m:
        raise ChartMismatchError(f"volume on {volume.m} variables, chart has {m}")
    if not volume.p.is_zero():
        raise ValueError("volume_structure requires a constant volume (zero exponent)")
    top = Multivector.basis(m, tuple(range(1, m + 1))) * Fraction(1, volume.c)
    return NambuStructure(m, m, top)


def divergence(vector: Multivector) -> Polynomial:
    """``sum_j d(X^j)/dx^j`` of a vector field."""
    if vector.degree != 1:
        raise DegreeError("divergence expects a degree-1 multivector")
    return poly_sum(vector.m, [coeff.diff(j) for (j,), coeff in vector.components.items()])


def volume_divergence(vector: Multivector, volume: VolumeForm) -> Polynomial:
    """``div X + X(p)``, the density of the Lie derivative of the volume
    ``c e^p dx^1 ^ .. ^ dx^m`` along the field X (module docstring)."""
    return divergence(vector) + apply_vec(vector, volume.p)


def _check_volume(structure: NambuStructure, volume: VolumeForm) -> None:
    if volume.m != structure.m:
        raise ChartMismatchError(
            f"volume on {volume.m} variables, chart has {structure.m}"
        )


def modular_multivector(structure: NambuStructure, volume: VolumeForm) -> Multivector:
    """The (n-1)-vector measuring divergence of Hamiltonian fields.

    Component at increasing I: ``div(X_I) + X_I(p)`` where ``X_I`` is the
    Hamiltonian field of the coordinate functions indexed by I.  Since
    ``dx_(i1) ^ .. ^ dx_(ik) = dx^I``, that field is the unit anchor
    ``X_I = sharp(dx^I)``, read from the structure's table.
    """
    _check_volume(structure, volume)
    m, n = structure.m, structure.n
    components: dict[tuple[int, ...], Polynomial] = {}
    for indices in itertools.combinations(range(1, m + 1), n - 1):
        value = volume_divergence(sharp(structure, Form.basis(m, indices)), volume)
        if not value.is_zero():
            components[indices] = value
    return Multivector(m, n - 1, components)


def cobound0(structure: NambuStructure, f: Polynomial) -> Multivector:
    """Degree-0 coboundary: the (n-1)-vector w of the cochain
    ``a -> <a, w> = sharp(a)(f)``."""
    if f.num_vars != structure.m:
        raise ChartMismatchError(
            f"function on {f.num_vars} variables, chart has {structure.m}"
        )
    w = contract_form(differential(f), structure.nvector)
    return -w if (structure.n - 1) % 2 else w


def cobound1_eval(
    structure: NambuStructure, w: Multivector, alpha: Form, beta: Form
) -> Polynomial:
    """Degree-1 coboundary of the tensorial cochain ``<., w>`` of an
    (n-1)-vector w, evaluated on a pair."""
    value = apply_vec(sharp(structure, alpha), pair(beta, w))
    value = value - apply_vec(sharp(structure, beta), pair(alpha, w))
    return value - pair(lbracket(structure, alpha, beta), w)


def cocycle_defect(structure: NambuStructure, w: Multivector, alpha: Form) -> Multivector:
    """``U(a) = D_a w - cobound0(<a, w>)``, D the dual action
    ``structure.dual_action``, whose pairing with an (n-1)-form b is
    ``cobound1`` of the cochain ``<., w>`` at ``(a, b)`` (module docstring)."""
    return dual_action(structure, alpha, w) - cobound0(structure, pair(alpha, w))


# -- volume identity -------------------------------------------------------------


def lsv_residual(
    structure: NambuStructure, volume: VolumeForm, alpha: Form,
    modular: Multivector | None = None,
) -> Polynomial:
    """Residual of the Lie-derivative-of-volume identity for one form.

    ``volume_divergence(sharp a) - pair(a, M) + (-1)^n pair(d a, lam)``
    where M is the modular multivector; zero for every (n-1)-form exactly
    when the cochain ``<., M>`` captures all volume divergences.
    """
    if modular is None:
        modular = modular_multivector(structure, volume)
    value = volume_divergence(sharp(structure, alpha), volume) - pair(alpha, modular)
    return value + bracket_scale(structure, alpha)


def verify_lsv(basis: JetBasis, volume: VolumeForm) -> CheckReport:
    """Certify the volume identity over the jet basis of (n-1)-forms.

    The residual is first-order in the coefficient, so the basis forms on
    the rows of degree <= 1, a prefix of the full order, certify it and
    locate its first failure (``structure`` docstring).  ``items_checked``
    counts the basis forms certified, up to the first failure.
    """
    swept = basis.swept
    modular = modular_multivector(swept, volume)
    rows = list(itertools.product(basis.capped(1), basis.index_sets))

    def residual(*point) -> Polynomial:
        return lsv_residual(swept, volume, *basis.forms(point), modular)

    hit = first_hit(rows, residual)
    items = basis.size() if hit is None else rows.index(hit) + 1
    return certify_forms(basis, "lsv", items, hit, partial(lsv_residual, basis.structure, volume))


# -- cocycle sweep ---------------------------------------------------------------


def _cocycle_report(
    basis: JetBasis, check: str, w_of: Callable[[NambuStructure], Multivector]
) -> CheckReport:
    """Scan the cocycle defect of ``w_of(basis.swept)`` on ``basis.swept``
    and report its first failing pair (``defect_scan``) with
    ``w_of(basis.structure)`` on ``basis.structure``.  ``cobound1`` is
    linear in the n-vector for a fixed cochain, and each (n-1)-vector is the
    same multiple of the other on both.  A zero cochain passes unscanned:
    ``U(a) = D_a 0 - cobound0(0) = 0`` for every n-vector."""
    w = w_of(basis.swept)
    hit = None if w.is_zero() else defect_scan(basis, partial(cocycle_defect, basis.swept, w))[1]

    def direct(alpha: Form, beta: Form) -> Polynomial:
        return cobound1_eval(basis.structure, w_of(basis.structure), alpha, beta)

    return certify_forms(basis, check, basis.size() ** 2, hit, direct)


def verify_cocycle(basis: JetBasis, w: Multivector) -> CheckReport:
    """Certify ``cobound1`` of the tensorial cochain ``<., w>`` of an
    (n-1)-vector w vanishes on all jet pairs."""
    return _cocycle_report(basis, "cocycle", lambda _: w)


def verify_modular_cocycle(basis: JetBasis, volume: VolumeForm) -> CheckReport:
    """Certify that the modular cochain ``<., M>`` is a 1-cocycle.

    For a nonzero M, a pass of the run's anchor-defect scan proves it: the
    cocycle defect is ``U_M = (-1)^(n+1) d_nu T`` and T vanishes identically
    (module docstring).  Otherwise ``_cocycle_report`` passes a zero M
    unscanned and scans the cocycle defect of the modular multivector of
    ``basis.swept``, c times that of the given n-vector."""
    _check_volume(basis.structure, volume)
    w_of = partial(modular_multivector, volume=volume)
    if not w_of(basis.swept).is_zero() and basis.once(anchor_defect_scan)[1] is None:
        return CheckReport(check="modular-cocycle", passed=True, items_checked=basis.size() ** 2)
    return _cocycle_report(basis, "modular-cocycle", w_of)


def verify_volume_change(
    structure: NambuStructure, volume: VolumeForm, q: Polynomial
) -> CheckReport:
    """Check that rescaling the volume by ``e^q`` shifts the modular
    multivector by exactly the degree-0 coboundary of ``q``."""
    _check_volume(structure, volume)
    if q.num_vars != structure.m:
        raise ChartMismatchError(
            f"exponent on {q.num_vars} variables, chart has {structure.m}"
        )
    before = modular_multivector(structure, volume)
    after = modular_multivector(structure, volume.rescaled(q))
    residual = after - before - cobound0(structure, q)
    return certify(
        "volume-change",
        math.comb(structure.m, structure.n - 1),
        None if residual.is_zero() else (q,),
        lambda _: residual,
        lambda q: (str(q),),
    )


# -- exactness search ------------------------------------------------------------


class WitnessReport(Record):
    """Outcome of searching for f with ``cobound0(f) = target``."""

    feasible: bool
    witness: Polynomial | None
    search_degree: int
    obstruction: str | None = None
    degree_uniform: bool = False
    smooth_obstruction: bool = False

    def __post_init__(self):
        if self.feasible and self.witness is None:
            raise ValueError("feasible reports carry a witness")


def exactness_witness(
    structure: NambuStructure, volume: VolumeForm, search_degree: int
) -> WitnessReport:
    """Search for a polynomial f whose degree-0 coboundary is the modular
    multivector, over monomials of total degree <= search_degree.

    Before solving, each component equation ``sum_j w_j^C df/dx^j = M^C`` is
    inspected for a monomial divisibility obstruction: when every
    coefficient ``w_j^C`` is divisible by a nontrivial monomial that does
    not divide ``M^C``, no polynomial f of any degree can work
    (degree-uniform infeasibility); when additionally ``M^C`` survives
    setting one of those obstructing variables to zero, no smooth f can
    work either, since the left side vanishes identically there.

    Only the columns of the target's connected component are assembled and
    solved (``_component``, module docstring); the others cannot change the
    answer.  The witness is the solution whose free monomial coefficients
    are zero, with pivots in the grlex order of the component's columns,
    read off ``_solve_linear``'s values by exponent; that solution is
    unique, so it does not depend on how ``_solve_linear`` picks its pivot
    rows.

    The walk assembles the column of ``x^e`` from the m coordinate columns
    by the identity of the module docstring.  An infeasible verdict rests on
    that identity of the implemented kernels, as the capped-row certificates
    rest on theirs; a feasible one is re-checked through ``cobound0``.
    """
    _check_volume(structure, volume)
    if search_degree < 0:
        raise ValueError("search_degree must be non-negative")
    m = structure.m
    target = modular_multivector(structure, volume)
    coordinate_columns = [
        cobound0(structure, Polynomial.variable(m, j)) for j in range(1, m + 1)
    ]

    obstruction = _divisibility_obstruction(structure, target, coordinate_columns)
    if obstruction is not None:
        equation, smooth = obstruction
        return WitnessReport(
            feasible=False,
            witness=None,
            search_degree=search_degree,
            obstruction=equation,
            degree_uniform=True,
            smooth_obstruction=smooth,
        )

    rows, columns = _component(coordinate_columns, target, search_degree)
    rhs = {(indices, exps): value for indices, exps, value in _terms(target)}
    solution = _solve_linear(rows, columns, rhs)
    if solution is None:
        return WitnessReport(feasible=False, witness=None, search_degree=search_degree)
    witness = Polynomial(m, solution)
    if cobound0(structure, witness) != target:
        raise AssertionError("solver returned a non-solution")
    return WitnessReport(feasible=True, witness=witness, search_degree=search_degree)


def _divisibility_obstruction(
    structure: NambuStructure, target: Multivector, columns: list[Multivector]
) -> tuple[str, bool] | None:
    m = structure.m
    zero = Polynomial.zero(m)
    for indices in itertools.combinations(range(1, m + 1), structure.n - 1):
        t_comp = target.components.get(indices, zero)
        coeffs = [col.components.get(indices, zero) for col in columns]
        nonzero = [(j, c) for j, c in enumerate(coeffs, start=1) if not c.is_zero()]
        if not nonzero:
            if not t_comp.is_zero():
                equation = f"0 = {t_comp}"
                return equation, True
            continue
        if t_comp.is_zero():
            continue
        divisor = _common_monomial(nonzero)
        if not any(divisor):
            continue
        if _divides_all(divisor, t_comp):
            continue
        lhs = " + ".join(
            _equation_term(coeff, j) for j, coeff in nonzero
        )
        equation = f"{lhs} = {t_comp}"
        smooth = _survives_restriction(t_comp, divisor)
        return equation, smooth
    return None


def _common_monomial(entries: list[tuple[int, Polynomial]]) -> tuple[int, ...]:
    minimum: list[int] | None = None
    for _, poly in entries:
        for exps in poly.terms:
            if minimum is None:
                minimum = list(exps)
            else:
                minimum = [min(a, b) for a, b in zip(minimum, exps)]
    assert minimum is not None
    return tuple(minimum)


def _divides_all(divisor: tuple[int, ...], poly: Polynomial) -> bool:
    return all(
        all(e >= d for e, d in zip(exps, divisor)) for exps in poly.terms
    )


def _survives_restriction(target: Polynomial, divisor: tuple[int, ...]) -> bool:
    """True if the target is nonzero after zeroing some obstructing variable."""
    for k, d in enumerate(divisor):
        if d == 0:
            continue
        restricted = {
            exps: coeff for exps, coeff in target.terms.items() if exps[k] == 0
        }
        if restricted:
            return True
    return False


def _equation_term(coeff: Polynomial, j: int) -> str:
    text = str(coeff)
    if len(coeff.terms) > 1 or text.startswith("-"):
        text = f"({text})"
    return f"{text}*df/dx{j}"


_Rows = dict[tuple, dict]


def _terms(mv: Multivector):
    """The ``(index set, exponent, value)`` triples of a multivector."""
    for indices, poly in mv.components.items():
        for exps, value in poly.terms.items():
            yield indices, exps, value


def _component(
    coordinate_columns: list[Multivector], target: Multivector, max_degree: int
) -> tuple[_Rows, list[tuple[int, ...]]]:
    """The rows ``{(index set, exponent): {column exponent: value}}`` of
    the connected components of the target's rows, and their column
    exponents, all of degree <= max_degree, in grlex order.

    A term ``(C, a)`` of ``W_j`` links the row ``(C, r)`` and the column
    ``r + shift`` with ``shift = 1_j - a``.  From a row the walk goes to
    every such column of degree <= max_degree with ``r >= a``; a column e
    is assembled when first reached (module docstring): each term
    ``(C, a, v)`` of each ``W_k`` with ``e_k >= 1`` adds ``e_k v`` at the
    row ``(C, e - 1_k + a)``, and a row met for the first time is walked
    next.  An entry whose sum cancels is dropped, but its row is walked."""
    terms = [list(_terms(w)) for w in coordinate_columns]
    by_index_set: dict[tuple, list[tuple]] = {}
    for j, column_terms in enumerate(terms):
        for indices, a, _ in column_terms:
            shift = tuple(int(k == j) - a_k for k, a_k in enumerate(a))
            by_index_set.setdefault(indices, []).append((j, shift, sum(shift)))
    pending = [(indices, exps) for indices, exps, _ in _terms(target)]
    rows: _Rows = {key: {} for key in pending}
    columns = set()
    while pending:
        indices, r = pending.pop()
        room = max_degree - sum(r)
        for j, shift, degree in by_index_set.get(indices, ()):
            if degree > room:
                continue
            e = tuple(map(add, r, shift))
            if e in columns or min(e) < 0 or not e[j]:
                continue
            columns.add(e)
            for k, e_k in enumerate(e):
                if not e_k:
                    continue
                lowered = e[:k] + (e_k - 1,) + e[k + 1 :]
                for row_indices, a, value in terms[k]:
                    key = (row_indices, tuple(map(add, lowered, a)))
                    product = e_k * value
                    if key not in rows:
                        rows[key] = {e: product}
                        pending.append(key)
                    elif e not in (row := rows[key]):
                        row[e] = product
                    elif total := row[e] + product:
                        row[e] = total
                    else:
                        del row[e]
    return rows, sorted(columns, key=grlex_key)


def _solve_linear(
    rows: _Rows, columns: list, target: dict[tuple, Fraction]
) -> dict | None:
    """Exact sparse Gauss-Jordan elimination for ``sum_c u_c column_c = target``.

    ``rows`` holds the nonzero entries of the ``columns`` by equation key,
    and ``target`` the nonzero right-hand sides by the same keys; the
    target becomes the column ``None``.  ``rows`` is reduced in place.
    Pivot columns are taken in the order of ``columns``, each from the live
    row with the fewest entries.  Returns ``{column: value}`` on the pivot
    columns, the solution with free variables at zero, or None when a row
    left without a pivot keeps a nonzero target entry.  The pivot columns
    are the columns outside the span of the earlier ones, and the reduced
    system has one solution with zero free variables, so the pivot rows
    chosen do not change the result.
    """
    for key, value in target.items():
        rows.setdefault(key, {})[None] = value
    rows_of: dict = {col: set() for col in [*columns, None]}
    for key, row in rows.items():
        for col in row:
            rows_of[col].add(key)
    live, pivot_of = set(rows), {}
    for col in columns:
        candidates = rows_of[col] & live
        if not candidates:
            continue
        key = pivot_of[col] = min(candidates, key=lambda k: len(rows[k]))
        live.discard(key)
        pivot = rows[key]
        for other in rows_of[col] - {key}:
            row = rows[other]
            factor = Fraction(row[col], pivot[col])
            for c, value in pivot.items():
                updated = row.get(c, 0) - factor * value
                if updated:
                    row[c] = updated
                    rows_of[c].add(other)
                else:
                    del row[c]
                    rows_of[c].discard(other)
    if rows_of[None] & live:
        return None
    return {c: Fraction(rows[key].get(None, 0), rows[key][c]) for c, key in pivot_of.items()}
