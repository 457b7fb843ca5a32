"""The bracket of (n-1)-forms, its anchor, and exact identity verifiers.

The bracket is

    lbracket(a, b) = lie_form(sharp(a), b) + (-1)^n * <d a, lam> * b

at every order n >= 2, with ``sharp`` the anchor and the density term
``(-1)^n <d a, lam>`` from ``structure.bracket_scale``.  At n = 2 it is
``L_{sharp a} b + <d a, lam> b`` on 1-forms: a Leibniz bracket that is not
skew, which agrees with the Koszul bracket on exact forms, where both give
``d{f, g}``.  The verifiers certify, over the monomial jet basis of
(n-1)-forms ``x^gamma dx^I``:

* anchor morphism:   [sharp a, sharp b] = sharp(lbracket(a, b));
* sharp-d identity:  <d lbracket(a,b), lam>
                         = sharp(a)<d b, lam> - sharp(b)<d a, lam>;
* Leibniz identity:  lbracket(a, lbracket(b, c)) = lbracket(lbracket(a,b), c)
                         + lbracket(b, lbracket(a, c));
* the characterizing rules for exact forms and for moving a function across
  either slot.

Unit tables.  The anchor ``sharp(dx^I)`` and the bracket
``lbracket(dx^I, dx^J)`` of unit forms, C(m, n-1) and C(m, n-1)^2 values,
are computed once per ``NambuStructure`` instance and then read from its
table (``NambuStructure.tabled``); any other form, ``2 dx^I`` or
``x1 dx^I`` included, is computed at each call.  The sweeps below evaluate
the same unit pairs at many points: characterization's slot-1 rule reads
``lbracket(dx^I, dx^J0)`` and ``sharp(dx^I)`` at every point, and every
``lbracket`` of a unit left slot reads its anchor.  The verifier still
calls its residuals at every point; only the unit values inside them are
read.  Every caller gets the same result object, which is exact because
tensors are immutable: an operation builds a new tensor and never changes
its arguments.

Sweep strategy.  Enumerating all tuples of jet-basis forms is quadratic or
cubic in a basis of several hundred elements, far beyond the runtime budget,
so each verifier sweeps its residual, or an exact decomposition of it, on
its capped rows (``structure`` docstring).  The sweeps rest on identities
that hold for the implemented operations with *any* n-vector (no
integrability assumed), chiefly

    lbracket(a, g*b) = g*lbracket(a, b) + sharp(a)(g) * b          (slot-2)
    lbracket(f*a, b) = f*lbracket(a, b) - i_{sharp a}(df ^ b)      (slot-1)

which make the anchor residual ``A`` first-order in its first slot (it is
read off the anchor defect, below), and the factorization of the Leibniz
residual through ``A`` and the sharp-d residual ``S``:

    leibniz_residual(a, b, c) = lie_form(A(a,b), c) - (-1)^n * S(a,b) * c.

``A`` and ``S`` are first-order in each function slot, and ``A`` is
linear over functions in its second slot.  In ``S(f a, b)`` the Hessian
terms ``-sum d_i d_j f X_a^i <dx^j ^ b, lam>`` and ``+sum d_k d_j f X_b^k
<dx^j ^ a, lam>`` cancel, the Hessian being symmetric; in ``S(a, g b)``
those of ``<d(X_a g) ^ b, lam>`` and ``X_a <dg ^ b, lam>`` do (the test
suite checks ``D(fh) = f D(h) + h D(f) - fh D(1)`` for each slot of both).

The anchor scan reads ``A`` off the anchor defect T of ``structure``: for
any n-vector and any (n-1)-forms a, b, ``A(a, b) = i_b T(a)``.  The run's
``anchor_defect_scan`` evaluates T once; its pass proves ``A = 0`` on all
polynomial pairs, so the anchor, sharp-d and Leibniz checks pass with no
residual of their own, and so do FI and invariance.  Its hit ``(f, I, 0,
J)`` is the first failing pair of the capped pair grid (``structure``
docstring), and the anchor report re-checks it with the direct
``anchor_residual``.

The sharp-d scan reads ``S`` off the same row (``reduced_sharp_d``): for
any n-vector, any (n-1)-form a and any function g,

    S(a, dx^J) = 0,        S(a, g dx^J) = (-1)^n A(a, dx^J)(g).

With ``X = sharp`` and ``s = <d ., lam>``, ``S(a, b) = <d(i_{X_a} db), lam> +
(-1)^n s_a s_b - X_a(s_b)`` by Cartan's formula, ``d^2 = 0`` and
``<ds_a ^ b, lam> = (-1)^(n-1) X_b(s_a)`` (``contract_form``'s defining
identity).  For ``b = g dx^J``, ``db = dg ^ dx^J``, ``s_b = (-1)^(n-1)
X_J(g)`` and ``d(i_{X_a} db) = d(X_a g) ^ dx^J + dg ^ d(i_{X_a} dx^J)``;
collecting terms gives ``(-1)^(n-1) (X_{L_{X_a} dx^J} + (-1)^n s_a X_J -
[X_a, X_J])(g)``, whose first two terms sum to ``X_{lbracket(a, dx^J)}``.
Rows before the anchor hit's ``(f, I)`` have ``A = 0``, so ``S = 0``, and a
nonzero vector field is nonzero on some ``x_j``: the sharp-d scan reads only
the anchor hit's row from g = 1, none when the anchor passes.  The Leibniz
check lifts the anchor hit, where ``S = 0``, to a triple by scanning the
third slot with ``lie_form(A, c)``, A read off T; the direct nested
``leibniz_residual`` re-checks it.  The blind spot: a fault planted in
``reduced_sharp_d`` on a row where T vanishes goes unseen, and so does one
in the direct ``anchor_residual`` on a structure where T vanishes
everywhere, since then no direct residual is evaluated.

The exact-forms rule splits into consistency forms.  With closed
``a = df_1^..^df_{n-1}`` and ``b = dg_1^..^dg_{n-1}``, ``<d a, lam> = 0``
and ``lbracket(a, b) = L_X b`` for ``X = X_F = sharp(a)``.  The derivation
part ``L_X b - sum_i dg_1^..^d(X g_i)^..^dg_{n-1}`` vanishes for any vector
field, so the exact-forms residual is

    sum_i dg_1 ^ .. ^ d(X_F(g_i) - {F, g_i}) ^ .. ^ dg_{n-1},

and the consistency 1-forms ``d D(F, g)``, ``D(F, g) = X_F(g) - {F, g}``,
certify the quadratic grid of tuple pairs.  ``hamiltonian`` and ``nbracket``
read F only through ``dF = sum_I J_I(F) dx^I``, linearly over polynomials,
so ``D(F, g) = sum_I J_I(F) D(x_I, g)``; D is a derivation in g, so
``d D(x_I, g) = 0`` on ``g = x_j, x_j^2`` forces ``D(x_I, .) = 0``.  The
sweep runs on the coordinate f-tuples ``x_I`` times ``capped(2)``.  A
capped f-tuple before ``x_I`` has ``dF = 0`` or only ``dx^J`` sorting
before ``I`` (the swap argument of ``check_fundamental_identity``), so a
failure is located on the capped tuple pairs from the first failing ``x_I``
on.  The phi-morphism residual is the negated exact-forms residual, so the
same sweep certifies it, and a run computes the consistency scan once for
both checks.  Like the capped rows (``structure`` docstring), this rests on
identities of the implemented kernels, pinned by the test suite: a fault
planted in ``nbracket`` at a non-coordinate f-tuple breaks tensoriality and
goes unseen, as one at a cubic g does on the capped grid.

Characterization and phi-morphism are blind to integrability: they pass
for every n-vector, Nambu-Poisson or not.  The function-slot rules are the
slot lemmas above, and the consistency defect

    X_F(g) - {F, g} = <dg, i(dF) lam> - <dF ^ dg, lam>,   dF = df_1^..^df_{n-1},

is zero by ``contract_form``'s defining identity.  A pass of either check
says that the bracket agrees with its definitions; whether ``lam`` is
Nambu-Poisson is what the fundamental-identity check decides.

Characterization sweeps each function-slot rule on the smallest grid its
symbol allows; both reductions hold for any n-vector.  The slot-2 residual
is ``R'(sharp a, f, b)``, with the Leibniz defect of ``lie_form``

    R'(X, f, b) = lie_form(X, f b) - f lie_form(X, b) - X(f) b

(``lie_form_defect``): the ``(-1)^n <d a, lam> b`` terms cancel exactly.
R' is linear over functions in X, since ``L_{hX} w = h L_X w + dh ^ i_X w``;
``R'(X, f, g b) = R'(X, fg, b) - f R'(X, g, b)`` whatever ``lie_form``
computes; and R' is first-order in f (capped rows, ``structure``
docstring).  So ``X = d_k``, f of degree <= 1 and ``b = dx^J`` certify
slot-2 on no structure, with no ``sharp`` or ``pair``: ``m (m + 1) C(m,
n-1)`` points.
By ``sharp(f a) = f sharp(a)``, ``L_{fX} = f L_X + df ^ i_X``, ``d(f a) = df
^ a + f da`` and ``i_X(df ^ b) = X(f) b - df ^ i_X b``, the slot-1 residual
is ``(X_a(f) + (-1)^n <df ^ a, lam>) b``, so on each ``(I, f)`` row the first
failure of the full grid is at the first index set ``J0``, and slot-1 is
swept on lam at ``J0`` alone.  Its factor is zero by ``contract_form``'s
defining identity, which is what the sweep still checks on lam at run time.
Both sweeps start at ``f = x_1``, since at ``f = 1`` each residual is zero
whatever the kernels compute.  A hit of the slot-2 sweep runs both rules
on the whole unit grid instead, slot-2 first, so every report is the first
failure of the full grid.  The blind spots: a fault planted in
``function_slot2_residual`` alone, or in ``function_slot1_residual`` at one
``J != J0`` alone, goes unseen, since neither is evaluated there; a fault
is seen only through the kernels.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Sequence

from .errors import ArityError, DegreeError
from .exterior import (
    Form,
    Multivector,
    apply_vec,
    contract_vec,
    differential,
    ext_d,
    format_tensor,
    lie_form,
    lie_mv,
    pair,
    wedge,
    wedge_all,
)
from .poly import Polynomial
from .structure import (
    CheckReport, JetBasis, NambuStructure, anchor_defect_scan, bracket_scale, capped_first_hit,
    certify, certify_forms, first_hit, nbracket, sharp,
)


def _check_section(structure: NambuStructure, form: Form, name: str) -> None:
    if form.m != structure.m:
        raise DegreeError(f"{name} lives on a chart of dimension {form.m}, "
                          f"expected {structure.m}")
    if form.degree != structure.n - 1:
        raise DegreeError(
            f"{name} must have degree {structure.n - 1}, got {form.degree}"
        )


# -- the bracket ---------------------------------------------------------------


def lbracket(structure: NambuStructure, alpha: Form, beta: Form) -> Form:
    """Bracket of (n-1)-forms; that of two unit forms ``dx^I``, ``dx^J`` is
    read from the structure's table."""
    _check_section(structure, alpha, "alpha")
    _check_section(structure, beta, "beta")
    return structure.tabled(_cartan, alpha, beta)


def _cartan(structure: NambuStructure, alpha: Form, beta: Form) -> Form:
    result = lie_form(sharp(structure, alpha), beta)
    scale = bracket_scale(structure, alpha)
    return result if scale.is_zero() else result + beta * scale


def skew_defect(structure: NambuStructure, alpha: Form, beta: Form) -> Form:
    """``lbracket(a, b) + lbracket(b, a)``; zero exactly in the Lie case."""
    return lbracket(structure, alpha, beta) + lbracket(structure, beta, alpha)


# -- direct residual evaluators -------------------------------------------------


def anchor_residual(structure: NambuStructure, alpha: Form, beta: Form) -> Multivector:
    """``[sharp a, sharp b] - sharp(lbracket(a, b))`` by direct evaluation."""
    lhs = lie_mv(sharp(structure, alpha), sharp(structure, beta))
    return lhs - sharp(structure, lbracket(structure, alpha, beta))


def sharp_d_residual(structure: NambuStructure, alpha: Form, beta: Form) -> Polynomial:
    """Residual of the sharp-d identity by direct evaluation."""
    lam = structure.nvector
    lhs = pair(ext_d(lbracket(structure, alpha, beta)), lam)
    lhs = lhs - apply_vec(sharp(structure, alpha), pair(ext_d(beta), lam))
    return lhs + apply_vec(sharp(structure, beta), pair(ext_d(alpha), lam))


def reduced_sharp_d(basis: JetBasis, f: int, left: tuple, g: int, right: tuple) -> Polynomial:
    """The sharp-d residual on ``basis.swept`` at the basis pair ``(f, I, g, J)``,
    read off the anchor defect: ``(-1)^n A(x^f dx^I, dx^J)(x^g)``."""
    family, _ = basis.once(anchor_defect_scan)
    value = apply_vec(family(f, left, 0, right), basis.monomials[g])
    return -value if basis.swept.n % 2 else value


def leibniz_residual(
    structure: NambuStructure, alpha: Form, beta: Form, gamma: Form
) -> Form:
    """Leibniz-identity residual by direct nested evaluation."""
    return (
        lbracket(structure, alpha, lbracket(structure, beta, gamma))
        - lbracket(structure, lbracket(structure, alpha, beta), gamma)
        - lbracket(structure, beta, lbracket(structure, alpha, gamma))
    )


# -- anchor, sharp-d and Leibniz sweeps -----------------------------------------


def _sharp_d_hit(basis: JetBasis) -> tuple | None:
    """First pair of the capped pair grid where ``reduced_sharp_d`` is nonzero,
    read on the anchor hit's ``(f, I)`` row from g = 1 (module docstring)."""
    _, anchor = basis.once(anchor_defect_scan)
    if anchor is None:
        return None
    row = itertools.product([anchor[0]], [anchor[1]], basis.capped(1)[1:], basis.index_sets)
    return first_hit(row, partial(reduced_sharp_d, basis))


def verify_anchor_morphism(basis: JetBasis) -> CheckReport:
    """Certify the anchor identity over all jet-basis pairs by the
    anchor-defect scan (module docstring)."""
    _, hit = basis.once(anchor_defect_scan)
    direct = partial(anchor_residual, basis.structure)
    return certify_forms(basis, "anchor", basis.size() ** 2, hit, direct)


def verify_sharp_d_identity(basis: JetBasis) -> CheckReport:
    """Certify the sharp-d identity over all jet-basis pairs."""
    direct = partial(sharp_d_residual, basis.structure)
    return certify_forms(basis, "sharp-d", basis.size() ** 2, basis.once(_sharp_d_hit), direct)


def verify_leibniz_identity(basis: JetBasis) -> CheckReport:
    """Certify the Leibniz identity over all jet-basis triples.

    The first failing pair is the run's anchor hit (module docstring), where
    ``S = 0``, lifted to the first failing triple by scanning the third slot
    with ``lie_form(A, c)`` on ``basis.swept``.  The report re-checks the
    triple with the direct nested formula on ``basis.structure``.
    """
    family, hit = basis.once(anchor_defect_scan)

    def lift(point):
        anchor = family(*point)

        def residual(*triple):
            return lie_form(anchor, basis.form(*triple[4:]))

        return first_hit((point + third for third in basis.elements()), residual)

    direct = partial(leibniz_residual, basis.structure)
    return certify_forms(basis, "leibniz", basis.size() ** 3, hit, direct, lift)


# -- characterization ------------------------------------------------------------


def exact_forms_residual(
    structure: NambuStructure, fs: Sequence[Polynomial], gs: Sequence[Polynomial]
) -> Form:
    """Residual of the exact-forms rule by direct evaluation.

    ``lbracket(df_1^..^df_{n-1}, dg_1^..^dg_{n-1})
      - sum_i dg_1 ^ .. ^ d{f_1..f_{n-1}, g_i} ^ .. ^ dg_{n-1}``
    """
    n = structure.n
    if len(fs) != n - 1 or len(gs) != n - 1:
        raise ArityError(f"exact-forms rule takes {n - 1} + {n - 1} functions")
    dgs = [differential(g) for g in gs]
    residual = lbracket(structure, wedge_all([differential(f) for f in fs]), wedge_all(dgs))
    for i in range(n - 1):
        replaced = list(dgs)
        replaced[i] = differential(nbracket(structure, list(fs) + [gs[i]]))
        residual = residual - wedge_all(replaced)
    return residual


def _exact_forms_sweep(
    basis: JetBasis, check: str, items: int, direct: Callable, inputs: Callable
) -> CheckReport:
    """Certify the exact-forms rule over pairs of capped function tuples.

    ``direct(structure, fs, gs)`` is the calling verifier's residual and
    ``inputs`` renders a pair.  The consistency 1-forms ``d(X_F(g) - {F, g})``
    are swept on the coordinate f-tuples ``x_I``, whose ``X_F`` is the anchor
    of ``dx^I``, times ``capped(2)`` (module docstring); a hit is located at
    the first pair of capped tuples, from ``x_I`` on, with a nonzero
    ``direct`` on ``basis.swept``, and reported on ``basis.structure``.  The
    consistency scan is shared by the run's checks (``_consistency_hit``).
    """
    structure = basis.swept
    monomials = basis.monomials
    capped = [monomials[g] for g in basis.capped(2)]

    def locate(hit):
        tuples = list(itertools.combinations(capped, structure.n - 1))
        start = tuples.index(tuple(monomials[i] for i in hit[0]))
        return first_hit(itertools.product(tuples[start:], tuples), partial(direct, structure))

    hit = basis.once(_consistency_hit)
    return certify(check, items, hit, partial(direct, basis.structure), inputs, locate)


def _consistency_hit(basis: JetBasis) -> tuple | None:
    """First point ``(I, g)`` of the coordinate f-tuples ``x_I`` times
    ``capped(2)`` where ``d(X_F(g) - {F, g})`` is nonzero on ``basis.swept``."""
    structure = basis.swept
    monomials = basis.monomials

    def consistency(indices, g):
        fs = [monomials[i] for i in indices]
        field = sharp(structure, basis.units[indices])
        return differential(apply_vec(field, g) - nbracket(structure, [*fs, g]))

    capped = [monomials[g] for g in basis.capped(2)]
    return first_hit(itertools.product(basis.index_sets, capped), consistency)


def function_slot2_residual(
    structure: NambuStructure, alpha: Form, f: Polynomial, beta: Form
) -> Form:
    """``lbracket(a, f b) - f lbracket(a, b) - sharp(a)(f) b`` directly."""
    residual = lbracket(structure, alpha, beta * f)
    residual = residual - lbracket(structure, alpha, beta) * f
    return residual - beta * apply_vec(sharp(structure, alpha), f)


def function_slot1_residual(
    structure: NambuStructure, f: Polynomial, alpha: Form, beta: Form
) -> Form:
    """``lbracket(f a, b) - f lbracket(a, b) + i_{sharp a}(df ^ b)`` directly."""
    residual = lbracket(structure, alpha * f, beta)
    residual = residual - lbracket(structure, alpha, beta) * f
    return residual + contract_vec(sharp(structure, alpha), wedge(differential(f), beta))


def lie_form_defect(field: Multivector, f: Polynomial, beta: Form) -> Form:
    """``lie_form(X, f b) - f lie_form(X, b) - X(f) b``, which equals
    ``function_slot2_residual(a, f, b)`` at ``X = sharp(a)`` for any n-vector."""
    residual = lie_form(field, beta * f) - lie_form(field, beta) * f
    return residual - beta * apply_vec(field, f)


def verify_characterization(basis: JetBasis) -> CheckReport:
    """Certify the three characterizing rules of the bracket.

    The exact-forms rule is certified by ``_exact_forms_sweep``, which
    locates a failure with ``exact_forms_residual`` and reports its direct
    value.  After it passes, each function-slot rule is swept from ``f =
    x_1`` on the smallest grid its symbol allows, as the module docstring
    sets out, blind spots included.  A hit of the slot-2 sweep runs both
    rules on the whole unit grid through ``capped_first_hit``: each rule is
    linear in the coefficients of both form slots and first-order in the
    function, so unit forms and the monomials of degree <= 1 certify it.
    Either way the report is the first failure of the full grid.
    """
    n = basis.structure.n
    count_forms = basis.size()
    count_funcs = len(basis.monomials)
    items = (
        math.comb(count_funcs, n - 1) ** 2          # exact-forms rule
        + count_forms * count_funcs * count_forms   # slot-2 rule
        + count_funcs * count_forms * count_forms   # slot-1 rule
    )

    report = _exact_forms_sweep(
        basis,
        "characterization",
        items,
        exact_forms_residual,
        lambda fs, gs: ("exact-forms", *map(str, fs), *map(str, gs)),
    )
    if not report.passed:
        return report

    def residual(structure, rule, left, g, right):
        alpha, beta, f = basis.units[left], basis.units[right], basis.monomials[g]
        if rule == "slot-2":
            return function_slot2_residual(structure, alpha, f, beta)
        return function_slot1_residual(structure, f, alpha, beta)

    def inputs(rule, left, g, right):
        alpha, beta = basis.units[left], basis.units[right]
        return rule, format_tensor(alpha), str(basis.monomials[g]), format_tensor(beta)

    m, capped = basis.structure.m, basis.capped(1)[1:]
    fields = [Multivector.basis(m, (k,)) for k in range(1, m + 1)]
    free = itertools.product(fields, [basis.monomials[g] for g in capped], basis.units.values())
    if first_hit(free, lie_form_defect) is None:
        rules, rights = ("slot-1",), basis.index_sets[:1]
    else:
        rules, rights = ("slot-2", "slot-1"), basis.index_sets

    def grid(rows):
        return itertools.product(rules, basis.index_sets, rows, rights)

    fast = partial(residual, basis.swept)
    hit = capped_first_hit(grid, fast, range(1, len(basis.monomials)), capped)
    return certify("characterization", items, hit, partial(residual, basis.structure), inputs)


# -- formal wedges of functions --------------------------------------------------


@dataclass(frozen=True)
class FormalWedge:
    """Finite rational combination of formal wedges of n-1 functions.

    No normalization beyond bilinearity is performed: factors are kept in
    the order given, and equality is only meaningful after mapping into
    forms (``phi``) or through the module action.
    """

    m: int
    arity: int
    terms: tuple[tuple[Fraction, tuple[Polynomial, ...]], ...]

    def __post_init__(self):
        for coeff, factors in self.terms:
            if len(factors) != self.arity:
                raise ArityError(
                    f"wedge term has {len(factors)} factors, expected {self.arity}"
                )
            for factor in factors:
                if factor.num_vars != self.m:
                    raise ArityError(
                        f"factor on {factor.num_vars} variables, chart has {self.m}"
                    )

    @classmethod
    def single(cls, functions: Sequence[Polynomial], coeff: int | Fraction = 1) -> FormalWedge:
        functions = tuple(functions)
        if not functions:
            raise ArityError("a formal wedge needs at least one factor")
        return cls(functions[0].num_vars, len(functions), ((Fraction(coeff), functions),))

    def __add__(self, other: FormalWedge) -> FormalWedge:
        if self.m != other.m or self.arity != other.arity:
            raise ArityError("formal wedges must share chart and arity")
        return FormalWedge(self.m, self.arity, self.terms + other.terms)


def phi(wedge_elt: FormalWedge) -> Form:
    """Linear map sending ``f_1 ^ .. ^ f_{n-1}`` to ``df_1 ^ .. ^ df_{n-1}``."""
    result = Form.zero(wedge_elt.m, wedge_elt.arity)
    for coeff, factors in wedge_elt.terms:
        result = result + wedge_all([differential(f) for f in factors]) * coeff
    return result


def fbracket_prime(
    structure: NambuStructure, left: FormalWedge, right: FormalWedge
) -> FormalWedge:
    """Bracket on formal wedges, extended bilinearly.

    On decomposables it replaces one right factor at a time with the full
    n-bracket against all left factors.
    """
    arity = structure.n - 1
    if left.arity != arity or right.arity != arity:
        raise ArityError(f"formal wedges must have arity {arity}")
    terms: list[tuple[Fraction, tuple[Polynomial, ...]]] = []
    for cl, fs in left.terms:
        for cr, gs in right.terms:
            coeff = cl * cr
            for i in range(arity):
                bracket = nbracket(structure, list(fs) + [gs[i]])
                replaced = list(gs)
                replaced[i] = bracket
                terms.append((coeff, tuple(replaced)))
    return FormalWedge(structure.m, arity, tuple(terms))


def verify_phi_morphism(basis: JetBasis) -> CheckReport:
    """Certify ``phi({F, G}') = lbracket(phi F, phi G)`` over jet wedges.

    On decomposable wedges ``phi({F, G}')`` is the sum of replaced wedges
    that the exact-forms rule subtracts from ``lbracket(phi F, phi G)``, so
    this residual is, by construction, the negated exact-forms residual, and
    ``_exact_forms_sweep`` certifies it on the same grid: coordinate
    f-tuples, by tensoriality, against g in ``capped(2)``.  A failure is
    located on the increasing capped tuple pairs, and its value reported,
    through ``phi``, ``fbracket_prime`` and ``lbracket``.
    """
    items = math.comb(len(basis.monomials), basis.structure.n - 1) ** 2

    def direct(structure, fs, gs):
        left, right = FormalWedge.single(fs), FormalWedge.single(gs)
        value = phi(fbracket_prime(structure, left, right))
        return value - lbracket(structure, phi(left), phi(right))

    return _exact_forms_sweep(
        basis, "phi-morphism", items, direct, lambda fs, gs: tuple(map(str, fs + gs))
    )
