"""Independent reference implementations used to cross-check the library.

Everything here works on *dense* skew tensors: a dict holding a component
for every ordered tuple of distinct indices, kept consistent under
permutation signs.  Products and contractions are computed by explicit
permutation/shuffle enumeration, a deliberately different route from the
library's increasing-index merge arithmetic.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from nambu.exterior import Form, Multivector
from nambu.poly import Polynomial


def sign_of_permutation(perm: tuple[int, ...]) -> int:
    """Parity via explicit cycle decomposition."""
    seen = [False] * len(perm)
    order = sorted(range(len(perm)), key=lambda i: perm[i])
    sign = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = order[i]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@functools.lru_cache(maxsize=64)
def dense(tensor) -> dict[tuple[int, ...], Polynomial]:
    """All ordered-tuple components of a Form or Multivector.

    Tensors are immutable, so the last results are kept; callers only read
    the returned map."""
    out: dict[tuple[int, ...], Polynomial] = {}
    for indices, coeff in tensor.components.items():
        for perm in itertools.permutations(range(len(indices))):
            key = tuple(indices[p] for p in perm)
            sign = sign_of_permutation(perm)
            out[key] = coeff if sign > 0 else -coeff
    return out


def _component(dense_map, key: tuple[int, ...], m: int) -> Polynomial:
    return dense_map.get(key, Polynomial.zero(m))


def oracle_wedge(a, b):
    """Wedge by shuffle enumeration with explicit permutation signs."""
    m = a.m
    j, k = a.degree, b.degree
    da, db = dense(a), dense(b)
    components: dict[tuple[int, ...], Polynomial] = {}
    for indices in itertools.combinations(range(1, m + 1), j + k):
        total = Polynomial.zero(m)
        for positions in itertools.combinations(range(j + k), j):
            rest = tuple(p for p in range(j + k) if p not in positions)
            perm = positions + rest
            sign = sign_of_permutation(perm)
            left = _component(da, tuple(indices[p] for p in positions), m)
            right = _component(db, tuple(indices[p] for p in rest), m)
            term = left * right
            total = total + (term if sign > 0 else -term)
        if not total.is_zero():
            components[indices] = total
    return type(a)(m, j + k, components)


def oracle_pair(omega: Form, mv: Multivector) -> Polynomial:
    """Pairing summed over all ordered tuples, then divided by k!."""
    m = omega.m
    k = omega.degree
    if k == 0:
        return omega.scalar() * mv.scalar()
    dw, dp = dense(omega), dense(mv)
    total = Polynomial.zero(m)
    for key, w in dw.items():
        p = dp.get(key)
        if p is not None:
            total = total + w * p
    factorial = 1
    for i in range(2, k + 1):
        factorial *= i
    return total * Fraction(1, factorial)


def oracle_contract_form(alpha: Form, mv: Multivector) -> Multivector:
    """Contraction by summing the form over ordered leading slots."""
    m = alpha.m
    j, k = alpha.degree, mv.degree
    da, dp = dense(alpha), dense(mv)
    factorial = 1
    for i in range(2, j + 1):
        factorial *= i
    components: dict[tuple[int, ...], Polynomial] = {}
    for rest in itertools.combinations(range(1, m + 1), k - j):
        total = Polynomial.zero(m)
        pool = [i for i in range(1, m + 1) if i not in rest]
        for lead in itertools.permutations(pool, j):
            a = da.get(lead)
            if a is None:
                continue
            p = dp.get(lead + rest)
            if p is None:
                continue
            total = total + a * p
        if not total.is_zero():
            components[rest] = total * Fraction(1, factorial)
    return Multivector(m, k - j, components)


def oracle_contract_vec(vector: Multivector, omega: Form) -> Form:
    """Interior product: plug the field into the first slot of the dense form."""
    m = omega.m
    dw = dense(omega)
    components: dict[tuple[int, ...], Polynomial] = {}
    for rest in itertools.combinations(range(1, m + 1), omega.degree - 1):
        total = Polynomial.zero(m)
        for j in range(1, m + 1):
            xj = vector.components.get((j,))
            if xj is None or j in rest:
                continue
            w = dw.get((j,) + rest)
            if w is not None:
                total = total + xj * w
        if not total.is_zero():
            components[rest] = total
    return Form(m, omega.degree - 1, components)


def oracle_ext_d(omega: Form) -> Form:
    """Exterior derivative by the alternating-sum formula on dense tuples."""
    m = omega.m
    k = omega.degree
    dw = dense(omega)
    components: dict[tuple[int, ...], Polynomial] = {}
    for indices in itertools.combinations(range(1, m + 1), k + 1):
        total = Polynomial.zero(m)
        for s in range(k + 1):
            rest = indices[:s] + indices[s + 1 :]
            coeff = _component(dw, rest, m) if k else omega.scalar()
            term = coeff.diff(indices[s])
            total = total + (term if s % 2 == 0 else -term)
        if not total.is_zero():
            components[indices] = total
    return Form(m, k + 1, components)


def oracle_apply_vec(vector: Multivector, f: Polynomial) -> Polynomial:
    """``X(f) = i_X df``, with both operations taken on dense tensors."""
    return oracle_contract_vec(vector, oracle_ext_d(Form.from_scalar(f))).scalar()


def oracle_divergence(vector: Multivector) -> Polynomial:
    """``div X`` from ``d(i_X vol) = div(X) vol`` (Cartan, as ``d vol = 0``)
    for ``vol = dx1^..^dxm``, on dense tensors."""
    m = vector.m
    volume = Form.basis(m, range(1, m + 1))
    return _component(oracle_ext_d(oracle_contract_vec(vector, volume)).components,
                      tuple(range(1, m + 1)), m)


def oracle_volume_divergence(tensor: Multivector, p: Polynomial) -> Multivector:
    """``d_nu P = sum_j d_j(i(dx_j) P) + i(dp) P``, the divergence of a
    multivector against the volume ``c e^p dx^1 ^ .. ^ dx^m``, on dense
    tensors; the constant c does not enter.  On a vector field it is
    ``div X + X(p)``, and the modular multivector of an n-vector is
    ``d_nu`` of it, up to sign (Koszul 1985; Xu, CMP 200, 1999)."""
    m = tensor.m
    total = oracle_contract_form(oracle_ext_d(Form.from_scalar(p)), tensor)
    for j in range(1, m + 1):
        inner = oracle_contract_form(Form.basis(m, (j,)), tensor)
        derivative = {indices: coeff.diff(j) for indices, coeff in inner.components.items()}
        total = total + Multivector(m, inner.degree, derivative)
    return total


def oracle_determinant(rows: list[list[Polynomial]]) -> Polynomial:
    """Exact determinant by Laplace expansion along the first row."""
    size = len(rows)
    m = rows[0][0].num_vars
    if size == 1:
        return rows[0][0]
    total = Polynomial.zero(m)
    for col in range(size):
        minor = [row[:col] + row[col + 1 :] for row in rows[1:]]
        term = rows[0][col] * oracle_determinant(minor)
        total = total + (term if col % 2 == 0 else -term)
    return total


def oracle_nbracket(structure, functions) -> Polynomial:
    """n-bracket as a sum of Jacobian determinants against the n-vector."""
    m = structure.m
    total = Polynomial.zero(m)
    for indices, coeff in structure.nvector.components.items():
        rows = [[f.diff(i) for i in indices] for f in functions]
        total = total + coeff * oracle_determinant(rows)
    return total


def oracle_plucker_fail(values: dict[tuple[int, ...], Fraction], m: int, n: int) -> bool:
    """Brute-force decomposability test: search for a failing relation."""

    def comp(key: tuple[int, ...]) -> Fraction:
        if len(set(key)) != len(key):
            return Fraction(0)
        ordered = tuple(sorted(key))
        base = values.get(ordered, Fraction(0))
        parity = 0
        for a in range(len(key)):
            for b in range(a + 1, len(key)):
                if key[a] > key[b]:
                    parity ^= 1
        return -base if parity else base

    for i_tuple in itertools.combinations(range(1, m + 1), n - 1):
        for j_tuple in itertools.combinations(range(1, m + 1), n + 1):
            total = Fraction(0)
            for k in range(n + 1):
                term = comp(i_tuple + (j_tuple[k],)) * comp(
                    j_tuple[:k] + j_tuple[k + 1 :]
                )
                total += -term if k % 2 else term
            if total:
                return True
    return False


def oracle_vector_bracket(left: Multivector, right: Multivector) -> Multivector:
    """Lie bracket of vector fields, ``[X, Y]^k = sum_j X^j d_j Y^k - Y^j d_j X^k``."""
    m = left.m
    zero = Polynomial.zero(m)
    components: dict[tuple[int, ...], Polynomial] = {}
    x = [left.components.get((k,), zero) for k in range(m + 1)]
    y = [right.components.get((k,), zero) for k in range(m + 1)]
    for k in range(1, m + 1):
        total = zero
        for j in range(1, m + 1):
            total = total + x[j] * y[k].diff(j) - y[j] * x[k].diff(j)
        if not total.is_zero():
            components[(k,)] = total
    return Multivector(m, 1, components)


def oracle_nambu_poisson(lam: Multivector) -> tuple[bool, bool]:
    """The two-sided criterion for an n-vector, n >= 3: ``(P, F)``.

    (P) ``i(dx^I) lam ^ lam = 0`` for every (n-1)-set I (Plucker: lam is
    decomposable wherever it is nonzero); (F) ``[X_I, X_J] ^ lam = 0`` for
    all I, J, with ``X_I = i(dx^I) lam`` (the image distribution is
    involutive).  lam is Nambu-Poisson exactly when both hold: where
    lam != 0 they give Frobenius coordinates with ``lam = h d_1^..^d_n``,
    which is Nambu-Poisson for n >= 3, and that set is dense; the converse
    is Gautheron's decomposability theorem (Lett. Math. Phys. 37, 1996)
    with the involutivity of the Hamiltonian fields.  Computed on dense
    tensors with the shuffle wedge and the dense contraction above.
    """
    m, n = lam.m, lam.degree
    if n < 3:
        raise ValueError("the criterion holds for n >= 3")
    fields = [
        oracle_contract_form(Form.basis(m, indices), lam)
        for indices in itertools.combinations(range(1, m + 1), n - 1)
    ]
    plucker = all(oracle_wedge(field, lam).is_zero() for field in fields)
    involutive = all(
        oracle_wedge(oracle_vector_bracket(left, right), lam).is_zero()
        for left, right in itertools.combinations(fields, 2)
    )
    return plucker, involutive
