"""Finite-dimensional associative algebras given by structure constants.

An algebra of dimension n over a field is the tensor mult[i][j] with
e_i * e_j = sum_k mult[i][j][k] e_k, an optional unit coordinate vector
(non-unital carriers are allowed for the full smash construction), and
display labels.  Everything is immutable; elements are coordinate row
vectors (tuples of canonical scalars: ints in [0, p) over F_p, Fractions
over Q).

`Algebra.terms[i][j]` lists the nonzero (k, c) of e_i * e_j.  The
structure-constant loops (`multiply`, the axiom checkers, `build_full_smash`,
the subspace products and ideal closures, algebra maps, and the Hopf,
action, coaction and module loops built on `_apply_raw`) run on sparse
vectors and on the rows of `Subspace` through `_multiply_raw`; over F_p they
leave sums unreduced and reduce mod p only where a value is compared
(`_differ`), returned or stored (`_canon`), or fed to a next product
(`_compact`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from psl.exactla import (
    DimensionMismatch,
    Field,
    FieldMismatch,
    Matrix,
    Subspace,
    _canon,
    _coerce,
    _dense,
    _Echelon,
    _nonzero,
    _spin,
    unit_vec,
    zero_vec,
)


class NotAnIdeal(ValueError):
    """Subspace is not a two-sided ideal."""


class InvariantViolation(ValueError):
    """A computed object breaks a mathematical invariant it must satisfy."""


@dataclass(frozen=True)
class CheckReport:
    """Outcome of an axiom check; failures carry human-readable witnesses."""

    ok: bool
    failures: tuple[str, ...] = ()

    def raise_if_failed(self, what: str = "check") -> None:
        if not self.ok:
            raise InvariantViolation(f"{what} failed: " + "; ".join(self.failures[:5]))


# ---------------------------------------------------------------------------
# the structure-constant kernel: F_p scalars as plain ints, Q scalars as
# Fractions.  Sparse vectors are tuples of their nonzero (k, c); dense ones
# are lists.


def _compact(raw: Sequence, p: int) -> tuple:
    """The nonzero (k, c) of dense (possibly unreduced) coordinates, reduced mod p (p = 0 over Q)."""
    if p:
        return tuple((k, v % p) for k, v in enumerate(raw) if v % p)
    return tuple((k, v) for k, v in enumerate(raw) if v)


def _differ(u: Sequence, v: Sequence, p: int) -> bool:
    """Whether two dense (possibly unreduced) vectors differ as field elements; over Q both are lists."""
    if p:
        return any((a - b) % p for a, b in zip(u, v))
    return u != v


def _multiply_raw(terms, x: Sequence, y: Sequence) -> list:
    """x * y for sparse x, y through the structure constants; dense, unreduced."""
    out = [0] * len(terms)
    for i, xi in x:
        row = terms[i]
        for j, yj in y:
            c = xi * yj
            for k, m in row[j]:
                out[k] += c * m
    return out


def _apply_raw(rows, x: Sequence, n: int) -> list:
    """sum_l x_l rows[l] for sparse x and sparse rows; dense, unreduced."""
    out = [0] * n
    for l, xl in x:
        for k, c in rows[l]:
            out[k] += xl * c
    return out


def _apply_pair(rows, x: Sequence, v: Sequence, n: int) -> list:
    """sum_i x_i rows[i](v): a sparse x acting on a sparse v through operators given by their
    sparse rows, as in h . a = sum_i h_i (h_i . a); dense, unreduced."""
    return _apply_raw({i: _nonzero(_apply_raw(rows[i], v, n)) for i, _ in x}, x, n)


def _operate(field: Field, terms, i: int, vec: Sequence, n: int) -> tuple:
    """vec (length n) under operator i of the sparse action tensor `terms`, canonical."""
    return _canon(_apply_raw(terms[i], _nonzero(_coerce(field, vec, n)), n), field.char)


def _operate_sum(field: Field, terms, x: Sequence, vec: Sequence, n: int) -> tuple:
    """sum_i x_i (vec under operator i) of the sparse action tensor `terms`, canonical."""
    x = _nonzero(_coerce(field, x, len(terms)))
    return _canon(_apply_pair(terms, x, _nonzero(_coerce(field, vec, n)), n), field.char)


def _tensor_terms(left, right) -> tuple:
    """Structure constants of the tensor product of two algebras, index a*m + k (first factor major)."""
    n, m = len(left), len(right)
    return tuple(
        tuple(
            tuple((a * m + k, x * y) for a, x in left[a1][a2] for k, y in right[k1][k2])
            for a2 in range(n) for k2 in range(m)
        )
        for a1 in range(n) for k1 in range(m)
    )


def _add_scaled(acc: list, c, raw: Sequence) -> None:
    """acc += c * raw on dense vectors."""
    for t, x in enumerate(raw):
        if x:
            acc[t] += c * x


class Algebra:
    __slots__ = ("field", "dim", "mult", "unit", "labels", "terms")

    def __init__(
        self,
        field: Field,
        mult: Sequence[Sequence[Sequence]],
        unit: Sequence | None = None,
        labels: Sequence[str] | None = None,
    ):
        n = len(mult)
        self.field = field
        self.dim = n
        of = field.of
        self.mult = tuple(tuple(tuple(of(x) for x in e) for e in row) for row in mult)
        if any(len(row) != n or any(len(e) != n for e in row) for row in self.mult):
            raise DimensionMismatch("structure tensor is not n x n x n")
        self.unit = None if unit is None else tuple(of(x) for x in unit)
        if self.unit is not None and len(self.unit) != n:
            raise DimensionMismatch("unit vector has wrong length")
        self.labels = tuple(labels) if labels is not None else tuple(f"e{i}" for i in range(n))
        if len(self.labels) != n:
            raise DimensionMismatch("wrong number of labels")
        self.terms = tuple(tuple(_nonzero(e) for e in row) for row in self.mult)

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.mult == other.mult
            and self.unit == other.unit
        )

    def __hash__(self):
        return hash((self.field, self.mult, self.unit))

    def __repr__(self):
        u = "unital" if self.unit is not None else "non-unital"
        return f"Algebra(dim {self.dim} over {self.field}, {u})"

    def zero(self) -> tuple:
        return zero_vec(self.field, self.dim)

    def basis_vector(self, i: int) -> tuple:
        return unit_vec(self.field, self.dim, i)

    def multiply(self, x: Sequence, y: Sequence) -> tuple:
        x, y = _nonzero(_coerce(self.field, x, self.dim)), _nonzero(_coerce(self.field, y, self.dim))
        return _canon(_multiply_raw(self.terms, x, y), self.field.char)

    def _mult_matrix(self, x: Sequence, left: bool) -> Matrix:
        x = _nonzero(_coerce(self.field, x, self.dim))
        p, terms = self.field.char, self.terms
        rows = tuple(
            _canon(_multiply_raw(terms, x, ((j, 1),)) if left else _multiply_raw(terms, ((j, 1),), x), p)
            for j in range(self.dim)
        )
        return Matrix._of_raw(self.field, rows, self.dim)

    def left_mult_matrix(self, x: Sequence) -> Matrix:
        """Matrix of a |-> x*a in the row-vector convention."""
        return self._mult_matrix(x, True)

    def right_mult_matrix(self, x: Sequence) -> Matrix:
        return self._mult_matrix(x, False)

    def describe(self, vec: Sequence) -> str:
        parts = []
        for c, l in zip(vec, self.labels):
            if c:
                parts.append(f"{self.field.format_scalar(c)}*{l}")
        return " + ".join(parts) if parts else "0"


def multiply(A: Algebra, x: Sequence, y: Sequence) -> tuple:
    return A.multiply(x, y)


def check_algebra(A: Algebra) -> CheckReport:
    """Associativity on all basis triples plus unit laws (when a unit is present)."""
    failures = []
    n = A.dim
    p = A.field.char
    terms = A.terms
    basis = [((i, 1),) for i in range(n)]
    dense = [[int(t == i) for t in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            ij = terms[i][j]
            for k in range(n):
                lhs = _multiply_raw(terms, ij, basis[k])
                rhs = _multiply_raw(terms, basis[i], terms[j][k])
                if _differ(lhs, rhs, p):
                    failures.append(f"associativity fails at basis triple ({i},{j},{k})")
    if A.unit is not None:
        unit = _nonzero(A.unit)
        for i in range(n):
            if _differ(_multiply_raw(terms, unit, basis[i]), dense[i], p):
                failures.append(f"left unit law fails at basis {i}")
            if _differ(_multiply_raw(terms, basis[i], unit), dense[i], p):
                failures.append(f"right unit law fails at basis {i}")
    return CheckReport(not failures, tuple(failures))


def _check_inside(A: Algebra, U: Subspace) -> None:
    if U.field != A.field:
        raise FieldMismatch(f"subspace over {U.field}, algebra over {A.field}")
    if U.ambient != A.dim:
        raise DimensionMismatch(f"subspace of ambient {U.ambient} in an algebra of dim {A.dim}")


def span_products(A: Algebra, U: Subspace, V: Subspace) -> Subspace:
    """Span of {u*v : u in U, v in V} (the subspace product U V)."""
    _check_inside(A, U)
    _check_inside(A, V)
    terms = A.terms
    vs = [_nonzero(v) for v in V.rows]
    return Subspace._span(A.field, A.dim, [_multiply_raw(terms, _nonzero(u), v) for u in U.rows for v in vs])


def _mult_operators(A: Algebra, side: str) -> list:
    """Multiplication by each basis element on the requested sides, as sparse operator rows."""
    if side not in ("left", "right", "two_sided"):
        raise ValueError(f"bad side {side!r}")
    n, terms = A.dim, A.terms
    ops = []
    if side in ("left", "two_sided"):  # v |-> e_b v sends e_l to e_b e_l
        ops += [terms[b] for b in range(n)]
    if side in ("right", "two_sided"):  # v |-> v e_b sends e_l to e_l e_b
        ops += [tuple(terms[l][b] for l in range(n)) for b in range(n)]
    return ops


def ideal_closure(A: Algebra, gens: Iterable[Sequence], side: str = "two_sided") -> Subspace:
    """Smallest subspace containing gens closed under the requested multiplications."""
    ops = _mult_operators(A, side)
    return _spin(A.field, A.dim, [_coerce(A.field, g, A.dim) for g in gens], ops)


def is_ideal(A: Algebra, I: Subspace, side: str = "two_sided") -> bool:
    if I.ambient != A.dim or I.field != A.field:
        raise DimensionMismatch("subspace does not live in the algebra")
    ops = _mult_operators(A, side)
    n = A.dim
    return all(I._holds(_apply_raw(op, _nonzero(v), n)) for v in I.rows for op in ops)


class AlgebraMap:
    """Linear map between algebras; rows of `matrix` are images of source basis."""

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source: Algebra, target: Algebra, matrix: Matrix):
        if matrix.nrows != source.dim or matrix.ncols != target.dim:
            raise DimensionMismatch("map matrix shape does not match the algebras")
        if source.field != target.field or matrix.field != source.field:
            raise FieldMismatch("algebra map across different fields")
        self.source = source
        self.target = target
        self.matrix = matrix

    def apply(self, vec: Sequence) -> tuple:
        return self.matrix.apply(vec)

    def is_multiplicative(self) -> bool:
        src, tgt = self.source, self.target
        p, n = src.field.char, tgt.dim
        images = [_nonzero(r) for r in self.matrix.rows]
        for i in range(src.dim):
            for j in range(src.dim):
                lhs = _apply_raw(images, src.terms[i][j], n)
                if _differ(lhs, _multiply_raw(tgt.terms, images[i], images[j]), p):
                    return False
        if src.unit is not None and tgt.unit is not None:
            if _differ(_apply_raw(images, _nonzero(src.unit), n), list(tgt.unit), p):
                return False
        return True

    def is_injective(self) -> bool:
        return self.matrix.rank() == self.source.dim

    def kernel(self) -> Subspace:
        return self.matrix.left_kernel()


def quotient_algebra(A: Algebra, I: Subspace) -> tuple[Algebra, AlgebraMap]:
    """Quotient by a two-sided ideal on the standard complement-coset basis."""
    if not is_ideal(A, I):
        raise NotAnIdeal("subspace is not a two-sided ideal")
    comp = I.complement_indices()
    qdim = len(comp)
    n, p = A.dim, A.field.char

    def project(raw):
        r = I._residual(raw)
        return _canon([r[c] for c in comp], p)

    mult = [[project(_dense(A.terms[ci][cj], n)) for cj in comp] for ci in comp]
    unit = project(A.unit) if A.unit is not None else None
    labels = tuple(f"[{A.labels[c]}]" for c in comp)
    Q = Algebra(A.field, mult, unit=unit, labels=labels)
    images = tuple(project(_dense(((i, 1),), n)) for i in range(n))
    proj = AlgebraMap(A, Q, Matrix._of_raw(A.field, images, qdim))
    return Q, proj


def is_nilpotent_subspace(A: Algebra, I: Subspace) -> bool:
    """True iff I^m = 0 for some m <= dim(A)+1 (iterated span products)."""
    return nilpotency_index(A, I) is not None


def nilpotency_index(A: Algebra, I: Subspace) -> int | None:
    """Smallest m with I^m = 0, or None if I is not nilpotent."""
    if I.is_zero():
        return 1
    P = I
    for m in range(2, A.dim + 3):
        P = span_products(A, I, P)
        if P.is_zero():
            return m
    return None


def direct_product(A: Algebra, B: Algebra) -> Algebra:
    if A.field != B.field:
        raise FieldMismatch("direct product across different fields")
    n, m = A.dim, B.dim
    field = A.field

    def emb_a(vec):
        return tuple(vec) + zero_vec(field, m)

    def emb_b(vec):
        return zero_vec(field, n) + tuple(vec)

    mult = []
    for i in range(n + m):
        row = []
        for j in range(n + m):
            if i < n and j < n:
                row.append(emb_a(A.mult[i][j]))
            elif i >= n and j >= n:
                row.append(emb_b(B.mult[i - n][j - n]))
            else:
                row.append(zero_vec(field, n + m))
        mult.append(row)
    unit = None
    if A.unit is not None and B.unit is not None:
        unit = tuple(A.unit) + tuple(B.unit)
    labels = tuple(f"{l}.1" for l in A.labels) + tuple(f"{l}.2" for l in B.labels)
    return Algebra(field, mult, unit=unit, labels=labels)


def subalgebra_closure(A: Algebra, gens: Iterable[Sequence]) -> Subspace:
    """Smallest unital multiplicatively closed subspace containing gens.

    Spinning over pairs: each new basis vector is multiplied on both sides
    by every basis vector before it and by itself, and each product is
    reduced once against the basis built so far.
    """
    gens = list(gens)
    if A.unit is not None:
        gens.append(A.unit)
    terms = A.terms
    basis = _Echelon(A.field.char)
    for g in gens:
        basis.add(_coerce(A.field, g, A.dim))
    rows = basis.rows
    i = 0
    while i < len(rows) < A.dim:
        u = rows[i][1]
        for j in range(i + 1):
            w = rows[j][1]
            basis.add(_multiply_raw(terms, u, w))
            basis.add(_multiply_raw(terms, w, u))
        i += 1
    return basis.span(A.field, A.dim)


def _closed_subalgebra(A: Algebra, S: Subspace, unit: Sequence, message: str, labels=None):
    """The algebra on a subspace S of A closed under products, on the RREF basis of S.

    Returns it with the coordinate map of S, which raises
    InvariantViolation(message) on a vector outside S.  Coordinates go
    through `Subspace.coords_of`.
    """

    def coords(vec):
        c = S.coords_of(vec)
        if c is None:
            raise InvariantViolation(message)
        return c

    rows = [_nonzero(r) for r in S.rows]
    mult = [[coords(_multiply_raw(A.terms, u, v)) for v in rows] for u in rows]
    return Algebra(A.field, mult, unit=coords(unit), labels=labels), coords


def product_of_fields(field: Field, k: int) -> Algebra:
    """The componentwise algebra field^k with the canonical idempotent basis."""
    z = zero_vec(field, k)
    mult = [
        [unit_vec(field, k, i) if i == j else z for j in range(k)]
        for i in range(k)
    ]
    return Algebra(field, mult, unit=(field.one,) * k, labels=[f"e{i+1}" for i in range(k)])
