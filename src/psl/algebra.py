"""Finite-dimensional associative algebras given by structure constants.

An algebra of dimension n over a field is the tensor mult[i][j] with
e_i * e_j = sum_k mult[i][j][k] e_k, an optional unit coordinate vector
(non-unital carriers are allowed for the full smash construction), and
display labels.  Everything is immutable; elements are coordinate row
vectors (tuples of scalars).
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
    is_zero_vec,
    unit_vec,
    vec_add,
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
            raise AssertionError(f"{what} failed: " + "; ".join(self.failures[:5]))


def merge_reports(*reports: CheckReport) -> CheckReport:
    failures = tuple(f for r in reports for f in r.failures)
    return CheckReport(not failures, failures)


class Algebra:
    __slots__ = ("field", "dim", "mult", "unit", "labels")

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
        self.mult = tuple(
            tuple(tuple(field.of(x) for x in mult[i][j]) for j in range(n)) for i in range(n)
        )
        for i in range(n):
            if len(self.mult[i]) != n or any(len(self.mult[i][j]) != n for j in range(n)):
                raise DimensionMismatch("structure tensor is not n x n x n")
        self.unit = None if unit is None else tuple(field.of(x) for x in unit)
        if self.unit is not None and len(self.unit) != n:
            raise DimensionMismatch("unit vector has wrong length")
        self.labels = tuple(labels) if labels is not None else tuple(f"e{i}" for i in range(n))
        if len(self.labels) != n:
            raise DimensionMismatch("wrong number of labels")

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

    def coerce(self, vec: Sequence) -> tuple:
        v = tuple(self.field.of(x) for x in vec)
        if len(v) != self.dim:
            raise DimensionMismatch(f"vector length {len(v)} != dim {self.dim}")
        return v

    def multiply(self, x: Sequence, y: Sequence) -> tuple:
        x = self.coerce(x)
        y = self.coerce(y)
        out = list(self.zero())
        mult = self.mult
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = mult[i]
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = xi * yj
                for k, m in enumerate(row[j]):
                    if m:
                        out[k] = out[k] + c * m
        return tuple(out)

    def left_mult_matrix(self, x: Sequence) -> Matrix:
        """Matrix of a |-> x*a in the row-vector convention."""
        return Matrix(
            self.field, [self.multiply(x, self.basis_vector(j)) for j in range(self.dim)],
            ncols=self.dim,
        )

    def right_mult_matrix(self, x: Sequence) -> Matrix:
        return Matrix(
            self.field, [self.multiply(self.basis_vector(j), x) for j in range(self.dim)],
            ncols=self.dim,
        )

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
    basis = [A.basis_vector(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            ij = A.mult[i][j]
            for k in range(n):
                lhs = A.multiply(ij, basis[k])
                rhs = A.multiply(basis[i], A.mult[j][k])
                if lhs != rhs:
                    failures.append(f"associativity fails at basis triple ({i},{j},{k})")
    if A.unit is not None:
        for i in range(n):
            if A.multiply(A.unit, basis[i]) != basis[i]:
                failures.append(f"left unit law fails at basis {i}")
            if A.multiply(basis[i], A.unit) != basis[i]:
                failures.append(f"right unit law fails at basis {i}")
    return CheckReport(not failures, tuple(failures))


def span_products(A: Algebra, U: Subspace, V: Subspace) -> Subspace:
    """Span of {u*v : u in U, v in V} (the subspace product U V)."""
    vecs = [A.multiply(u, v) for u in U.rows for v in V.rows]
    return Subspace.from_vectors(A.field, A.dim, vecs)


def ideal_closure(A: Algebra, gens: Iterable[Sequence], side: str = "two_sided") -> Subspace:
    """Smallest subspace containing gens closed under the requested multiplications."""
    if side not in ("left", "right", "two_sided"):
        raise ValueError(f"bad side {side!r}")
    S = Subspace.from_vectors(A.field, A.dim, [A.coerce(g) for g in gens])
    basis = [A.basis_vector(i) for i in range(A.dim)]
    # dimension strictly grows until the fixed point, so dim(A) rounds suffice
    for _ in range(A.dim + 1):
        new = list(S.rows)
        for v in S.rows:
            for b in basis:
                if side in ("left", "two_sided"):
                    new.append(A.multiply(b, v))
                if side in ("right", "two_sided"):
                    new.append(A.multiply(v, b))
        S2 = Subspace.from_vectors(A.field, A.dim, new)
        if S2.dim == S.dim:
            return S2
        S = S2
    return S


def is_ideal(A: Algebra, I: Subspace, side: str = "two_sided") -> bool:
    if I.ambient != A.dim or I.field != A.field:
        raise DimensionMismatch("subspace does not live in the algebra")
    basis = [A.basis_vector(i) for i in range(A.dim)]
    for v in I.rows:
        for b in basis:
            if side in ("left", "two_sided") and not I.contains(A.multiply(b, v)):
                return False
            if side in ("right", "two_sided") and not I.contains(A.multiply(v, b)):
                return False
    return True


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
        return self.matrix.apply(self.source.coerce(vec))

    def is_multiplicative(self) -> bool:
        for i in range(self.source.dim):
            for j in range(self.source.dim):
                lhs = self.apply(self.source.mult[i][j])
                rhs = self.target.multiply(
                    self.apply(self.source.basis_vector(i)),
                    self.apply(self.source.basis_vector(j)),
                )
                if lhs != rhs:
                    return False
        if self.source.unit is not None and self.target.unit is not None:
            if self.apply(self.source.unit) != self.target.unit:
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

    def project(vec):
        r = I.reduce(vec)
        return tuple(r[c] for c in comp)

    lifts = [A.basis_vector(c) for c in comp]
    mult = [[project(A.multiply(lifts[i], lifts[j])) for j in range(qdim)] for i in range(qdim)]
    unit = project(A.unit) if A.unit is not None else None
    labels = tuple(f"[{A.labels[c]}]" for c in comp)
    Q = Algebra(A.field, mult, unit=unit, labels=labels)
    proj = AlgebraMap(A, Q, Matrix(A.field, [project(A.basis_vector(i)) for i in range(A.dim)], ncols=qdim))
    return Q, proj


def is_nilpotent_subspace(A: Algebra, I: Subspace) -> bool:
    """True iff I^m = 0 for some m <= dim(A)+1 (iterated span products)."""
    if I.is_zero():
        return True
    P = I
    for _ in range(A.dim + 1):
        P = span_products(A, I, P)
        if P.is_zero():
            return True
    return False


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
    """Smallest unital multiplicatively closed subspace containing gens."""
    vecs = [A.coerce(g) for g in gens]
    if A.unit is not None:
        vecs.append(A.unit)
    S = Subspace.from_vectors(A.field, A.dim, vecs)
    for _ in range(A.dim + 1):
        new = list(S.rows) + [A.multiply(u, v) for u in S.rows for v in S.rows]
        S2 = Subspace.from_vectors(A.field, A.dim, new)
        if S2.dim == S.dim:
            return S2
        S = S2
    return S


def product_of_fields(field: Field, k: int) -> Algebra:
    """The componentwise algebra field^k with the canonical idempotent basis."""
    z = zero_vec(field, k)
    mult = [
        [unit_vec(field, k, i) if i == j else z for j in range(k)]
        for i in range(k)
    ]
    return Algebra(field, mult, unit=(field.one,) * k, labels=[f"e{i+1}" for i in range(k)])
