"""Finite-dimensional associative algebras given by structure constants.

An algebra of dimension n over a field is its structure constants,
e_i * e_j = sum_k c_ijk e_k, an optional unit coordinate vector
(non-unital carriers are allowed for the full smash construction), and
display labels.  Everything is immutable; elements are coordinate row
vectors (tuples of canonical scalars: ints in [0, p) over F_p; over Q an
int where integral and a Fraction otherwise).

`Algebra.terms[i][j]` lists the nonzero (k, c) of e_i * e_j: the only stored
form of the constants, which the public constructor parses once from a dense
tensor mult[i][j][k], an input format only (`exactla._tensor`).  The
structure-constant loops (`multiply`, the axiom checkers, `build_full_smash`,
the subspace products and ideal closures, algebra maps, and the Hopf,
action, coaction and module loops built on `_apply_raw`) run on sparse
vectors and on the rows of `Subspace` through `_multiply_raw`; over F_p they
leave sums unreduced and reduce mod p only where a compared value's exact
ints differ (`_differ` and `_vanishes` test the ints first, at C speed), where
a value is returned or stored (`_canon`), or where it is fed to a next
product (`_compact`); over Q the same two bring a sum that came out
integral back to an int, so these loops multiply plain ints wherever the
constants allow.  The
associativity, PA3/PA4, module-law, PM3 and PM4 checks accumulate both sides
of many basis tuples into one sparse block, a dict of the entries they write,
whose values alone are tested; all but associativity build it through one
routine, `_axiom_block`.  The associativity and PA3/PA4 checks also clear
the denominators of what they read (`_cleared`, in the fraction-free spirit
of Bareiss, "Sylvester's identity and multistep integer-preserving Gaussian
elimination", 1968) and run on ints alone.  An algebra psl builds itself (`build_full_smash`,
`quotient_algebra`, `_closed_subalgebra`, `direct_product`,
`product_of_fields`, the algebras of `psl.hopf`) is made by
`Algebra._of_terms` from such terms directly.  A closure is one
`exactla._spin`: the ideal closures here, and in `psl.pmod` the algebra
that a module's operators generate.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import lcm
from typing import Iterable, NamedTuple, Sequence

from psl.exactla import (
    DimensionMismatch,
    Field,
    FieldMismatch,
    Matrix,
    Subspace,
    _canon,
    _coerce,
    _compact,
    _dense,
    _identity_rows,
    _nonzero,
    _spin,
    _tensor,
    _vector,
    unit_vec,
)


class NotAnIdeal(ValueError):
    """Subspace is not a two-sided ideal."""


class InvariantViolation(ValueError):
    """A computed object breaks a mathematical invariant it must satisfy."""


class AlgebraTooLarge(ValueError):
    """product_of_fields asked for more than MAX_GROUP_ORDER factors."""


# the largest group order, and the most factors of product_of_fields, psl builds:
# kG, (kG)* and field^k hold that many cubed structure constants
MAX_GROUP_ORDER = 64


class CheckReport(NamedTuple):
    """Outcome of an axiom check; failures carry human-readable witnesses."""

    ok: bool
    failures: tuple[str, ...] = ()

    def raise_if_failed(self, what: str = "check") -> None:
        if not self.ok:
            raise InvariantViolation(f"{what} failed: " + "; ".join(self.failures[:5]))


# ---------------------------------------------------------------------------
# the structure-constant kernel: F_p scalars as plain ints, Q scalars as
# ints or Fractions.  Sparse vectors are tuples of their nonzero (k, c); dense ones
# are lists.


def _differ(u: list, v: list, p: int) -> bool:
    """Whether two dense (possibly unreduced) vectors differ as field elements.

    Both must be lists (a list never equals a tuple).  Over F_p, vectors equal
    as ints are equal; only unequal ones are compared entry by entry mod p.
    """
    if p:
        return u != v and any((a - b) % p for a, b in zip(u, v))
    return u != v


def _vanishes(acc, p: int) -> bool:
    """Whether (possibly unreduced) values, a list or a dict's values, are all zero as field elements.

    Over F_p, zero ints are zero; only values with a nonzero int are reduced
    mod p one by one.
    """
    if p:
        return not any(acc) or not any(map(p.__rmod__, acc))
    return not any(acc)


def _failed_slices(block: dict, n: int, p: int) -> list[int]:
    """In increasing order, the k whose slice k n .. k n + n - 1 of a sparse block, a dict of the
    entries written, is not zero as field elements."""
    return sorted({u // n for u, c in block.items() if (c % p if p else c)})


def _axiom_block(linear, bilinear, offsets) -> dict:
    """Both sides of an axiom identity for every slice k, as one sparse block: a dict of the entries
    it writes, slice k at offsets[k].

    A linear term (c, op, rows) adds c op(rows[k]), op[s] the sparse image of
    e_s; a bilinear term (c, left, rows, T) adds c sum left_s rows[k]_t T[s][t]
    through its own product tensor T.  The two sides go in with opposite signs.
    Scalars pass straight through: over Q `_pa_failures` clears denominators
    first, and the module checks pass their Fractions as they are.
    """
    acc = {}
    get = acc.get
    for c, op, rows in linear:
        for base, row in zip(offsets, rows):
            for s, x in row:
                x *= c
                for u, y in op[s]:
                    u += base
                    acc[u] = get(u, 0) + x * y
    for c, left, rows, T in bilinear:
        for base, row in zip(offsets, rows):
            for t, y in row:
                cy = c * y
                for s, x in left:
                    cxy = cy * x
                    for u, z in T[s][t]:
                        u += base
                        acc[u] = get(u, 0) + cxy * z
    return acc


def _cleared(rows, p: int, depth: int = 0) -> tuple:
    """(D, D * rows) for sparse rows, or for a tensor of them nested `depth` levels deep.

    A sparse row holds tuples whose last item is the constant: the (k, c) of a
    vector, or the (j, k, c) of a term of Delta(h_i) in `HopfAlgebra._delta`.
    Over Q, D is the lcm of the denominators of all the constants, so every
    scaled constant is an int; over F_p, and over Q when D = 1, the result is
    (1, rows) itself.
    """
    if p:
        return 1, rows
    flat = rows
    for _ in range(depth):
        flat = [row for part in flat for row in part]
    D = 1
    for row in flat:
        for t in row:
            c = t[-1]
            if c.__class__ is Fraction:
                D = lcm(D, c.denominator)
    if D == 1:
        return 1, rows

    def scale(part, depth):
        if depth:
            return [scale(sub, depth - 1) for sub in part]
        return [tuple(t[:-1] + (t[-1].numerator * (D // t[-1].denominator),) for t in row) for row in part]

    return D, scale(rows, depth)


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


def _apply_pair(rows, x: Sequence, v: Sequence, n: int, p: int) -> list:
    """sum_i x_i rows[i](v): a sparse x acting on a sparse v through operators given by their
    sparse rows, as in h . a = sum_i h_i (h_i . a); dense, unreduced."""
    return _apply_raw({i: _compact(_apply_raw(rows[i], v, n), p) for i, _ in x}, x, n)


def _operate(field: Field, terms, i: int, vec: Sequence, n: int) -> tuple:
    """vec (length n) under operator i of the sparse action tensor `terms`, canonical."""
    p = field.char
    return _canon(_apply_raw(terms[i], _nonzero(_coerce(field, vec, n)), n), p)


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
    # `terms[i][j]` is e_i * e_j as a sparse row, the only stored form of the
    # structure constants; a dense tensor is an input format of the constructor.
    # `_ops` keeps the operators of each side once `_mult_operators` has built
    # them, and `_radical` the checked report of `jacobson_radical`
    __slots__ = ("field", "dim", "unit", "labels", "terms", "_ops", "_radical")

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
        self.terms = _tensor(field, mult, (n, n, n), "structure")
        self.unit = None if unit is None else tuple(_vector(field, unit))
        if self.unit is not None and len(self.unit) != n:
            raise DimensionMismatch("unit vector has wrong length")
        self.labels = tuple(labels) if labels is not None else tuple(f"e{i}" for i in range(n))
        if len(self.labels) != n:
            raise DimensionMismatch("wrong number of labels")
        self._ops, self._radical = {}, None

    @classmethod
    def _of_terms(cls, field: Field, terms: tuple, unit: tuple | None = None, labels=None) -> "Algebra":
        """An algebra on structure constants already in kernel form, as psl's own loops make them.

        `terms[i][j]` holds the nonzero (k, c) of e_i * e_j, reduced (ints where
        integral over Q), and `unit` is canonical; nothing is coerced or rescanned.
        """
        A = cls.__new__(cls)
        n = len(terms)
        A.field = field
        A.dim = n
        A.unit = unit
        A.labels = tuple(labels) if labels is not None else tuple(f"e{i}" for i in range(n))
        A.terms = terms
        A._ops, A._radical = {}, None
        return A

    def __eq__(self, other):
        return (
            isinstance(other, Algebra)
            and self.field == other.field
            and self.terms == other.terms
            and self.unit == other.unit
        )

    def __hash__(self):
        return hash((self.field, self.terms, self.unit))

    def __repr__(self):
        u = "unital" if self.unit is not None else "non-unital"
        return f"Algebra(dim {self.dim} over {self.field}, {u})"

    def basis_vector(self, i: int) -> tuple:
        return unit_vec(self.field, self.dim, i)

    def multiply(self, x: Sequence, y: Sequence) -> tuple:
        field, n = self.field, self.dim
        p = field.char
        x, y = _nonzero(_coerce(field, x, n)), _nonzero(_coerce(field, y, n))
        return _canon(_multiply_raw(self.terms, x, y), p)


def check_algebra(A: Algebra) -> CheckReport:
    """Associativity on all basis triples plus unit laws (when a unit is present).

    Each basis pair (i, j) accumulates (e_i e_j) e_k - e_i (e_j e_k) for every
    k into one sparse n x n block, a dict keyed by the entries k n + u it
    writes, and tests only those values; a block that does not vanish names
    its failing slices k in increasing order.  Both sides are quadratic in
    the structure constants, so over Q they run on the constants cleared of
    denominators, as ints.  The rows `flat` and `split` read every k of a row
    at once; `_axiom_block`, the block routine of the action and module
    axioms, walks the slices k of each term one by one, which took the dim-72
    graded carrier from about 7 ms to 57 ms, and this check runs on every
    smash build.
    """
    failures = []
    n = A.dim
    p = A.field.char
    terms = A.terms
    basis = [((i, 1),) for i in range(n)]
    dense = [[int(t == i) for t in range(n)] for i in range(n)]
    T = _cleared(terms, p, 1)[1]
    # row t of T for all k at once: flat[t] holds e_t e_k as (k n + u, c),
    # split[t] as (k n, s, c)
    flat = [tuple((k * n + u, y) for k in range(n) for u, y in row[k]) for row in T]
    split = [tuple((k * n, s, x) for k in range(n) for s, x in row[k]) for row in T]
    for i in range(n):
        Ti = T[i]
        for j in range(n):
            acc = {}
            get = acc.get
            for t, x in Ti[j]:
                for u, y in flat[t]:
                    acc[u] = get(u, 0) + x * y
            for base, s, x in split[j]:
                for u, y in Ti[s]:
                    u += base
                    acc[u] = get(u, 0) - x * y
            if not _vanishes(acc.values(), p):
                failures += [f"associativity fails at basis triple ({i},{j},{k})" for k in _failed_slices(acc, n, p)]
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
    terms, vs = A.terms, V._sparse_rows()
    return Subspace._span(A.field, A.dim, [_multiply_raw(terms, u, v) for u in U._sparse_rows() for v in vs])


def _mult_operators(A: Algebra, side: str) -> tuple:
    """Multiplication by each basis element on the requested sides, as sparse operator rows: built
    once per side and kept on A."""
    ops = A._ops.get(side)
    if ops is None:
        if side == "left":  # v |-> e_b v sends e_l to e_b e_l
            ops = A.terms
        elif side == "right":  # v |-> v e_b sends e_l to e_l e_b
            ops = tuple(zip(*A.terms))
        elif side == "two_sided":
            ops = _mult_operators(A, "left") + _mult_operators(A, "right")
        else:
            raise ValueError(f"bad side {side!r}")
        A._ops[side] = ops
    return ops


def ideal_closure(A: Algebra, gens: Iterable[Sequence], side: str = "two_sided") -> Subspace:
    """Smallest subspace containing gens closed under the requested multiplications."""
    ops = _mult_operators(A, side)
    return _spin(A.field, A.dim, [_coerce(A.field, g, A.dim) for g in gens], ops)


def is_ideal(A: Algebra, I: Subspace, side: str = "two_sided") -> bool:
    if I.ambient != A.dim or I.field != A.field:
        raise DimensionMismatch("subspace does not live in the algebra")
    ops, n = _mult_operators(A, side), A.dim
    return all(I._holds(_apply_raw(op, v, n)) for v in I._sparse_rows() for op in ops)


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
        images = list(map(_nonzero, self.matrix.rows))
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


def _cosets(U: Subspace, vectors) -> list[tuple]:
    """Each vector modulo U, in the coordinates of the cosets of U.complement_indices()."""
    comp = U.complement_indices()
    return [tuple(r[c] for c in comp) for r in map(U._residual, vectors)]


def _quotient_terms(U: Subspace, ops) -> tuple:
    """Operators on F^n given by their sparse rows (operator i, basis j) -> image, induced on F^n/U
    for an invariant U, as sparse rows in the coset coordinates; all rows go through one `_cosets`."""
    comp = U.complement_indices()
    rows = map(_nonzero, _cosets(U, [_dense(op[c], U.ambient) for op in ops for c in comp]))
    return tuple(tuple(islice(rows, len(comp))) for _ in ops)


def _coset_projection(U: Subspace) -> Matrix:
    """The projection of F^n onto F^n/U, each basis vector to its coset coordinates."""
    return Matrix._of_raw(U.field, tuple(_cosets(U, _identity_rows(U.ambient))), U.ambient - U.dim)


def quotient_algebra(A: Algebra, I: Subspace) -> tuple[Algebra, AlgebraMap]:
    """Quotient by a two-sided ideal on the standard complement-coset basis."""
    if not is_ideal(A, I):
        raise NotAnIdeal("subspace is not a two-sided ideal")
    comp = I.complement_indices()
    terms = _quotient_terms(I, [A.terms[c] for c in comp])
    unit = _cosets(I, [A.unit])[0] if A.unit is not None else None
    labels = tuple(f"[{A.labels[c]}]" for c in comp)
    Q = Algebra._of_terms(A.field, terms, unit, labels)
    return Q, AlgebraMap(A, Q, _coset_projection(I))


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
    """A x B on the basis of A followed by that of B; unital when both factors are."""
    if A.field != B.field:
        raise FieldMismatch("direct product across different fields")
    n, m = A.dim, B.dim
    shifted = tuple(tuple(tuple((k + n, c) for k, c in e) for e in row) for row in B.terms)
    terms = tuple(row + ((),) * m for row in A.terms) + tuple(((),) * n + row for row in shifted)
    unit = None
    if A.unit is not None and B.unit is not None:
        unit = tuple(A.unit) + tuple(B.unit)
    labels = tuple(f"{l}.1" for l in A.labels) + tuple(f"{l}.2" for l in B.labels)
    return Algebra._of_terms(A.field, terms, unit, labels)


def _closed_subalgebra(A: Algebra, S: Subspace, unit: Sequence, message: str, labels=None):
    """The algebra on a subspace S of A closed under products, on the RREF basis of S.

    Returns it with the coordinate map of S, which takes a dense vector of A
    (unreduced entries allowed) and returns its sparse kernel-form
    coordinates from `Subspace._coords`, stored as they are in the products,
    or raises InvariantViolation(message) on a vector outside S.  A full S,
    such as the carrier of a global action, keeps A's own constants.
    """

    def coords(vec):
        c = S._coords(vec)
        if c is None:
            raise InvariantViolation(message)
        return c

    terms = A.terms
    if not S.is_full():  # else the RREF basis is the standard one, and A's constants are the products
        rows = S._sparse_rows()
        terms = tuple(tuple(coords(_multiply_raw(terms, u, v)) for v in rows) for u in rows)
    return Algebra._of_terms(A.field, terms, tuple(_dense(coords(unit), S.dim)), labels), coords


def product_of_fields(field: Field, k: int) -> Algebra:
    """The componentwise algebra field^k with the canonical idempotent basis.

    AlgebraTooLarge for k above MAX_GROUP_ORDER, before anything is built.
    """
    if k > MAX_GROUP_ORDER:
        raise AlgebraTooLarge(f"product_of_fields k = {k} exceeds the cap {MAX_GROUP_ORDER}")
    terms = tuple(tuple(((i, 1),) if i == j else () for j in range(k)) for i in range(k))
    return Algebra._of_terms(field, terms, (field.one,) * k, [f"e{i+1}" for i in range(k)])
