"""Exact linear algebra over Q and over prime fields F_p.

Every scalar psl stores or returns is canonical, and the field lives on
the container that holds it: an int in [0, p) over F_p (the word-size
representation of Dumas, Giorgi and Pernet, "Dense linear algebra over
word-size prime fields: the FFLAS and FFPACK packages", 2008), and over Q
an int where the value is integral and a `fractions.Fraction` with
denominator > 1 otherwise (`_rational`), so that the kernel multiplies
machine words wherever it can.  Inputs are coerced once, by `Field.of`,
when they enter a container, which is also where `FieldMismatch` is raised.
Vectors are tuples, matrices row-major tuples of such tuples.  Subspaces
are kept in reduced row echelon form so that equality of subspaces is
structural equality.  Everything is immutable and every operation is a
pure function.  In RREF a member's coordinates are its own pivot entries,
so a subspace tests membership, takes residuals and reads coordinates in
one pass over the non-pivot entries of its basis (`Subspace._tails`),
and a full subspace does no work beyond copying the vector.

One elimination, `_Echelon`, serves both fields: each vector is reduced
once against a growing semi-echelon basis of sparse rows, kept only if it
is new, and the basis is brought to RREF by back-substitution.  Over F_p it
reduces a row mod p once, when it is kept, not after every scalar operation
(the delayed reduction of the same paper).  The kernel's sparse rows
(`_nonzero`) hold the same scalars as the containers, and
`Subspace._coords` returns coordinates sparse, for the constants that store
them.  Only `_Echelon.add` divides, always by a Fraction.
Invariant subspaces are spun on it (Parker, "The computer calculation of
modular characters (the Meat-Axe)", 1984); a span or spin that reaches the
whole space stops there and returns the shared identity rows, and a spin of
the line walk reuses the closures of the lines walked before it.  Every null
space is one `_null_span`: the rows of [left | right] that lead in right.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain, product
from typing import Iterable, Iterator, Sequence


class FieldMismatch(ValueError):
    """Operands live over different fields."""


class AmbientMismatch(ValueError):
    """Subspaces of different ambient dimension were combined."""


class DimensionMismatch(ValueError):
    """Vector or matrix shapes do not agree."""


class DimensionTooLarge(ValueError):
    """Enumeration caps exceeded."""


# Miller-Rabin to the first 13 prime bases is exact below the smallest strong
# pseudoprime to all of them (Sorenson and Webster, "Strong pseudoprimes to
# twelve prime bases", 2017); PrimeField refuses any larger p
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 0 <= n < PRIME_LIMIT."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Field descriptor; char 0 means Q, prime char means F_p.

    Scalars are canonical values, and the field lives on the container that
    holds them: an int in [0, p) over F_p; over Q an int where integral and a
    `Fraction` otherwise, so dividing two Q scalars needs a `Fraction` (an
    int / int is a float).  `of` turns an input (an int, a str, or a Fraction
    over Q) into that value and raises `FieldMismatch` on a foreign type.
    """

    char: int
    zero = 0
    one = 1

    def of(self, x):
        raise NotImplementedError

    def format_scalar(self, x):
        raise NotImplementedError

    def sort_key(self, x):
        raise NotImplementedError


class RationalField(Field):
    char = 0

    def of(self, x):
        if isinstance(x, str):
            x = Fraction(x)
        elif not isinstance(x, (int, Fraction)):
            raise FieldMismatch(f"cannot coerce {type(x).__name__} into Q")
        return _rational(x)

    def format_scalar(self, x):
        return str(x)

    def sort_key(self, x):
        return (x.numerator, x.denominator)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField(Field):
    def __init__(self, p: int):
        if p >= PRIME_LIMIT:
            raise ValueError(f"GF({p}): p must be below {PRIME_LIMIT} for an exact primality test")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.char = p

    def of(self, x):
        if x.__class__ is int:
            return x % self.char
        if isinstance(x, (int, str)):
            return int(x) % self.char
        raise FieldMismatch(f"cannot coerce {type(x).__name__} into F_{self.char}")

    def format_scalar(self, x):
        return str(self.of(x))

    def sort_key(self, x):
        return (self.of(x),)

    def __repr__(self):
        return f"GF({self.char})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.char == self.char

    def __hash__(self):
        return hash(("GF", self.char))


QQ = RationalField()
_GF_CACHE: dict[int, PrimeField] = {}


def GF(p: int) -> PrimeField:
    if p not in _GF_CACHE:
        _GF_CACHE[p] = PrimeField(p)
    return _GF_CACHE[p]


def parse_field(spec: dict) -> Field:
    """Workspace field descriptor: {"kind": "Q"} or {"kind": "Fp", "p": 5}."""
    kind = spec.get("kind")
    if kind == "Q":
        return QQ
    if kind == "Fp":
        p = spec["p"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise TypeError(f"'p' must be an integer, got {type(p).__name__}")
        return GF(p)
    raise ValueError(f"unknown field kind {kind!r}")


# ---------------------------------------------------------------------------
# vectors (tuples of canonical scalars), for callers outside the containers

def zero_vec(field: Field, n: int) -> tuple:
    return (field.zero,) * n


def unit_vec(field: Field, n: int, i: int) -> tuple:
    z = field.zero
    return tuple(field.one if j == i else z for j in range(n))


# ---------------------------------------------------------------------------
# the kernel: rows are sequences of ints (F_p, p > 0) or of rationals (Q,
# p = 0); sparse rows are tuples of their nonzero (index, value) pairs.
# Over F_p, entries handed to the kernel may be unreduced, and over Q a
# raw sum may be an integral Fraction; `_canon` and `_compact` bring either
# to the one form.


def _rational(x):
    """An int or Fraction in the one form over Q: its int where it is integral (a bool as 0 or 1)."""
    return x.numerator if x.denominator == 1 else x


@cache
def _identity_rows(n: int) -> tuple:
    """The rows of the n x n identity as a container stores them, built once per n."""
    return tuple(tuple(int(j == i) for j in range(n)) for i in range(n))


@cache
def _identity_sparse(n: int) -> tuple:
    """The rows of the n x n identity in kernel form (`_nonzero`), built once per n."""
    return tuple(((i, 1),) for i in range(n))


def _canon(vec: Sequence, p: int) -> tuple:
    """Entries as a container stores them: reduced mod p, or in the one form over Q."""
    if p:
        return tuple(x % p for x in vec)
    return tuple(map(_rational, vec))


def _nonzero(row: Sequence) -> tuple:
    """The sparse form of a dense row whose entries are canonical."""
    return tuple((k, x) for k, x in enumerate(row) if x)


def _compact(raw: Sequence, p: int) -> tuple:
    """The nonzero (k, c) of dense, possibly unreduced coordinates, each c canonical."""
    if p:
        return tuple((k, v % p) for k, v in enumerate(raw) if v % p)
    return tuple((k, _rational(v)) for k, v in enumerate(raw) if v)


def _dense(sparse: Iterable[tuple], n: int) -> list:
    """The dense form of a sparse row of length n."""
    out = [0] * n
    for k, x in sparse:
        out[k] = x
    return out


def _projective_raw(p: int, n: int) -> Iterator[list]:
    """One vector per line of F_p^n: first nonzero entry 1, as lists of ints, latest lead first."""
    for lead in reversed(range(n)):
        head = [0] * lead + [1]
        for tail in product(range(p), repeat=n - lead - 1):
            yield head + list(tail)


def _combine(coeffs: Sequence, rows: Sequence[Sequence], n: int, p: int) -> tuple:
    """sum_i coeffs[i] rows[i] for dense rows, reduced once at the end."""
    out = [0] * n
    for c, row in zip(coeffs, rows):
        if c:
            for j, x in enumerate(row):
                if x:
                    out[j] += c * x
    return _canon(out, p)


class _Echelon:
    """A semi-echelon basis grown one vector at a time.

    Each row is (pivot, sparse row) with entry 1 at its pivot, and every row
    is zero at the pivots of the rows before it, so reducing a vector against
    the rows in order clears every pivot.
    """

    __slots__ = ("p", "rows")

    def __init__(self, p: int):
        self.p = p
        self.rows: list[tuple[int, tuple]] = []

    def add(self, v: list) -> bool:
        """Reduce the dense vector v (consumed) and append it if it is new."""
        p = self.p
        if p:
            for c, row in self.rows:
                f = v[c] % p
                if f:
                    for j, x in row:
                        v[j] -= f * x
            for lead, x in enumerate(v):
                if x % p:
                    break
            else:
                return False
            inv = pow(x, p - 2, p)
            self.rows.append((lead, tuple((j, y * inv % p) for j, y in enumerate(v) if y % p)))
        else:
            for c, row in self.rows:
                f = v[c]
                if f:
                    for j, x in row:
                        v[j] -= f * x
            for lead, x in enumerate(v):
                if x:
                    break
            else:
                return False
            x = x if x.__class__ is Fraction else Fraction(x)
            self.rows.append((lead, tuple((j, _rational(y / x)) for j, y in enumerate(v) if y)))
        return True

    def span(self, field: Field, n: int) -> "Subspace":
        """The spanned subspace in canonical RREF, by back-substitution.

        The rows are walked from the last one added.  Every row after a row
        is zero at its pivot, and so is every combination of them; clearing a
        row at the pivots of the rows already reduced therefore keeps its
        leading 1 and leaves those rows as they are.  Sorted by pivot, the
        reduced rows are the RREF basis, which is unique; the subspace keeps
        their sparse forms.
        """
        p = self.p
        reduced: dict[int, tuple] = {}  # pivot -> (canonical row, its sparse form)
        for lead, row in reversed(self.rows):
            v = _dense(row, n)
            cleared = False
            for c, (_, r) in reduced.items():
                f = v[c]
                if f:
                    cleared = True
                    for j, x in r:
                        v[j] -= f * x
            if cleared:
                v = _canon(v, p)
                row = _nonzero(v)
            else:  # the row is already reduced, its entries canonical
                v = tuple(v)
            reduced[lead] = (v, row)
        pivots = sorted(reduced)
        S = Subspace(field, n, tuple(reduced[c][0] for c in pivots), tuple(pivots))
        S._sparse = tuple(reduced[c][1] for c in pivots)
        return S


def _null_span(
    field: Field, left: Sequence[Sequence], right: Sequence[Sequence], n_left: int, n_right: int
) -> "Subspace":
    """span{sum_r x_r right_r : sum_r x_r left_r = 0}, by one elimination of the rows [left_r | right_r].

    The echelon rows have distinct leads, and a combination of them is
    nonzero at the smallest lead it uses, so a combination with a zero left
    block uses only the rows that lead in the right block.  Those rows,
    shifted by n_left, are still semi-echelon, and back-substitution alone
    brings them to RREF.
    """
    basis = _Echelon(field.char)
    for l, r in zip(left, right):
        basis.add([*l, *r])
    kept = _Echelon(field.char)
    kept.rows = [(c - n_left, tuple((j - n_left, x) for j, x in row)) for c, row in basis.rows if c >= n_left]
    return kept.span(field, n_right)


def _spin(
    field: Field, n: int, seeds: Iterable[list], ops: Sequence[Sequence[tuple]], known: dict | None = None
) -> "Subspace":
    """Smallest subspace of F^n containing the seeds and invariant under ops.

    ops[t][l] is the sparse image of e_l under operator t.  Every basis
    vector's images are reduced once against the basis built so far, and
    the spin stops as soon as the basis spans F^n, which it returns with no
    back-substitution.

    `known` (F_p only) maps the `_line_code` of a line to its invariant
    closure U.  When an image adds a basis row whose line is known, U is
    put into the basis whole, or returned at once if it is F^n, and the row
    and the rows U adds are closed: they get no operators.  Each closed row
    is u - sum f_i r_i for some u in U and earlier rows r_i, so the span
    stays closed under ops and the result is as without the map.
    """
    p = field.char
    basis = _Echelon(p)
    for v in seeds:
        basis.add(v)
    rows = basis.rows
    closed: set[int] = set()  # indices of rows inside an absorbed closure
    i = 0
    while i < len(rows) < n:
        if i in closed:
            i += 1
            continue
        w = rows[i][1]
        i += 1
        for op in ops:
            out = [0] * n
            for l, x in w:
                for k, c in op[l]:
                    out[k] += x * c
            if not basis.add(out):
                continue
            if known is not None and len(rows) < n:
                U = known.get(_line_code(rows[-1][1], p, n))
                if U is not None:
                    if U.is_full():
                        return U
                    start = len(rows) - 1
                    for u in U.rows:
                        basis.add(list(u))
                    closed.update(range(start, len(rows)))
            if len(rows) == n:
                break
    if len(rows) == n:
        return Subspace.full_space(field, n)
    return basis.span(field, n)


def _operator_terms(field: Field, n: int, operators: Sequence["Matrix"]) -> list[tuple]:
    """Each n x n operator matrix as its sparse rows, images of the basis vectors."""
    ops = []
    for op in operators:
        if op.field != field:
            raise FieldMismatch(f"operator over {op.field}, space over {field}")
        if op.nrows != n or op.ncols != n:
            raise DimensionMismatch(f"operator is {op.nrows}x{op.ncols}, space has dim {n}")
        ops.append(tuple(map(_nonzero, op.rows)))
    return ops


def _vector(field: Field, vec: Sequence) -> list:
    """A vector entering from outside as a dense list of canonical scalars.

    A string is refused rather than read as a vector of its characters.
    """
    if isinstance(vec, str):
        raise TypeError(f"expected a vector, got the string {vec!r}")
    of = field.of
    return [of(x) for x in vec]


def _coerce(field: Field, vec: Sequence, n: int, error=DimensionMismatch) -> list:
    """A vector entering from outside as a dense list of canonical scalars, its length checked."""
    v = _vector(field, vec)
    if len(v) != n:
        raise error(f"vector length {len(v)} != {n}")
    return v


def _tensor(field: Field, tensor, shape: tuple[int, int, int], what: str) -> tuple:
    """The sparse rows (`_nonzero`) of a dense tensor t[i][j] of vectors entering from outside.

    Every length must equal `shape` exactly: a short tensor is not indexed
    out of range and a long one is not truncated.
    """
    dense = [[_vector(field, v) for v in row] for row in tensor]
    rows, cols, width = shape
    if len(dense) != rows or any(len(row) != cols or any(len(v) != width for v in row) for row in dense):
        raise DimensionMismatch(f"{what} tensor shape mismatch: expected {rows} x {cols} x {width}")
    return tuple(tuple(map(_nonzero, row)) for row in dense)


# ---------------------------------------------------------------------------
# matrices

class Matrix:
    """Immutable dense matrix over one field, rows of canonical scalars."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows: Iterable[Iterable], ncols: int | None = None):
        rws = tuple(tuple(_vector(field, row)) for row in rows)
        if rws:
            ncols = len(rws[0])
            if any(len(r) != ncols for r in rws):
                raise DimensionMismatch("ragged rows")
        elif ncols is None:
            ncols = 0
        self.field = field
        self.rows = rws
        self.nrows = len(rws)
        self.ncols = ncols

    @classmethod
    def _of_raw(cls, field: Field, rows: tuple, ncols: int) -> "Matrix":
        """A matrix on rows already in container form (tuples of canonical scalars)."""
        m = cls.__new__(cls)
        m.field = field
        m.rows = rows
        m.nrows = len(rows)
        m.ncols = ncols
        return m

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls._of_raw(field, _identity_rows(n), n)

    def _check_field(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.ncols == other.ncols
        )

    def __hash__(self):
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.format_scalar(x) for x in r) for r in self.rows)
        return f"Matrix({self.field}, {self.nrows}x{self.ncols}: [{body}])"

    def transpose(self) -> "Matrix":
        # zip(*rows) of no rows is empty, but an m x n matrix has n columns to turn into rows
        rows = tuple(zip(*self.rows)) if self.rows else ((),) * self.ncols
        return Matrix._of_raw(self.field, rows, self.nrows)

    def apply(self, vec: Sequence) -> tuple:
        """Row-vector action: vec @ self (rows of self are images of basis)."""
        v = _coerce(self.field, vec, self.nrows)
        return _combine(v, self.rows, self.ncols, self.field.char)

    def __mul__(self, other: "Matrix") -> "Matrix":
        self._check_field(other)
        if self.ncols != other.nrows:
            raise DimensionMismatch("inner dimensions differ")
        p, n = self.field.char, other.ncols
        return Matrix._of_raw(self.field, tuple(_combine(r, other.rows, n, p) for r in self.rows), n)

    def rank(self) -> int:
        return sum(map(_Echelon(self.field.char).add, map(list, self.rows)))

    def left_kernel(self) -> "Subspace":
        """Solutions of x @ self = 0 as a subspace of F^nrows."""
        return _null_span(self.field, self.rows, _identity_rows(self.nrows), self.ncols, self.nrows)


# ---------------------------------------------------------------------------
# subspaces (canonical RREF bases)

class Subspace:
    """Subspace of F^ambient given by an RREF basis of canonical rows, no zero rows.

    In RREF a member's coordinates are its own entries at the pivots, and a
    vector v lies in the span iff v_j = sum_s v_{c_s} row_s[j] at every
    non-pivot column j.  `_tails` lists, for each non-pivot column j, the
    nonzero (c_s, row_s[j]) of the basis, built on first use; membership,
    residuals and coordinates make one pass over these tails only.  The
    kernel form of the rows (`_nonzero`), which products and operators read,
    and the non-pivot columns (`complement_indices`), which quotients read,
    are likewise built once.
    """

    # `_tail`, `_sparse` and `_complement` hold the tails, the sparse rows and the
    # non-pivot columns once they are built
    __slots__ = ("field", "ambient", "rows", "pivots", "_tail", "_sparse", "_complement")

    def __init__(self, field: Field, ambient: int, rows: tuple, pivots: tuple):
        self.field = field
        self.ambient = ambient
        self.rows = rows
        self.pivots = pivots
        self._tail = None
        self._sparse = None
        self._complement = None

    @classmethod
    def from_vectors(cls, field: Field, ambient: int, vectors: Iterable[Sequence]) -> "Subspace":
        return cls._span(field, ambient, [_coerce(field, v, ambient, AmbientMismatch) for v in vectors])

    @classmethod
    def _span(cls, field: Field, ambient: int, rows: Sequence[Sequence]) -> "Subspace":
        """Span of rows of length `ambient` (unreduced entries allowed over F_p); stops once it is F^ambient."""
        basis = _Echelon(field.char)
        for row in rows:
            if basis.add(list(row)) and len(basis.rows) == ambient:
                return cls.full_space(field, ambient)
        return basis.span(field, ambient)

    @classmethod
    def zero_space(cls, field: Field, ambient: int) -> "Subspace":
        return cls(field, ambient, (), ())

    @classmethod
    def full_space(cls, field: Field, ambient: int) -> "Subspace":
        S = cls(field, ambient, _identity_rows(ambient), tuple(range(ambient)))
        S._sparse = _identity_sparse(ambient)
        return S

    @property
    def dim(self) -> int:
        return len(self.rows)

    def is_zero(self) -> bool:
        return not self.rows

    def is_full(self) -> bool:
        return self.dim == self.ambient

    def _check_compat(self, other: "Subspace") -> None:
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if self.ambient != other.ambient:
            raise AmbientMismatch(f"{self.ambient} vs {other.ambient}")

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.field == other.field
            and self.ambient == other.ambient
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.ambient, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(self.field.format_scalar(x) for x in r) for r in self.rows)
        return f"Subspace(dim {self.dim} of {self.ambient}: [{body}])"

    def sort_key(self):
        return (self.dim, tuple(self.field.sort_key(x) for row in self.rows for x in row))

    def _tails(self) -> tuple:
        """(j, ((c_s, row_s[j]) for the rows with row_s[j] != 0)) for each non-pivot column j."""
        if self._tail is None:
            rows, pivots = self.rows, self.pivots
            cols = list(map(_nonzero, zip(*rows))) if rows else [()] * self.ambient
            lead = set(pivots)
            self._tail = tuple(
                (j, tuple((pivots[s], x) for s, x in col)) for j, col in enumerate(cols) if j not in lead
            )
        return self._tail

    def _sparse_rows(self) -> tuple:
        """The basis rows in kernel form (`_nonzero`), built on first use."""
        if self._sparse is None:
            self._sparse = tuple(map(_nonzero, self.rows))
        return self._sparse

    def _residual(self, vec: Sequence) -> list:
        """vec minus its combination of the basis rows (unreduced entries allowed over F_p).

        The combination matches vec at every pivot, so the residual is zero
        there and v_j - sum_s v_{c_s} row_s[j] at each non-pivot column j.
        """
        p = self.field.char
        out = [0] * self.ambient
        for j, tail in self._tails():
            r = vec[j]
            for c, x in tail:
                f = vec[c]
                if f:
                    r -= f * x
            out[j] = r % p if p else _rational(r)
        return out

    def _holds(self, vec: Sequence) -> bool:
        """Membership of a vector (unreduced entries allowed over F_p); stops at the first nonzero residual."""
        p = self.field.char
        for j, tail in self._tails():
            r = vec[j]
            for c, x in tail:
                f = vec[c]
                if f:
                    r -= f * x
            if (r % p if p else r):
                return False
        return True

    def _coords(self, vec: Sequence) -> tuple | None:
        """Coordinates of a vector in the RREF basis, sparse and in kernel form (`_compact`), or None if it is
        outside (unreduced entries allowed); the one membership-and-coordinates routine."""
        if not self._holds(vec):
            return None
        return _compact([vec[c] for c in self.pivots], self.field.char)

    def reduce(self, vec: Sequence) -> tuple:
        """Residual of vec after elimination against the basis."""
        return tuple(self._residual(_coerce(self.field, vec, self.ambient, AmbientMismatch)))

    def contains(self, vec: Sequence) -> bool:
        return self._holds(_coerce(self.field, vec, self.ambient, AmbientMismatch))

    def contains_space(self, other: "Subspace") -> bool:
        self._check_compat(other)
        return all(self._holds(r) for r in other.rows)

    def __le__(self, other: "Subspace") -> bool:
        return other.contains_space(self)

    def coords_of(self, vec: Sequence) -> tuple | None:
        """Coordinates of vec in the RREF basis, or None if vec is outside."""
        c = self._coords(_coerce(self.field, vec, self.ambient, AmbientMismatch))
        return None if c is None else tuple(_dense(c, self.dim))

    def __add__(self, other: "Subspace") -> "Subspace":
        self._check_compat(other)
        return Subspace._span(self.field, self.ambient, self.rows + other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        """The vectors sum_r x_r u_r with sum_r x_r u_r + sum_s y_s v_s = 0 over the two bases."""
        self._check_compat(other)
        n = self.ambient
        zeros = ((0,) * n,) * other.dim
        return _null_span(self.field, self.rows + other.rows, self.rows + zeros, n, n)

    def complement_indices(self) -> tuple[int, ...]:
        """Unit-vector indices extending the basis, in increasing order, built on first use."""
        if self._complement is None:
            lead = set(self.pivots)
            self._complement = tuple(c for c in range(self.ambient) if c not in lead)
        return self._complement


def preimage_under(matrix: Matrix, target: Subspace) -> Subspace:
    """{x : x @ matrix in target} as a subspace of F^nrows: the x whose residual against target vanishes."""
    if matrix.ncols != target.ambient:
        raise AmbientMismatch("map target and subspace ambient differ")
    rows = [target._residual(r) for r in matrix.rows]
    return _null_span(matrix.field, rows, _identity_rows(matrix.nrows), matrix.ncols, matrix.nrows)


# the most lines of F_p^n that a walk over them takes
ENUM_BUDGET = 1 << 17


def _line_code(row: Sequence[tuple], p: int, n: int) -> int:
    """sum_j x_j p^(n-1-j) for a sparse row of canonical F_p entries, so one code per line for rows
    with first nonzero entry 1; the lines with lead n - 1 - m, as `_projective_raw` lists them,
    have the codes p^m .. 2 p^m - 1 in order."""
    return sum(x * p ** (n - 1 - j) for j, x in row)


def _line_closures(field: Field, n: int, ops: Sequence[Sequence[tuple]]) -> Iterator[Subspace]:
    """Each distinct invariant closure of a line of F_p^n under the sparse operators, once.

    The one walk over the lines: the lattice enumeration, the irreducibility
    test and `pmod.irreducible_extension` all read it.  More than ENUM_BUDGET
    lines raise DimensionTooLarge before any line is listed or spun, and
    repeated, zero and scalar operators are dropped (see
    `enumerate_invariant_subspaces`).  The lines are walked latest lead
    first, and every spin reads the closures of the lines walked before it
    (`_spin`'s `known`): a basis row that leads after its seed's lead is
    such a line, so an irreducible set spins about two vectors per line.
    All lines whose closure is F^n share one full `Subspace`.
    """
    p = field.char
    count = (p ** n - 1) // (p - 1)
    if count > ENUM_BUDGET:
        raise DimensionTooLarge(f"projective space too large ({count} > {ENUM_BUDGET})")
    ops = [op for op in dict.fromkeys(ops) if not _is_scalar(op)]
    codes = chain.from_iterable(range(p ** m, 2 * p ** m) for m in range(n))  # the `_line_code` of each line
    known: dict[int, Subspace] = {}
    distinct: dict[tuple | None, Subspace] = {}  # keyed by the rows, None for F^n, whose rows are not hashed per line
    for code, v in zip(codes, _projective_raw(p, n)):
        c = _spin(field, n, [v], ops, known)
        key = None if c.is_full() else c.rows
        if key not in distinct:
            distinct[key] = c
            yield c
        known[code] = distinct[key]


def enumerate_invariant_subspaces(field: Field, ambient: int, operators: Sequence[Matrix]) -> list[Subspace]:
    """All subspaces invariant under the operators (finite fields only).

    Every invariant subspace is the join of the cyclic closures of its
    vectors, so the lattice is generated by the closures of the projective
    representatives under joins (`_line_closures` walks the lines).  Each
    unordered pair of subspaces found is
    joined at most once, and not at all when one contains the other, since
    that join is the larger one.  Returned in canonical order.  More than
    ENUM_BUDGET lines raise DimensionTooLarge.

    A repeated operator, the zero operator and scalar ones (the identity
    included) are dropped before any spin.  The lattice depends only on the
    unital algebra the operators generate (Lux, Mueller and Ringe,
    "Peakword condensation and submodule lattices", 1994), and every
    subspace is invariant under a scalar, so dropping them is exact.
    """
    return _invariant_lattice(field, ambient, _operator_terms(field, ambient, operators))


def _is_scalar(op: Sequence[tuple]) -> bool:
    """Whether the sparse operator is c times the identity, c = 0 included."""
    first = op[0] if op else ()
    if not first:
        return not any(op)
    c = first[0][1]
    return all(row == ((l, c),) for l, row in enumerate(op))


def _invariant_lattice(field: Field, ambient: int, ops: Sequence[Sequence[tuple]]) -> list[Subspace]:
    """`enumerate_invariant_subspaces` on sparse operators, tuples with ops[t][l] the image of e_l.

    The line closures come from the one walk, `_line_closures`, which spins
    with each distinct operator once and no zero or scalar one.  Containment
    is read from the smaller member's RREF rows, by `_holds` against the
    larger; two distinct subspaces of one dimension never nest.
    """
    if field.char == 0:
        raise FieldMismatch("invariant-subspace enumeration needs a finite field")
    members = [Subspace.zero_space(field, ambient), *_line_closures(field, ambient, ops)]
    found = {S.rows: S for S in members}
    for k, a in enumerate(members):  # a join found on the way is appended, and paired in turn
        for b in members[:k]:
            small, big = (a, b) if a.dim < b.dim else (b, a)
            if small.dim < big.dim and all(map(big._holds, small.rows)):
                continue
            s = a + b
            if s.rows not in found:
                found[s.rows] = s
                members.append(s)
    return sorted(found.values(), key=Subspace.sort_key)
