"""Finite-dimensional Hopf algebras.

A HopfAlgebra bundles a unital Algebra with a comultiplication, stored only
as the sparse rows `_delta[i]` of Delta(h_i), a counit covector and an
antipode matrix.  Tensor-square coordinates are first-factor-major: index
(j, k) -> j*dim + k.  The dense tensor comul[i][j][k], the coefficient of
h_j (x) h_k in Delta(h_i), is an input format of the public constructor only;
`group_algebra`, `dual_group_algebra`, `dual_hopf` and `sweedler_h4` build
from sparse terms through `HopfAlgebra._of_terms`.
"""

from __future__ import annotations

from typing import Sequence

from psl.algebra import (
    MAX_GROUP_ORDER,
    Algebra,
    CheckReport,
    InvariantViolation,
    _apply_raw,
    _differ,
    _multiply_raw,
    _tensor_terms,
    check_algebra,
)
from psl.exactla import (
    Field,
    Matrix,
    Subspace,
    _coerce,
    _dense,
    _identity_rows,
    _nonzero,
    _null_span,
    _tensor,
    _vector,
    unit_vec,
)


class InvalidGroupTable(ValueError):
    """Cayley table is not a group."""


class GroupTooLarge(ValueError):
    """Group order above MAX_GROUP_ORDER."""


def _check_order(n: int) -> None:
    if n > MAX_GROUP_ORDER:
        raise GroupTooLarge(f"group order {n} exceeds the cap {MAX_GROUP_ORDER}")


class BadCharacteristic(ValueError):
    """Construction unavailable in this characteristic."""


class GroupTable:
    """Finite group as a validated Cayley table of indices."""

    __slots__ = ("order", "cayley", "identity", "inverses", "labels")

    def __init__(self, cayley: Sequence[Sequence[int]], labels: Sequence[str] | None = None):
        n = len(cayley)
        _check_order(n)
        tab = tuple(tuple(int(x) for x in row) for row in cayley)
        if any(len(row) != n for row in tab):
            raise InvalidGroupTable("table is not square")
        if labels is not None and len(labels) != n:
            raise InvalidGroupTable(f"'labels' has {len(labels)} entries for a group of order {n}")
        if any(x < 0 or x >= n for row in tab for x in row):
            raise InvalidGroupTable("entries out of range")
        identity = None
        for e in range(n):
            if all(tab[e][j] == j and tab[j][e] == j for j in range(n)):
                identity = e
                break
        if identity is None:
            raise InvalidGroupTable("no identity element")
        for i, row in enumerate(tab):
            for j, ij in enumerate(row):
                if tab[ij] != tuple(map(row.__getitem__, tab[j])):  # (ij)k = i(jk) for every k at once
                    k = next(k for k in range(n) if tab[ij][k] != row[tab[j][k]])
                    raise InvalidGroupTable(f"associativity fails at ({i},{j},{k})")
        inverses = []
        for i in range(n):
            inv = next((j for j in range(n) if tab[i][j] == identity and tab[j][i] == identity), None)
            if inv is None:
                raise InvalidGroupTable(f"element {i} has no inverse")
            inverses.append(inv)
        self.order = n
        self.cayley = tab
        self.identity = identity
        self.inverses = tuple(inverses)
        self.labels = tuple(labels) if labels is not None else tuple(
            "1" if i == identity else f"g{i}" for i in range(n)
        )

    @classmethod
    def cyclic(cls, n: int) -> "GroupTable":
        if n < 1:
            raise InvalidGroupTable("order must be positive")
        _check_order(n)
        cayley = [[(i + j) % n for j in range(n)] for i in range(n)]
        labels = ["1"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
        return cls(cayley, labels=labels)

    def is_subgroup(self, subset: Sequence[int]) -> bool:
        s = set(subset)
        if self.identity not in s:
            return False
        return all(self.cayley[a][b] in s and self.inverses[a] in s for a in s for b in s)

    def is_normal(self, subset: Sequence[int]) -> bool:
        if not self.is_subgroup(subset):
            return False
        s = set(subset)
        return all(
            self.cayley[self.cayley[g][n]][self.inverses[g]] in s
            for g in range(self.order)
            for n in s
        )


class HopfAlgebra:
    # `_delta` holds Delta(h_i) as the sparse (j*dim + k, c) of its H(x)H coordinates,
    # the only stored form of the comultiplication; `_dual`, `_semisimple` and `_comul` hold
    # dual_hopf(H), is_semisimple(H) and paction._comul_terms(H) once they have been computed
    __slots__ = ("alg", "counit", "antipode", "_delta", "_dual", "_semisimple", "_comul")

    def __init__(self, alg: Algebra, comul, counit, antipode: Matrix):
        if alg.unit is None:
            raise ValueError("Hopf algebra needs a unital underlying algebra")
        m = alg.dim
        self.alg = alg
        rows = _tensor(alg.field, comul, (m, m, m), "comultiplication")
        self.counit = tuple(_vector(alg.field, counit))
        if len(self.counit) != m:
            raise ValueError("counit length mismatch")
        if antipode.nrows != m or antipode.ncols != m:
            raise ValueError("antipode shape mismatch")
        self.antipode = antipode
        self._delta = tuple(tuple((j * m + k, c) for j, row in enumerate(block) for k, c in row) for block in rows)
        self._dual = None
        self._semisimple = None
        self._comul = None

    @classmethod
    def _of_terms(cls, alg: Algebra, delta: tuple, counit: tuple, antipode: Matrix) -> "HopfAlgebra":
        """A Hopf algebra on a comultiplication already in kernel form, as psl's own builders make it.

        `delta[i]` holds the nonzero (j*dim + k, c) of Delta(h_i), reduced (ints
        where integral over Q); `counit` and the rows of `antipode` are
        canonical; nothing is coerced or rescanned.
        """
        H = cls.__new__(cls)
        H.alg = alg
        H.counit = counit
        H.antipode = antipode
        H._delta = delta
        H._dual = None
        H._semisimple = None
        H._comul = None
        return H

    @property
    def field(self) -> Field:
        return self.alg.field

    @property
    def dim(self) -> int:
        return self.alg.dim

    @property
    def unit(self) -> tuple:
        return self.alg.unit

    def __eq__(self, other):
        return (
            isinstance(other, HopfAlgebra)
            and self.alg == other.alg
            and self._delta == other._delta
            and self.counit == other.counit
            and self.antipode == other.antipode
        )

    def __hash__(self):
        return hash((self.alg, self._delta, self.counit, self.antipode))

    def __repr__(self):
        return f"HopfAlgebra(dim {self.dim} over {self.field})"

    def counit_of(self, vec: Sequence):
        v = _coerce(self.field, vec, self.dim)
        return self.field.of(sum(c * e for c, e in zip(v, self.counit)))


def check_hopf(H: HopfAlgebra) -> CheckReport:
    """All five axiom families on basis elements, with witnesses."""
    failures = list(check_algebra(H.alg).failures)
    m = H.dim
    p = H.field.char
    terms, delta, eps = H.alg.terms, H._delta, H.counit
    dense = [[int(t == i) for t in range(m)] for i in range(m)]

    # coassociativity and counit laws
    for i in range(m):
        lhs, rhs = [0] * m ** 3, [0] * m ** 3
        left_counit, right_counit = [0] * m, [0] * m
        for jk, c in delta[i]:
            j, k = divmod(jk, m)
            for ab, x in delta[j]:
                lhs[ab * m + k] += c * x
            for ab, y in delta[k]:
                rhs[j * m * m + ab] += c * y
            left_counit[k] += eps[j] * c
            right_counit[j] += eps[k] * c
        if _differ(lhs, rhs, p):
            failures.append(f"coassociativity fails at basis {i}")
        if _differ(left_counit, dense[i], p):
            failures.append(f"(eps (x) id)Delta != id at basis {i}")
        if _differ(right_counit, dense[i], p):
            failures.append(f"(id (x) eps)Delta != id at basis {i}")

    # bialgebra compatibility
    unit = _nonzero(H.unit)
    unit_sq = [cj * ck for cj in H.unit for ck in H.unit]
    if _differ(_apply_raw(delta, unit, m * m), unit_sq, p):
        failures.append("Delta(1) != 1 (x) 1")
    if _differ([sum(c * eps[k] for k, c in unit)], [1], p):
        failures.append("eps(1) != 1")
    square = _tensor_terms(terms, terms)
    for i in range(m):
        for j in range(m):
            ij = terms[i][j]
            if _differ(_apply_raw(delta, ij, m * m), _multiply_raw(square, delta[i], delta[j]), p):
                failures.append(f"Delta not multiplicative at basis pair ({i},{j})")
            if _differ([sum(c * eps[k] for k, c in ij)], [eps[i] * eps[j]], p):
                failures.append(f"eps not multiplicative at basis pair ({i},{j})")

    # antipode convolution identities
    s = list(map(_nonzero, H.antipode.rows))
    for i in range(m):
        left, right = [0] * m, [0] * m
        for jk, c in delta[i]:
            j, k = divmod(jk, m)
            for t, x in enumerate(_multiply_raw(terms, s[j], ((k, 1),))):
                left[t] += c * x
            for t, x in enumerate(_multiply_raw(terms, ((j, 1),), s[k])):
                right[t] += c * x
        target = [eps[i] * u for u in H.unit]
        if _differ(left, target, p):
            failures.append(f"antipode law sum S(h1)h2 = eps(h)1 fails at basis {i}")
        if _differ(right, target, p):
            failures.append(f"antipode law sum h1 S(h2) = eps(h)1 fails at basis {i}")

    return CheckReport(not failures, tuple(failures))


def _inversion(field: Field, G: GroupTable) -> Matrix:
    """g -> g^{-1} on the basis of kG, and p_g -> p_{g^{-1}} on that of (kG)*: both antipodes."""
    n = G.order
    return Matrix._of_raw(field, tuple(unit_vec(field, n, G.inverses[i]) for i in range(n)), n)


def group_algebra(field: Field, G: GroupTable) -> HopfAlgebra:
    """kG with group-like basis: Delta(g) = g(x)g, eps(g) = 1, S(g) = g^{-1}."""
    n = G.order
    terms = tuple(tuple(((k, 1),) for k in row) for row in G.cayley)
    alg = Algebra._of_terms(field, terms, unit_vec(field, n, G.identity), G.labels)
    delta = tuple(((i * n + i, 1),) for i in range(n))
    return HopfAlgebra._of_terms(alg, delta, (field.one,) * n, _inversion(field, G))


def dual_group_algebra(field: Field, G: GroupTable) -> HopfAlgebra:
    """(kG)*: p_g p_h = delta p_g, Delta(p_g) = sum_{uv=g} p_u (x) p_v."""
    n = G.order
    terms = tuple(tuple(((i, 1),) if i == j else () for j in range(n)) for i in range(n))
    alg = Algebra._of_terms(field, terms, (field.one,) * n, tuple(f"p({l})" for l in G.labels))
    # uv = g has the one solution v = u^{-1} g for each u, so the terms come in index order
    delta = tuple(tuple((u * n + G.cayley[G.inverses[u]][g], 1) for u in range(n)) for g in range(n))
    return HopfAlgebra._of_terms(alg, delta, unit_vec(field, n, G.identity), _inversion(field, G))


def dual_hopf(H: HopfAlgebra) -> HopfAlgebra:
    """Dual Hopf algebra on the dual basis (all structure tensors transposed), built once and kept on H."""
    if H._dual is None:
        m = H.dim
        # h_i* h_j* = sum_k Delta(h_k)[i, j] h_k*, and Delta(h_i*) = sum_{j,k} (h_j h_k)[i] h_j* (x) h_k*
        products = [[] for _ in range(m * m)]
        for k, d in enumerate(H._delta):
            for ij, c in d:
                products[ij].append((k, c))
        delta = [[] for _ in range(m)]
        for j, row in enumerate(H.alg.terms):
            for k, e in enumerate(row):
                for i, c in e:
                    delta[i].append((j * m + k, c))
        terms = tuple(tuple(tuple(products[i * m + j]) for j in range(m)) for i in range(m))
        alg = Algebra._of_terms(H.field, terms, H.counit, tuple(f"{l}*" for l in H.alg.labels))
        H._dual = HopfAlgebra._of_terms(alg, tuple(map(tuple, delta)), H.unit, H.antipode.transpose())
    return H._dual


def left_integrals(H: HopfAlgebra) -> Subspace:
    """Solutions of h*L = eps(h)*L for all basis h (1-dimensional by Larson-Sweedler), as one
    `_null_span`: row j holds, in block i, h_i h_j less eps(h_i) at coordinate j."""
    m = H.dim
    rows = []
    for j in range(m):
        row = []
        for i, e in enumerate(H.counit):
            block = _dense(H.alg.terms[i][j], m)
            block[j] -= e
            row += block
        rows.append(row)
    return _null_span(H.field, rows, _identity_rows(m), m * m, m)


def is_semisimple(H: HopfAlgebra) -> bool:
    """Maschke criterion: eps(Lambda) != 0 for a basis integral Lambda; decided once and kept on H."""
    if H._semisimple is None:
        ints = left_integrals(H)
        if ints.dim != 1:
            raise InvariantViolation(
                f"integral space has dimension {ints.dim}; expected 1 for a valid Hopf algebra"
            )
        H._semisimple = bool(H.counit_of(ints.rows[0]))
    return H._semisimple


def sweedler_h4(field: Field) -> HopfAlgebra:
    """The 4-dimensional non-semisimple Hopf algebra <1, g, x, gx> (char != 2): g^2 = 1, x^2 = 0,
    xg = -gx, g group-like, Delta(x) = x (x) 1 + g (x) x, eps(x) = 0, S(x) = -gx."""
    p = field.char
    if p == 2:
        raise BadCharacteristic("Sweedler's algebra needs characteristic != 2")
    neg = p - 1 if p else -1
    terms = (
        (((0, 1),), ((1, 1),), ((2, 1),), ((3, 1),)),
        (((1, 1),), ((0, 1),), ((3, 1),), ((2, 1),)),
        (((2, 1),), ((3, neg),), (), ()),
        (((3, 1),), ((2, neg),), (), ()),
    )
    e = [unit_vec(field, 4, i) for i in range(4)]
    alg = Algebra._of_terms(field, terms, e[0], ("1", "g", "x", "gx"))
    # at index j*4 + k: 1 (x) 1, g (x) g, g (x) x + x (x) 1, 1 (x) gx + gx (x) g
    delta = (((0, 1),), ((5, 1),), ((6, 1), (8, 1)), ((3, 1), (13, 1)))
    antipode = Matrix._of_raw(field, (e[0], e[1], (0, 0, 0, neg), e[2]), 4)
    return HopfAlgebra._of_terms(alg, delta, (field.one, field.one, field.zero, field.zero), antipode)
