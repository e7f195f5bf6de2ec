"""Finite-dimensional Hopf algebras.

A HopfAlgebra bundles a unital Algebra with a comultiplication tensor
(comul[i][j][k] is the coefficient of e_j (x) e_k in Delta(e_i)), a
counit covector and an antipode matrix.  Tensor-square coordinates are
first-factor-major: index (j, k) -> j*dim + k.
"""

from __future__ import annotations

from typing import Sequence

from psl.algebra import Algebra, CheckReport, InvariantViolation, check_algebra, merge_reports
from psl.exactla import (
    Field,
    Matrix,
    Subspace,
    unit_vec,
    zero_vec,
)


class InvalidGroupTable(ValueError):
    """Cayley table is not a group."""


class BadCharacteristic(ValueError):
    """Construction unavailable in this characteristic."""


class GroupTable:
    """Finite group as a validated Cayley table of indices."""

    __slots__ = ("order", "cayley", "identity", "inverses", "labels")

    def __init__(self, cayley: Sequence[Sequence[int]], labels: Sequence[str] | None = None):
        n = len(cayley)
        tab = tuple(tuple(int(x) for x in row) for row in cayley)
        if any(len(row) != n for row in tab):
            raise InvalidGroupTable("table is not square")
        if any(x < 0 or x >= n for row in tab for x in row):
            raise InvalidGroupTable("entries out of range")
        identity = None
        for e in range(n):
            if all(tab[e][j] == j and tab[j][e] == j for j in range(n)):
                identity = e
                break
        if identity is None:
            raise InvalidGroupTable("no identity element")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if tab[tab[i][j]][k] != tab[i][tab[j][k]]:
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
        cayley = [[(i + j) % n for j in range(n)] for i in range(n)]
        labels = ["1"] + [f"g^{i}" if i > 1 else "g" for i in range(1, n)]
        return cls(cayley, labels=labels)

    def mult(self, i: int, j: int) -> int:
        return self.cayley[i][j]

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
    __slots__ = ("alg", "comul", "counit", "antipode")

    def __init__(self, alg: Algebra, comul, counit, antipode: Matrix):
        if alg.unit is None:
            raise ValueError("Hopf algebra needs a unital underlying algebra")
        m = alg.dim
        field = alg.field
        self.alg = alg
        self.comul = tuple(
            tuple(tuple(field.of(x) for x in comul[i][j]) for j in range(m)) for i in range(m)
        )
        self.counit = tuple(field.of(x) for x in counit)
        if len(self.counit) != m:
            raise ValueError("counit length mismatch")
        if antipode.nrows != m or antipode.ncols != m:
            raise ValueError("antipode shape mismatch")
        self.antipode = antipode

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
            and self.comul == other.comul
            and self.counit == other.counit
            and self.antipode == other.antipode
        )

    def __hash__(self):
        return hash((self.alg, self.comul, self.counit, self.antipode))

    def __repr__(self):
        return f"HopfAlgebra(dim {self.dim} over {self.field})"

    def comul_vec(self, vec: Sequence) -> tuple:
        """Delta extended linearly; result in first-factor-major H(x)H coords."""
        v = self.alg.coerce(vec)
        m = self.dim
        out = list(zero_vec(self.field, m * m))
        for i, c in enumerate(v):
            if not c:
                continue
            di = self.comul[i]
            for j in range(m):
                row = di[j]
                for k in range(m):
                    x = row[k]
                    if x:
                        out[j * m + k] = out[j * m + k] + c * x
        return tuple(out)

    def counit_of(self, vec: Sequence):
        v = self.alg.coerce(vec)
        s = self.field.zero
        for c, e in zip(v, self.counit):
            if c and e:
                s = s + c * e
        return s

    def antipode_of(self, vec: Sequence) -> tuple:
        return self.antipode.apply(self.alg.coerce(vec))

    def tensor_square_multiply(self, x2: Sequence, y2: Sequence) -> tuple:
        """(a(x)b)(c(x)d) = ac (x) bd on H(x)H coordinate vectors."""
        m = self.dim
        out = list(zero_vec(self.field, m * m))
        for jk, c1 in enumerate(x2):
            if not c1:
                continue
            j1, k1 = divmod(jk, m)
            for jl, c2 in enumerate(y2):
                if not c2:
                    continue
                j2, k2 = divmod(jl, m)
                c = c1 * c2
                left = self.alg.mult[j1][j2]
                right = self.alg.mult[k1][k2]
                for a, la in enumerate(left):
                    if not la:
                        continue
                    ca = c * la
                    for b, rb in enumerate(right):
                        if rb:
                            out[a * m + b] = out[a * m + b] + ca * rb
        return tuple(out)


def check_hopf(H: HopfAlgebra) -> CheckReport:
    """All five axiom families on basis elements, with witnesses."""
    failures = []
    alg_report = check_algebra(H.alg)
    failures.extend(alg_report.failures)
    m = H.dim
    field = H.field

    # coassociativity and counit laws
    for i in range(m):
        lhs = {}
        rhs = {}
        for j in range(m):
            for k in range(m):
                c = H.comul[i][j][k]
                if not c:
                    continue
                for a in range(m):
                    for b in range(m):
                        x = H.comul[j][a][b]
                        if x:
                            key = (a, b, k)
                            lhs[key] = lhs.get(key, field.zero) + c * x
                        y = H.comul[k][a][b]
                        if y:
                            key = (j, a, b)
                            rhs[key] = rhs.get(key, field.zero) + c * y
        diff = {k for k in set(lhs) | set(rhs) if lhs.get(k, field.zero) != rhs.get(k, field.zero)}
        if diff:
            failures.append(f"coassociativity fails at basis {i}")

        left_counit = list(zero_vec(field, m))
        right_counit = list(zero_vec(field, m))
        for j in range(m):
            for k in range(m):
                c = H.comul[i][j][k]
                if not c:
                    continue
                left_counit[k] = left_counit[k] + H.counit[j] * c
                right_counit[j] = right_counit[j] + H.counit[k] * c
        e_i = H.alg.basis_vector(i)
        if tuple(left_counit) != e_i:
            failures.append(f"(eps (x) id)Delta != id at basis {i}")
        if tuple(right_counit) != e_i:
            failures.append(f"(id (x) eps)Delta != id at basis {i}")

    # bialgebra compatibility
    unit_sq = H.comul_vec(H.unit)
    expected_unit_sq = list(zero_vec(field, m * m))
    for j, cj in enumerate(H.unit):
        for k, ck in enumerate(H.unit):
            if cj and ck:
                expected_unit_sq[j * m + k] = cj * ck
    if unit_sq != tuple(expected_unit_sq):
        failures.append("Delta(1) != 1 (x) 1")
    if H.counit_of(H.unit) != field.one:
        failures.append("eps(1) != 1")
    for i in range(m):
        for j in range(m):
            lhs = H.comul_vec(H.alg.mult[i][j])
            rhs = H.tensor_square_multiply(
                H.comul_vec(H.alg.basis_vector(i)), H.comul_vec(H.alg.basis_vector(j))
            )
            if lhs != rhs:
                failures.append(f"Delta not multiplicative at basis pair ({i},{j})")
            if H.counit_of(H.alg.mult[i][j]) != H.counit[i] * H.counit[j]:
                failures.append(f"eps not multiplicative at basis pair ({i},{j})")

    # antipode convolution identities
    for i in range(m):
        left = list(zero_vec(field, m))
        right = list(zero_vec(field, m))
        for j in range(m):
            for k in range(m):
                c = H.comul[i][j][k]
                if not c:
                    continue
                sl = H.alg.multiply(H.antipode_of(H.alg.basis_vector(j)), H.alg.basis_vector(k))
                sr = H.alg.multiply(H.alg.basis_vector(j), H.antipode_of(H.alg.basis_vector(k)))
                for t in range(m):
                    if sl[t]:
                        left[t] = left[t] + c * sl[t]
                    if sr[t]:
                        right[t] = right[t] + c * sr[t]
        target = tuple(H.counit[i] * u for u in H.unit)
        if tuple(left) != target:
            failures.append(f"antipode law sum S(h1)h2 = eps(h)1 fails at basis {i}")
        if tuple(right) != target:
            failures.append(f"antipode law sum h1 S(h2) = eps(h)1 fails at basis {i}")

    return CheckReport(not failures, tuple(failures))


def group_algebra(field: Field, G: GroupTable) -> HopfAlgebra:
    """kG with group-like basis: Delta(g) = g(x)g, eps(g) = 1, S(g) = g^{-1}."""
    n = G.order
    mult = [[unit_vec(field, n, G.cayley[i][j]) for j in range(n)] for i in range(n)]
    alg = Algebra(field, mult, unit=unit_vec(field, n, G.identity), labels=G.labels)
    z = zero_vec(field, n)
    comul = []
    for i in range(n):
        block = [list(z) for _ in range(n)]
        block[i][i] = field.one
        comul.append(block)
    counit = (field.one,) * n
    antipode = Matrix(field, [unit_vec(field, n, G.inverses[i]) for i in range(n)], ncols=n)
    return HopfAlgebra(alg, comul, counit, antipode)


def dual_group_algebra(field: Field, G: GroupTable) -> HopfAlgebra:
    """(kG)*: p_g p_h = delta p_g, Delta(p_g) = sum_{uv=g} p_u (x) p_v."""
    n = G.order
    z = zero_vec(field, n)
    mult = [[unit_vec(field, n, i) if i == j else z for j in range(n)] for i in range(n)]
    labels = tuple(f"p({l})" for l in G.labels)
    alg = Algebra(field, mult, unit=(field.one,) * n, labels=labels)
    comul = []
    for g in range(n):
        block = [list(z) for _ in range(n)]
        for u in range(n):
            for v in range(n):
                if G.cayley[u][v] == g:
                    block[u][v] = field.one
        comul.append(block)
    counit = unit_vec(field, n, G.identity)
    antipode = Matrix(field, [unit_vec(field, n, G.inverses[i]) for i in range(n)], ncols=n)
    return HopfAlgebra(alg, comul, counit, antipode)


def dual_hopf(H: HopfAlgebra) -> HopfAlgebra:
    """Dual Hopf algebra on the dual basis (all structure tensors transposed)."""
    m = H.dim
    field = H.field
    mult = [[tuple(H.comul[k][i][j] for k in range(m)) for j in range(m)] for i in range(m)]
    labels = tuple(f"{l}*" for l in H.alg.labels)
    alg = Algebra(field, mult, unit=H.counit, labels=labels)
    comul = [
        [[H.alg.mult[j][k][i] for k in range(m)] for j in range(m)]
        for i in range(m)
    ]
    counit = H.unit
    antipode = H.antipode.transpose()
    return HopfAlgebra(alg, comul, counit, antipode)


def left_integrals(H: HopfAlgebra) -> Subspace:
    """Solutions of h*L = eps(h)*L for all basis h (1-dimensional by Larson-Sweedler)."""
    m = H.dim
    field = H.field
    rows = []
    for j in range(m):
        row = []
        for i in range(m):
            img = H.alg.multiply(H.alg.basis_vector(i), H.alg.basis_vector(j))
            shifted = list(img)
            shifted[j] = shifted[j] - H.counit[i]
            # condition block for basis element i, acting on coordinate j of Lambda
            row.extend(shifted)
        rows.append(tuple(row))
    return Matrix(field, rows, ncols=m * m).left_kernel()


def is_semisimple(H: HopfAlgebra) -> bool:
    """Maschke criterion: eps(Lambda) != 0 for a basis integral Lambda."""
    ints = left_integrals(H)
    if ints.dim != 1:
        raise InvariantViolation(
            f"integral space has dimension {ints.dim}; expected 1 for a valid Hopf algebra"
        )
    return bool(H.counit_of(ints.rows[0]))


def sweedler_h4(field: Field) -> HopfAlgebra:
    """The 4-dimensional non-semisimple Hopf algebra <1, g, x, gx> (char != 2)."""
    if field.char == 2:
        raise BadCharacteristic("Sweedler's algebra needs characteristic != 2")
    one = field.one
    z = field.zero
    I, G_, X, GX = range(4)

    def vec(**coords):
        out = [z, z, z, z]
        for idx, c in coords.items():
            out[int(idx[1])] = field.of(c)
        return tuple(out)

    e = [unit_vec(field, 4, i) for i in range(4)]
    zero4 = zero_vec(field, 4)
    mult = [[zero4 for _ in range(4)] for _ in range(4)]
    table = {
        (I, I): e[I], (I, G_): e[G_], (I, X): e[X], (I, GX): e[GX],
        (G_, I): e[G_], (G_, G_): e[I], (G_, X): e[GX], (G_, GX): e[X],
        (X, I): e[X], (X, G_): vec(_3=-1), (X, X): zero4, (X, GX): zero4,
        (GX, I): e[GX], (GX, G_): vec(_2=-1), (GX, X): zero4, (GX, GX): zero4,
    }
    for (i, j), v in table.items():
        mult[i][j] = v
    alg = Algebra(field, mult, unit=e[I], labels=("1", "g", "x", "gx"))

    comul = [[[z] * 4 for _ in range(4)] for _ in range(4)]
    comul[I][I][I] = one
    comul[G_][G_][G_] = one
    comul[X][X][I] = one            # x (x) 1
    comul[X][G_][X] = one           # g (x) x
    comul[GX][GX][G_] = one         # gx (x) g
    comul[GX][I][GX] = one          # 1 (x) gx
    counit = (one, one, z, z)
    antipode = Matrix(field, [e[I], e[G_], vec(_3=-1), e[X]], ncols=4)
    return HopfAlgebra(alg, comul, counit, antipode)
