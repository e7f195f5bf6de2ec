"""Partial actions of finite-dimensional Hopf algebras on algebras.

The action tensor stores act[i][j] = h_i . e_j as a coordinate vector.
A partial action satisfies, on a unital algebra,

    PA1: 1_H . a = a
    PA3: h . (ab)    = sum (h1 . a)(h2 . b)
    PA4: h . (g . b) = sum (h1 . 1_A)((h2 g) . b)

and is global when additionally h . 1_A = eps(h) 1_A.
"""

from __future__ import annotations

import random
from typing import Sequence

from psl.algebra import (
    Algebra,
    AlgebraMap,
    CheckReport,
    InvariantViolation,
    NotAnIdeal,
    _add_scaled,
    _apply_raw,
    _closed_subalgebra,
    _compact,
    _differ,
    _multiply_raw,
    _operate,
    _operate_sum,
    _tensor_terms,
    is_ideal,
    quotient_algebra,
)
from psl.exactla import (
    DimensionMismatch,
    Matrix,
    Subspace,
    _canon,
    _coerce,
    _nonzero,
    zero_vec,
)
from psl.hopf import GroupTable, HopfAlgebra, dual_group_algebra, dual_hopf, group_algebra


class NotHStable(ValueError):
    """Ideal is not H-stable."""


class NotIdempotent(ValueError):
    pass


class NotRightIdealUnit(ValueError):
    """The idempotent is not an identity element for its right ideal."""


class BadSubgroup(ValueError):
    pass


class CharDividesOrder(ValueError):
    pass


class PartialAction:
    # `_terms[i][j]` is h_i . e_j as a sparse row; `_smash` holds the partial
    # smash product once build_partial_smash has made it
    __slots__ = ("hopf", "alg", "act", "_terms", "_smash")

    def __init__(self, hopf: HopfAlgebra, alg: Algebra, act):
        if hopf.field != alg.field:
            raise DimensionMismatch("Hopf algebra and algebra over different fields")
        if alg.unit is None:
            raise ValueError("partial actions require a unital algebra")
        if alg.dim == 0:
            raise ValueError("partial actions require a nonzero algebra")
        m, n = hopf.dim, alg.dim
        of = alg.field.of
        self.hopf = hopf
        self.alg = alg
        self.act = tuple(
            tuple(tuple(of(x) for x in act[i][j]) for j in range(n)) for i in range(m)
        )
        if any(len(self.act[i][j]) != n for i in range(m) for j in range(n)):
            raise DimensionMismatch("action tensor shape mismatch")
        self._terms = tuple(tuple(_nonzero(v) for v in row) for row in self.act)
        self._smash = None

    @property
    def field(self):
        return self.alg.field

    def __eq__(self, other):
        return (
            isinstance(other, PartialAction)
            and self.hopf == other.hopf
            and self.alg == other.alg
            and self.act == other.act
        )

    def __hash__(self):
        return hash((self.hopf, self.alg, self.act))

    def __repr__(self):
        return f"PartialAction(H dim {self.hopf.dim} on A dim {self.alg.dim} over {self.field})"

    def act_basis(self, i: int, avec: Sequence) -> tuple:
        """h_i . a for a basis element h_i."""
        return _operate(self.field, self._terms, i, avec, self.alg.dim)

    def act_vec(self, hvec: Sequence, avec: Sequence) -> tuple:
        """h . a for arbitrary coordinate vectors."""
        return _operate_sum(self.field, self._terms, hvec, avec, self.alg.dim)

    def act_matrix(self, i: int) -> Matrix:
        """Matrix of a |-> h_i . a in the row-vector convention."""
        return Matrix._of_raw(self.field, self.act[i], self.alg.dim)

    def unit_image(self, i: int) -> tuple:
        """h_i . 1_A."""
        return self.act_basis(i, self.alg.unit)


def _comul_terms(H: HopfAlgebra) -> tuple:
    """Delta(h_i) as its nonzero (p, q, c), in index order."""
    m = H.dim
    return tuple(tuple(divmod(pq, m) + (c,) for pq, c in d) for d in H._delta)


def check_partial_action(pa: PartialAction, samples: int = 4) -> CheckReport:
    """PA1, PA3, PA4 on all basis tuples; PA2 re-checked on seeded random samples."""
    failures = []
    H, A = pa.hopf, pa.alg
    m, n = H.dim, A.dim
    field = pa.field
    p = field.char
    terms, h_terms = A.terms, H.alg.terms
    act = pa._terms
    comul = _comul_terms(H)
    basis = [((j, 1),) for j in range(n)]
    dense = [[int(t == j) for t in range(n)] for j in range(n)]
    # h . e_k as a linear function of h, then h_p . 1_A and (h_q h_g) . e_k
    columns = [[act[r][k] for r in range(m)] for k in range(n)]
    unit_a = _nonzero(A.unit)
    unit_images = [_compact(_apply_raw(act[i], unit_a, n), p) for i in range(m)]
    hg_act = [
        [[_compact(_apply_raw(columns[k], h_terms[q][g], n), p) for k in range(n)] for g in range(m)]
        for q in range(m)
    ]

    unit_h = _nonzero(H.unit)
    for j in range(n):
        if _differ(_apply_raw(columns[j], unit_h, n), dense[j], p):
            failures.append(f"PA1 fails: 1_H . a != a at basis a={A.labels[j]}")

    # PA3 on all basis triples
    for i in range(m):
        for j in range(n):
            for k in range(n):
                lhs = _apply_raw(act[i], terms[j][k], n)
                rhs = [0] * n
                for hp, hq, c in comul[i]:
                    _add_scaled(rhs, c, _multiply_raw(terms, act[hp][j], act[hq][k]))
                if _differ(lhs, rhs, p):
                    failures.append(f"PA3 fails at (h{i}, {A.labels[j]}, {A.labels[k]})")

    # PA4 on all basis triples
    for i in range(m):
        for g in range(m):
            for k in range(n):
                lhs = _apply_raw(act[i], act[g][k], n)
                rhs = [0] * n
                for hp, hq, c in comul[i]:
                    _add_scaled(rhs, c, _multiply_raw(terms, unit_images[hp], hg_act[hq][g][k]))
                if _differ(lhs, rhs, p):
                    failures.append(f"PA4 fails at (h{i}, h{g}, {A.labels[k]})")

    # PA2 is implied by PA1+PA3+PA4 for unital A; sample it as redundancy
    rng = random.Random(20107)
    for _ in range(samples):
        i = rng.randrange(m)
        g = rng.randrange(m)
        a = rng.randrange(n)
        b = rng.randrange(n)
        lhs = _apply_raw(act[i], _compact(_multiply_raw(terms, basis[a], act[g][b]), p), n)
        rhs = [0] * n
        for hp, hq, c in comul[i]:
            _add_scaled(rhs, c, _multiply_raw(terms, act[hp][a], hg_act[hq][g][b]))
        if _differ(lhs, rhs, p):
            failures.append(f"PA2 fails at sampled (h{i}, h{g})")

    return CheckReport(not failures, tuple(failures))


def is_global(pa: PartialAction) -> bool:
    """h . 1_A = eps(h) 1_A on every basis element."""
    unit, p = pa.alg.unit, pa.field.char
    return not any(
        _differ(list(pa.unit_image(i)), [e * x for x in unit], p) for i, e in enumerate(pa.hopf.counit)
    )


# ---------------------------------------------------------------------------
# builders

def trivial_action(H: HopfAlgebra, A: Algebra) -> PartialAction:
    """The global action h . a = eps(h) a."""
    n = A.dim
    act = [[[e if k == j else 0 for k in range(n)] for j in range(n)] for e in H.counit]
    return PartialAction(H, A, act)


def c4_triple(field) -> PartialAction:
    """C_4 acting partially on field^3 by shifting the canonical idempotents."""
    from psl.algebra import product_of_fields

    H = group_algebra(field, GroupTable.cyclic(4))
    A = product_of_fields(field, 3)
    z = zero_vec(field, 3)
    e = [A.basis_vector(i) for i in range(3)]
    act = [
        [e[0], e[1], e[2]],
        [z, e[0], e[1]],
        [e[2], z, e[0]],
        [e[1], e[2], z],
    ]
    pa = PartialAction(H, A, act)
    check_partial_action(pa).raise_if_failed("c4_triple axioms")
    return pa


def dual_group_translation_action(field, G: GroupTable) -> PartialAction:
    """The global (kG)*-action on kG given by p_g acting as projection on g."""
    H = dual_group_algebra(field, G)
    B = group_algebra(field, G).alg
    n = G.order
    z = zero_vec(field, n)
    act = [[B.basis_vector(j) if i == j else z for j in range(n)] for i in range(n)]
    pa = PartialAction(H, B, act)
    check_partial_action(pa).raise_if_failed("dual group translation axioms")
    return pa


def induce_from_ideal(global_pa: PartialAction, e: Sequence) -> PartialAction:
    """Restrict a global action to the right ideal eB via a |-> e (h . a)."""
    if not is_global(global_pa):
        raise ValueError("induce_from_ideal needs a global action")
    B = global_pa.alg
    e = tuple(_coerce(B.field, e, B.dim))
    if B.multiply(e, e) != e:
        raise NotIdempotent("e is not idempotent")
    ideal = Subspace.from_vectors(
        B.field, B.dim, [B.multiply(e, B.basis_vector(j)) for j in range(B.dim)]
    )
    for r in ideal.rows:
        if B.multiply(e, r) != r or B.multiply(r, e) != r:
            raise NotRightIdealUnit("e is not an identity element of eB")

    A, coords = _closed_subalgebra(
        B, ideal, e, "product escaped the right ideal eB", [f"a{s}" for s in range(ideal.dim)]
    )
    act = [
        [coords(B.multiply(e, global_pa.act_basis(i, r))) for r in ideal.rows]
        for i in range(global_pa.hopf.dim)
    ]
    pa = PartialAction(global_pa.hopf, A, act)
    check_partial_action(pa).raise_if_failed("induced partial action axioms")
    return pa


def dual_group_idempotent(field, G: GroupTable, N: Sequence[int]) -> PartialAction:
    """(kG)* acting partially on e_N kG for a normal subgroup N of order prime to char."""
    Ns = sorted(set(int(x) for x in N))
    if not G.is_normal(Ns):
        raise BadSubgroup(f"{Ns} is not a normal subgroup")
    if field.char and len(Ns) % field.char == 0:
        raise CharDividesOrder(f"char {field.char} divides |N| = {len(Ns)}")
    B = group_algebra(field, G).alg
    inv = pow(len(Ns), -1, field.char) if field.char else field.one / len(Ns)
    e_N = list(zero_vec(field, G.order))
    for idx in Ns:
        e_N[idx] = inv
    return induce_from_ideal(dual_group_translation_action(field, G), tuple(e_N))


# ---------------------------------------------------------------------------
# invariants, stability, quotients

def invariant_subalgebra(pa: PartialAction) -> Subspace:
    """Solutions of h . a = a (h . 1_A) for all basis h."""
    A = pa.alg
    n = A.dim
    unit_images = [pa.unit_image(i) for i in range(pa.hopf.dim)]
    rows = []
    for j in range(n):
        ej = A.basis_vector(j)
        blocks = []
        for i, ci in enumerate(unit_images):
            diff = tuple(
                x - y for x, y in zip(pa.act_basis(i, ej), A.multiply(ej, ci))
            )
            blocks.extend(diff)
        rows.append(tuple(blocks))
    S = Matrix(pa.field, rows, ncols=n * pa.hopf.dim).left_kernel()
    if not S.contains(A.unit):
        raise InvariantViolation("invariant subalgebra lost the unit")
    if not all(S.contains(A.multiply(u, v)) for u in S.rows for v in S.rows):
        raise InvariantViolation("invariant subalgebra not closed")
    return S


def colon_ideal(pa: PartialAction, I: Subspace) -> Subspace:
    """(I:H) = {x in I : h . x in I for all h}: largest H-stable ideal inside I."""
    if not is_ideal(pa.alg, I):
        raise NotAnIdeal("colon_ideal needs a two-sided ideal")
    if I.is_zero():
        return I
    n = pa.alg.dim
    act = pa._terms
    rows = tuple(
        _canon([x for op in act for x in I._residual(_apply_raw(op, _nonzero(r), n))], pa.field.char)
        for r in I.rows
    )
    z = Matrix._of_raw(pa.field, rows, n * pa.hopf.dim).left_kernel()
    result = Subspace._span(pa.field, n, [I.lift(c) for c in z.rows])
    if not result <= I:
        raise InvariantViolation("colon ideal is not inside I")
    if not is_h_stable(pa, result):
        raise InvariantViolation("colon ideal is not H-stable")
    return result


def is_h_stable(pa: PartialAction, I: Subspace) -> bool:
    """H . I <= I, checked on basis pairs."""
    n = pa.alg.dim
    act = pa._terms
    return all(I._holds(_apply_raw(op, _nonzero(r), n)) for r in I.rows for op in act)


def quotient_action(pa: PartialAction, I: Subspace) -> tuple[PartialAction, AlgebraMap]:
    """Induced action h . (a + I) = (h . a) + I on the quotient algebra."""
    if not is_h_stable(pa, I):
        raise NotHStable("quotient_action needs an H-stable ideal")
    Q, proj = quotient_algebra(pa.alg, I)
    comp = I.complement_indices()
    lifts = [pa.alg.basis_vector(c) for c in comp]
    act = [
        [proj.apply(pa.act_basis(i, lifts[j])) for j in range(Q.dim)]
        for i in range(pa.hopf.dim)
    ]
    qpa = PartialAction(pa.hopf, Q, act)
    check_partial_action(qpa).raise_if_failed("quotient action axioms")
    return qpa, proj


# ---------------------------------------------------------------------------
# coactions (Eq. h . a = sum a0 a1(h) over the dual Hopf algebra)

class PartialCoaction:
    """rho: A -> A (x) K in first-factor-major coordinates (K coacting)."""

    __slots__ = ("alg", "hopf", "rho")

    def __init__(self, alg: Algebra, hopf: HopfAlgebra, rho: Matrix):
        if rho.nrows != alg.dim or rho.ncols != alg.dim * hopf.dim:
            raise DimensionMismatch("coaction matrix shape mismatch")
        self.alg = alg
        self.hopf = hopf
        self.rho = rho

    @property
    def field(self):
        return self.alg.field

    def rho_of(self, vec: Sequence) -> tuple:
        return self.rho.apply(vec)


def action_to_coaction(pa: PartialAction) -> PartialCoaction:
    """rho(a) = sum_i (h_i . a) (x) p_i over the dual basis of H*."""
    K = dual_hopf(pa.hopf)
    n, m = pa.alg.dim, K.dim
    rows = tuple(tuple(pa.act[i][j][a] for a in range(n) for i in range(m)) for j in range(n))
    return PartialCoaction(pa.alg, K, Matrix._of_raw(pa.field, rows, n * m))


def coaction_to_action(pc: PartialCoaction, hopf: HopfAlgebra) -> PartialAction:
    """Reconstruct h . a = sum a0 a1(h) (dual-basis pairing against K = H*)."""
    n, m = pc.alg.dim, pc.hopf.dim
    if hopf.dim != m:
        raise DimensionMismatch("Hopf algebra does not match the coacting dual")
    act = [
        [
            tuple(pc.rho.rows[j][a * m + i] for a in range(n))
            for j in range(n)
        ]
        for i in range(m)
    ]
    return PartialAction(hopf, pc.alg, act)


def check_partial_coaction(pc: PartialCoaction) -> CheckReport:
    """PC1, PC2 on basis pairs, PC3 on all basis elements."""
    failures = []
    A, K = pc.alg, pc.hopf
    n, m = A.dim, K.dim
    p = pc.field.char
    rho = [_nonzero(r) for r in pc.rho.rows]
    eps = K.counit
    dense = [[int(t == j) for t in range(n)] for j in range(n)]
    tensor = _tensor_terms(A.terms, K.alg.terms)

    for j in range(n):
        counit_applied = [0] * n
        for idx, c in rho[j]:
            a, k = divmod(idx, m)
            counit_applied[a] += c * eps[k]
        if _differ(counit_applied, dense[j], p):
            failures.append(f"PC1 fails at basis {A.labels[j]}")

    for j in range(n):
        for k in range(n):
            lhs = _apply_raw(rho, A.terms[j][k], n * m)
            if _differ(lhs, _multiply_raw(tensor, rho[j], rho[k]), p):
                failures.append(f"PC2 fails at basis pair ({A.labels[j]}, {A.labels[k]})")

    # (rho (x) id) rho(e_j) = (rho(1) (x) 1_K)((id (x) Delta) rho(e_j)) in A (x) K (x) K
    rho_unit = _compact(_apply_raw(rho, _nonzero(A.unit), n * m), p)
    comul = _comul_terms(K)
    for j in range(n):
        lhs = [0] * (n * m * m)
        slices = [[0] * (n * m) for _ in range(m)]  # (id (x) Delta) rho(e_j), by its last factor
        for idx, c in rho[j]:
            a, k = divmod(idx, m)
            for idx2, c2 in rho[a]:
                lhs[idx2 * m + k] += c * c2
            for l1, l2, d in comul[k]:
                slices[l2][a * m + l1] += c * d
        rhs = [0] * (n * m * m)
        for l2, part in enumerate(slices):
            for t, x in enumerate(_multiply_raw(tensor, rho_unit, _nonzero(part))):
                rhs[t * m + l2] += x
        if _differ(lhs, rhs, p):
            failures.append(f"PC3 fails at basis {A.labels[j]}")

    return CheckReport(not failures, tuple(failures))


def coinvariant_subalgebra(pc: PartialCoaction) -> Subspace:
    """Solutions of rho(x) = (x (x) 1_K) rho(1)."""
    A, K = pc.alg, pc.hopf
    n, m = A.dim, K.dim
    tensor = _tensor_terms(A.terms, K.alg.terms)
    rho_unit = _nonzero(pc.rho_of(A.unit))
    rows = []
    for j in range(n):
        x_tensor_one = tuple((j * m + k, c) for k, c in _nonzero(K.unit))
        rhs = _multiply_raw(tensor, x_tensor_one, rho_unit)
        rows.append([a - b for a, b in zip(pc.rho.rows[j], rhs)])
    return Matrix(pc.field, rows, ncols=n * m).left_kernel()
