"""Partial actions of finite-dimensional Hopf algebras on algebras.

An action is stored once, as the sparse rows `_terms[i][j]`, the nonzero
(k, c) of h_i . e_j; a dense tensor act[i][j] of coordinate vectors is an
input format only, parsed once by the public constructor through
`exactla._tensor`.  A partial action satisfies, on a unital algebra,

    PA1: 1_H . a = a
    PA3: h . (ab)    = sum (h1 . a)(h2 . b)
    PA4: h . (g . b) = sum (h1 . 1_A)((h2 g) . b)

and is global when additionally h . 1_A = eps(h) 1_A.
"""

from __future__ import annotations

from typing import Sequence

from psl.algebra import (
    Algebra,
    AlgebraMap,
    CheckReport,
    InvariantViolation,
    NotAnIdeal,
    _apply_raw,
    _cleared,
    _closed_subalgebra,
    _differ,
    _failed_slices,
    _multiply_raw,
    _operate,
    _tensor_terms,
    _vanishes,
    is_ideal,
    quotient_algebra,
)
from fractions import Fraction

from psl.exactla import (
    DimensionMismatch,
    FieldMismatch,
    Matrix,
    Subspace,
    _coerce,
    _compact,
    _dense,
    _identity_rows,
    _nonzero,
    _null_span,
    _tensor,
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


def _check_pair(hopf: HopfAlgebra, alg: Algebra) -> None:
    """Raise unless H can act, or coact, partially on A: one field, A unital and nonzero."""
    if hopf.field != alg.field:
        raise FieldMismatch("Hopf algebra and algebra over different fields")
    if alg.unit is None:
        raise ValueError("partial actions require a unital algebra")
    if alg.dim == 0:
        raise ValueError("partial actions require a nonzero algebra")


class PartialAction:
    # `_terms[i][j]` is h_i . e_j as a sparse row, the only stored form of the
    # action; `_smash` holds the partial smash product once build_partial_smash has made
    # it, `_ideals` the H-stable ideals once enumerate_h_stable_ideals has enumerated
    # them, and `_h_radical` J_H(A) once h_jacobson_radical has computed it
    __slots__ = ("hopf", "alg", "_terms", "_smash", "_ideals", "_h_radical")

    def __init__(self, hopf: HopfAlgebra, alg: Algebra, act):
        _check_pair(hopf, alg)
        self.hopf = hopf
        self.alg = alg
        self._terms = _tensor(alg.field, act, (hopf.dim, alg.dim, alg.dim), "action")
        self._smash = None
        self._ideals = None
        self._h_radical = None

    @classmethod
    def _of_terms(cls, hopf: HopfAlgebra, alg: Algebra, terms: tuple) -> "PartialAction":
        """An action on rows already in kernel form, as psl's own loops make them.

        `terms[i][j]` holds the nonzero (k, c) of h_i . e_j, reduced (ints where
        integral over Q); nothing is coerced or rescanned.
        """
        _check_pair(hopf, alg)
        pa = cls.__new__(cls)
        pa.hopf = hopf
        pa.alg = alg
        pa._terms = terms
        pa._smash = None
        pa._ideals = None
        pa._h_radical = None
        return pa

    @property
    def field(self):
        return self.alg.field

    def __eq__(self, other):
        return (
            isinstance(other, PartialAction)
            and self.hopf == other.hopf
            and self.alg == other.alg
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.hopf, self.alg, self._terms))

    def __repr__(self):
        return f"PartialAction(H dim {self.hopf.dim} on A dim {self.alg.dim} over {self.field})"

    def act_basis(self, i: int, avec: Sequence) -> tuple:
        """h_i . a for a basis element h_i."""
        return _operate(self.field, self._terms, i, avec, self.alg.dim)

    def unit_image(self, i: int) -> tuple:
        """h_i . 1_A."""
        return self.act_basis(i, self.alg.unit)


def _comul_terms(H: HopfAlgebra) -> tuple:
    """Delta(h_i) as its nonzero (p, q, c), in index order: built once and kept on H."""
    if H._comul is None:
        m = H.dim
        H._comul = tuple(tuple(divmod(pq, m) + (c,) for pq, c in d) for d in H._delta)
    return H._comul


def check_partial_action(pa: PartialAction) -> CheckReport:
    """PA1, PA3 and PA4 on all basis tuples.

    The mixed axiom PA2, h . (a (g . b)) = sum (h1 . a)(h2 g . b), follows for a
    unital A (Caenepeel-Janssen 2008) by the coassociativity of Delta, which
    `check_hopf` checks:

        h . (a (g . b)) = sum (h1 . a)(h2 . (g . b))           by PA3
                        = sum (h1 . a)(h2 . 1_A)(h3 g . b)     by PA4
                        = sum (h1 . a)(h2 g . b)               by PA3 with b = 1_A

    PA3 accumulates lhs - rhs of the triples (h_i, e_j, e_k) of each basis pair
    (h_i, e_j), and PA4 those of (h_i, h_g, e_k) of each pair (h_i, h_g), for
    every k into one sparse n x n block, a dict keyed by the entries k n + u
    it writes, and tests only those values; a block that does not vanish
    names its failing slices k in increasing order.  Both skip the terms
    h_p (x) h_q of Delta(h_i) whose left factor h_p . e_j (PA3) or h_p . 1_A
    (PA4) is zero.  The (h_q h_g) . e_k are computed once per distinct product
    h_q h_g, and only where that product is not a basis element h_r with
    coefficient 1 (as every product is in kG): there they are the action's own
    rows h_r . e_k.  Over Q they run on ints: the action, the constants of A
    and of Delta, the unit images and the (h_q h_g) . e_k are cleared of
    denominators (`_cleared`), and each side is multiplied up to one total
    scale.
    """
    failures = []
    H, A = pa.hopf, pa.alg
    m, n = H.dim, A.dim
    field = pa.field
    p = field.char
    terms, h_terms = A.terms, H.alg.terms
    act = pa._terms
    dense = [[int(t == j) for t in range(n)] for j in range(n)]
    # h . e_k as a linear function of h, then h_p . 1_A and (h_q h_g) . e_k
    columns = [[act[r][k] for r in range(m)] for k in range(n)]
    unit_a = _nonzero(A.unit)
    unit_images = [_compact(_apply_raw(act[i], unit_a, n), p) for i in range(m)]
    # (h_q h_g) . e_k depends on h_q h_g only: one list per distinct product,
    # read off the action where the product is a basis element h_r
    products = {x for row in h_terms for x in row}
    by_product = {
        x: act[x[0][0]] if len(x) == 1 and x[0][1] == 1 else [_compact(_apply_raw(col, x, n), p) for col in columns]
        for x in products
    }
    hg_act = [[by_product[x] for x in row] for row in h_terms]

    unit_h = _nonzero(H.unit)
    for j in range(n):
        if _differ(_apply_raw(columns[j], unit_h, n), dense[j], p):
            failures.append(f"PA1 fails: 1_H . a != a at basis a={A.labels[j]}")

    # the same data cleared of denominators: D * rows, all ints over Q
    d_c, comul_s = _cleared(_comul_terms(H), p)
    d_a, act_s = _cleared(act, p, 1)
    d_t, T = _cleared(terms, p, 1)
    d_u, units = _cleared(unit_images, p)
    d_h, hg_s = _cleared(hg_act, p, 2)

    # one sparse n x n block per basis pair, slice k at offset k n
    offsets = range(0, n * n, n)

    # PA3 on all basis pairs (h_i, e_j), both sides at scale d_c d_a^2 d_t
    scale = d_c * d_a
    for i in range(m):
        act_i = act_s[i]
        for j in range(n):
            live = [(c, act_s[hp][j], act_s[hq]) for hp, hq, c in comul_s[i] if act_s[hp][j]]
            acc = {}
            get = acc.get
            for base, Tjk in zip(offsets, T[j]):
                for s, x in Tjk:
                    x *= scale
                    for u, y in act_i[s]:
                        u += base
                        acc[u] = get(u, 0) + x * y
            for c, left, right in live:
                for base, right_k in zip(offsets, right):
                    for t, y in right_k:
                        cy = c * y
                        for s, x in left:
                            cxy = cy * x
                            for u, z in T[s][t]:
                                u += base
                                acc[u] = get(u, 0) - cxy * z
            if not _vanishes(acc.values(), p):
                failures += [f"PA3 fails at (h{i}, {A.labels[j]}, {A.labels[k]})" for k in _failed_slices(acc, n, p)]

    # PA4 on all basis pairs (h_i, h_g), both sides at scale d_c d_a^2 d_u d_h d_t
    scale, rscale = d_c * d_u * d_h * d_t, d_a * d_a
    for i in range(m):
        act_i = act_s[i]
        live = [(c * rscale, units[hp], hg_s[hq]) for hp, hq, c in comul_s[i] if units[hp]]
        for g in range(m):
            acc = {}
            get = acc.get
            for base, act_gk in zip(offsets, act_s[g]):
                for s, x in act_gk:
                    x *= scale
                    for u, y in act_i[s]:
                        u += base
                        acc[u] = get(u, 0) + x * y
            for c, left, right in live:
                for base, right_k in zip(offsets, right[g]):
                    for t, y in right_k:
                        cy = c * y
                        for s, x in left:
                            cxy = cy * x
                            for u, z in T[s][t]:
                                u += base
                                acc[u] = get(u, 0) - cxy * z
            if not _vanishes(acc.values(), p):
                failures += [f"PA4 fails at (h{i}, h{g}, {A.labels[k]})" for k in _failed_slices(acc, n, p)]

    return CheckReport(not failures, tuple(failures))


def is_global(pa: PartialAction) -> bool:
    """h . 1_A = eps(h) 1_A on every basis element; eps(h) 1_A is formed once per counit value."""
    n, p = pa.alg.dim, pa.field.char
    unit = _nonzero(pa.alg.unit)
    scaled = {0: [0] * n, 1: _dense(unit, n)}  # eps(h) 1_A by the value of eps(h), 1_A in kernel form
    return not any(
        _differ(_apply_raw(row, unit, n), scaled.get(e) or scaled.setdefault(e, [e * x for x in scaled[1]]), p)
        for row, e in zip(pa._terms, pa.hopf.counit)
    )


# ---------------------------------------------------------------------------
# builders

def trivial_action(H: HopfAlgebra, A: Algebra) -> PartialAction:
    """The global action h . a = eps(h) a."""
    n = A.dim
    eps = dict(_nonzero(H.counit))
    act = tuple(tuple(((j, eps[i]),) if i in eps else () for j in range(n)) for i in range(H.dim))
    return PartialAction._of_terms(H, A, act)


def c4_triple(field) -> PartialAction:
    """C_4 acting partially on field^3 by shifting the canonical idempotents."""
    from psl.algebra import product_of_fields

    # g^i . e_j = e_k for k = shifts[i][j], and 0 where that is None
    shifts = ((0, 1, 2), (None, 0, 1), (2, None, 0), (1, 2, None))
    act = tuple(tuple(() if k is None else ((k, 1),) for k in row) for row in shifts)
    pa = PartialAction._of_terms(group_algebra(field, GroupTable.cyclic(4)), product_of_fields(field, 3), act)
    check_partial_action(pa).raise_if_failed("c4_triple axioms")
    return pa


def dual_group_translation_action(field, G: GroupTable) -> PartialAction:
    """The global (kG)*-action on kG given by p_g acting as projection on g."""
    return _translation_action(dual_group_algebra(field, G), group_algebra(field, G).alg)


def _translation_action(H: HopfAlgebra, B: Algebra) -> PartialAction:
    """dual_group_translation_action on H = (kG)* and B = kG as already built."""
    n = B.dim
    act = tuple(tuple(((j, 1),) if i == j else () for j in range(n)) for i in range(n))
    pa = PartialAction._of_terms(H, B, act)
    check_partial_action(pa).raise_if_failed("dual group translation axioms")
    return pa


def induce_from_ideal(global_pa: PartialAction, e: Sequence) -> PartialAction:
    """Restrict a global action to the right ideal eB via a |-> e (h . a)."""
    if not is_global(global_pa):
        raise ValueError("induce_from_ideal needs a global action")
    B = global_pa.alg
    n, p, terms = B.dim, B.field.char, B.terms
    e = _coerce(B.field, e, n)
    es = _nonzero(e)
    if _differ(_multiply_raw(terms, es, es), e, p):
        raise NotIdempotent("e is not idempotent")
    de = _cleared((es,), p)[1][0]  # e B = (D e) B, and D e is integral
    ideal = Subspace._span(B.field, n, [_multiply_raw(terms, de, ((j, 1),)) for j in range(n)])
    rows = ideal._sparse_rows()
    for r, dense in zip(rows, map(list, ideal.rows)):
        if _differ(_multiply_raw(terms, es, r), dense, p) or _differ(_multiply_raw(terms, r, es), dense, p):
            raise NotRightIdealUnit("e is not an identity element of eB")

    A, coords = _closed_subalgebra(
        B, ideal, e, "product escaped the right ideal eB", [f"a{s}" for s in range(ideal.dim)]
    )
    act = tuple(
        tuple(coords(_multiply_raw(terms, es, _compact(_apply_raw(op, r, n), p))) for r in rows)
        for op in global_pa._terms
    )
    pa = PartialAction._of_terms(global_pa.hopf, A, act)
    check_partial_action(pa).raise_if_failed("induced partial action axioms")
    return pa


def _normal_subgroup(field, G: GroupTable, N: Sequence[int]) -> list[int]:
    """N as sorted indices: BadSubgroup unless it is normal in G, CharDividesOrder if char | |N|."""
    Ns = sorted(set(int(x) for x in N))
    if not (set(Ns) <= set(range(G.order)) and G.is_normal(Ns)):
        raise BadSubgroup(f"{Ns} is not a normal subgroup")
    if field.char and len(Ns) % field.char == 0:
        raise CharDividesOrder(f"char {field.char} divides |N| = {len(Ns)}")
    return Ns


def dual_group_idempotent(field, G: GroupTable, N: Sequence[int], *,
                          translation: PartialAction | None = None) -> PartialAction:
    """(kG)* acting partially on e_N kG for a normal subgroup N of order prime to char.

    `translation` is dual_group_translation_action(field, G) where the caller
    already holds it; it is built here otherwise.
    """
    Ns = _normal_subgroup(field, G, N)
    inv = pow(len(Ns), -1, field.char) if field.char else Fraction(1, len(Ns))
    e_N = list(zero_vec(field, G.order))
    for idx in Ns:
        e_N[idx] = inv
    if translation is None:
        translation = dual_group_translation_action(field, G)
    return induce_from_ideal(translation, tuple(e_N))


# ---------------------------------------------------------------------------
# invariants, stability, quotients

def invariant_subalgebra(pa: PartialAction) -> Subspace:
    """Solutions of h . a = a (h . 1_A) for all basis h, as one null span: the combinations x of
    the basis of A whose blocks [h_i . x - x (h_i . 1_A) for each i] vanish."""
    A = pa.alg
    n, p, act = A.dim, pa.field.char, pa._terms
    units = [_compact(_apply_raw(op, _nonzero(A.unit), n), p) for op in act]
    blocks = [
        [x - y for op, u in zip(act, units) for x, y in zip(_dense(op[j], n), _apply_raw(A.terms[j], u, n))]
        for j in range(n)
    ]
    S = _null_span(pa.field, blocks, _identity_rows(n), n * pa.hopf.dim, n)
    if not S._holds(A.unit):
        raise InvariantViolation("invariant subalgebra lost the unit")
    rows = S._sparse_rows()
    if not all(S._holds(_multiply_raw(A.terms, u, v)) for u in rows for v in rows):
        raise InvariantViolation("invariant subalgebra not closed")
    return S


def colon_ideal(pa: PartialAction, I: Subspace) -> Subspace:
    """(I:H) = {x in I : h . x in I for all h}: largest H-stable ideal inside I, as one null span:
    the combinations x of the basis rows of I whose residual blocks [h . x mod I for each h] vanish."""
    if not is_ideal(pa.alg, I):
        raise NotAnIdeal("colon_ideal needs a two-sided ideal")
    if I.is_zero():
        return I
    n, act = pa.alg.dim, pa._terms
    blocks = [[x for op in act for x in I._residual(_apply_raw(op, r, n))] for r in I._sparse_rows()]
    result = _null_span(pa.field, blocks, I.rows, n * pa.hopf.dim, n)
    if not result <= I:
        raise InvariantViolation("colon ideal is not inside I")
    if not is_h_stable(pa, result):
        raise InvariantViolation("colon ideal is not H-stable")
    return result


def is_h_stable(pa: PartialAction, I: Subspace) -> bool:
    """H . I <= I, checked on basis pairs."""
    n, act = pa.alg.dim, pa._terms
    return all(I._holds(_apply_raw(op, r, n)) for r in I._sparse_rows() for op in act)


def quotient_action(pa: PartialAction, I: Subspace) -> tuple[PartialAction, AlgebraMap]:
    """Induced action h . (a + I) = (h . a) + I on the quotient algebra."""
    if not is_h_stable(pa, I):
        raise NotHStable("quotient_action needs an H-stable ideal")
    Q, proj = quotient_algebra(pa.alg, I)
    p, n = pa.field.char, Q.dim
    images = list(map(_nonzero, proj.matrix.rows))
    comp = I.complement_indices()
    # h_i . (e_c + I) = proj(h_i . e_c) on the coset basis
    act = tuple(tuple(_compact(_apply_raw(images, row[c], n), p) for c in comp) for row in pa._terms)
    qpa = PartialAction._of_terms(pa.hopf, Q, act)
    check_partial_action(qpa).raise_if_failed("quotient action axioms")
    return qpa, proj


# ---------------------------------------------------------------------------
# coactions (Eq. h . a = sum a0 a1(h) over the dual Hopf algebra)

class PartialCoaction:
    """rho: A -> A (x) K in first-factor-major coordinates (K coacting), stored only as the sparse
    rows `_terms[j]` = rho(e_j), e_a (x) k_k at a m + k; the dense matrix of the public constructor
    is an input format, parsed once.  Like an action, a coaction needs one field and a unital, nonzero A."""

    __slots__ = ("alg", "hopf", "_terms")

    def __init__(self, alg: Algebra, hopf: HopfAlgebra, rho: Matrix):
        if rho.nrows != alg.dim or rho.ncols != alg.dim * hopf.dim:
            raise DimensionMismatch("coaction matrix shape mismatch")
        _check_pair(hopf, alg)
        if rho.field != alg.field:
            raise FieldMismatch("coaction matrix and algebra over different fields")
        self.alg = alg
        self.hopf = hopf
        self._terms = tuple(map(_nonzero, rho.rows))

    @classmethod
    def _of_terms(cls, alg: Algebra, hopf: HopfAlgebra, terms: tuple) -> "PartialCoaction":
        """A coaction on rows already in kernel form, as psl's own loops make them; nothing is coerced."""
        pc = cls.__new__(cls)
        pc.alg, pc.hopf, pc._terms = alg, hopf, terms
        return pc

    @property
    def field(self):
        return self.alg.field


def action_to_coaction(pa: PartialAction) -> PartialCoaction:
    """rho(e_j) = sum_i (h_i . e_j) (x) p_i over the dual basis p_i of H*: (h_i . e_j)_a at a m + i."""
    m = pa.hopf.dim
    terms = tuple(
        tuple(sorted((a * m + i, c) for i in range(m) for a, c in pa._terms[i][j])) for j in range(pa.alg.dim)
    )
    return PartialCoaction._of_terms(pa.alg, dual_hopf(pa.hopf), terms)


def coaction_to_action(pc: PartialCoaction, hopf: HopfAlgebra) -> PartialAction:
    """Reconstruct h . a = sum a0 a1(h) (dual-basis pairing against K = H*)."""
    m = pc.hopf.dim
    if hopf.dim != m:
        raise DimensionMismatch("Hopf algebra does not match the coacting dual")
    # (h_i . e_j)_a sits at a*m + i of rho(e_j)
    act = tuple(tuple(tuple((idx // m, c) for idx, c in row if idx % m == i) for row in pc._terms) for i in range(m))
    return PartialAction._of_terms(hopf, pc.alg, act)


def check_partial_coaction(pc: PartialCoaction) -> CheckReport:
    """PC1, PC2 on basis pairs, PC3 on all basis elements."""
    failures = []
    A, K = pc.alg, pc.hopf
    n, m = A.dim, K.dim
    p = pc.field.char
    rho = pc._terms
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
            for t, x in enumerate(_multiply_raw(tensor, rho_unit, _compact(part, p))):
                rhs[t * m + l2] += x
        if _differ(lhs, rhs, p):
            failures.append(f"PC3 fails at basis {A.labels[j]}")

    return CheckReport(not failures, tuple(failures))


def coinvariant_subalgebra(pc: PartialCoaction) -> Subspace:
    """Solutions of rho(x) = (x (x) 1_K) rho(1), as one null span: the combinations x of the basis
    of A whose blocks rho(e_j) - (e_j (x) 1_K) rho(1) vanish."""
    A, K = pc.alg, pc.hopf
    n, m = A.dim, K.dim
    nm, p = n * m, pc.field.char
    rho = pc._terms
    tensor = _tensor_terms(A.terms, K.alg.terms)
    rho_1 = _compact(_apply_raw(rho, _nonzero(A.unit), nm), p)
    unit_k = _nonzero(K.unit)
    blocks = [
        [x - y for x, y in zip(_dense(rho[j], nm), _multiply_raw(tensor, [(j * m + k, c) for k, c in unit_k], rho_1))]
        for j in range(n)
    ]
    return _null_span(pc.field, blocks, _identity_rows(n), nm, n)
