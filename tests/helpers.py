"""Shared fixtures, seeded-random generators, matrix builders and the dense views of psl's
structures for the test suite.

psl stores every structure tensor only as sparse rows; `dense_mult`,
`dense_comul`, `dense_act`, `dense_module_act`, `dense_a_act`, `dense_h_act`
and `dense_rho` derive the dense tensor (or matrix) of canonical scalars, the
form the public constructors take, from those rows.  `act_vec`,
`module_act_vec` and `rho_of` apply an action, a module or a coaction to
arbitrary coordinate vectors through the same rows.
"""

import random

from fractions import Fraction
from itertools import product

from psl.exactla import (
    DimensionMismatch,
    FieldMismatch,
    Matrix,
    QQ,
    Subspace,
    _canon,
    _coerce,
    _combine,
    _dense,
    _nonzero,
    unit_vec,
)

from psl.algebra import Algebra, _apply_pair, _apply_raw, _multiply_raw, product_of_fields
from psl.hopf import GroupTable, group_algebra
from psl.paction import c4_triple, dual_group_idempotent, dual_group_translation_action, trivial_action
from psl.algebra import _tensor_terms
from psl.exactla import GF
from psl.hopf import dual_group_algebra
from psl.paction import PartialAction
from psl.verify import truncated_polynomial_algebra


def fix_a(field=QQ):
    """(kC2)* acting on e_N kC2 for N = C2 (one-dimensional carrier)."""
    return dual_group_idempotent(field, GroupTable.cyclic(2), [0, 1])


def fix_b(field=QQ):
    """kC4 shifting the idempotents of field^3."""
    return c4_triple(field)


def fix_c(field=QQ, hopf_order=2, alg_dim=3):
    """Trivial (global) action of a group algebra on a product of fields."""
    H = group_algebra(field, GroupTable.cyclic(hopf_order))
    return trivial_action(H, product_of_fields(field, alg_dim))


def fix_d():
    """F2C2 acting trivially on F2 (the non-semisimple negative control)."""
    from psl.exactla import GF

    F2 = GF(2)
    return trivial_action(group_algebra(F2, GroupTable.cyclic(2)), product_of_fields(F2, 1))


def graded_c6_action():
    """(F_2 C_6)* acting globally on F_2 C_6 (x) F_2[x]/(x^2) by projection onto the C_6-graded
    parts: its smash product has dim 72, and J of it dim 36."""
    F = GF(2)
    G = GroupTable.cyclic(6)
    kG = group_algebra(F, G).alg
    T = truncated_polynomial_algebra(F, 2)
    A = Algebra._of_terms(F, _tensor_terms(kG.terms, T.terms), unit_vec(F, 12, 2 * G.identity))
    act = tuple(tuple(((j, 1),) if j // 2 == g else () for j in range(12)) for g in range(6))
    return PartialAction._of_terms(dual_group_algebra(F, G), A, act)


def s3_translations(field) -> tuple:
    """The two global translation actions of S_3: (kS_3)* on kS_3, p_g . h = [g = h] h
    (`dual_group_translation_action`), and kS_3 on k^{S_3}, g . e_h = e_{gh}.  The
    first H is not cocommutative and the second not commutative."""
    from test_nonabelian import s3_table  # imported here, as test_nonabelian imports this module

    G, _, _ = s3_table()
    n = G.order
    act = [[unit_vec(field, n, gh) for gh in row] for row in G.cayley]
    regular = PartialAction(group_algebra(field, G), product_of_fields(field, n), act)
    return dual_group_translation_action(field, G), regular


def matrix_algebra(field, d):
    """M_d(k) on the matrix units, e_ij at index i*d + j, with e_ij e_jl = e_il."""
    n = d * d
    terms = tuple(
        tuple(((a - a % d + b % d, 1),) if a % d == b // d else () for b in range(n))
        for a in range(n)
    )
    return Algebra._of_terms(field, terms, _canon([int(i % (d + 1) == 0) for i in range(n)], field.char))


def rand_scalar(rng: random.Random, field):
    """A scalar psl accepts: a Fraction over Q (integral ones included), an int in [0, p) over F_p."""
    if field.char == 0:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return rng.randrange(field.char)


def rand_vec(rng: random.Random, field, n):
    return tuple(rand_scalar(rng, field) for _ in range(n))


def rand_matrix(rng: random.Random, field, m, n) -> Matrix:
    return Matrix(field, [rand_vec(rng, field, n) for _ in range(m)], ncols=n)


def rand_subspace(rng: random.Random, field, ambient, nvecs) -> Subspace:
    return Subspace.from_vectors(field, ambient, [rand_vec(rng, field, ambient) for _ in range(nvecs)])


def all_vectors(field, n):
    """Every vector of F_p^n (finite fields only)."""
    if field.char == 0:
        raise FieldMismatch("cannot enumerate vectors over Q")
    for v in product(range(field.char), repeat=n):
        yield v[::-1]


def rref(m: Matrix) -> tuple[Matrix, int]:
    """The reduced row echelon form of m, by the boxed reference's `_rref`, and its rank."""
    from boxed_reference import _rref  # imported here, as boxed_reference imports this module

    red, rank, _ = _rref(m.rows, m.field.char)
    return Matrix._of_raw(m.field, tuple(map(tuple, red)), m.ncols), rank


def solve_left(m: Matrix, target) -> tuple | None:
    """One solution x of x @ m = target, or None if inconsistent."""
    from boxed_reference import _rref

    t = _coerce(m.field, target, m.ncols)
    # augmented column reduction of the transposed system, one equation per column
    cols = zip(*m.rows) if m.rows else ((),) * m.ncols
    aug = [col + (t[r],) for r, col in enumerate(cols)]
    red, _, pivots = _rref(aug, m.field.char)
    if m.nrows in pivots:
        return None
    sol = [0] * m.nrows
    for r, c in enumerate(pivots):
        sol[c] = red[r][m.nrows]
    return tuple(sol)


def lift(space: Subspace, coords) -> tuple:
    """Linear combination of the basis rows of space with the given coefficients."""
    if len(coords) != space.dim:
        raise DimensionMismatch(f"{len(coords)} coords for dim {space.dim}")
    c = _coerce(space.field, coords, space.dim)
    return _combine(c, space.rows, space.ambient, space.field.char)


def mult_matrix(A, x, left: bool) -> Matrix:
    """Matrix of a |-> x*a (left) or a |-> a*x (right) in the row-vector convention."""
    p, terms = A.field.char, A.terms
    x = _nonzero(_coerce(A.field, x, A.dim))
    rows = tuple(
        _canon(_multiply_raw(terms, x, ((j, 1),)) if left else _multiply_raw(terms, ((j, 1),), x), p)
        for j in range(A.dim)
    )
    return Matrix._of_raw(A.field, rows, A.dim)


def operate_sum(field, terms, x, vec, n) -> tuple:
    """sum_i x_i (vec under operator i) of the sparse action tensor `terms`, canonical."""
    p = field.char
    x = _nonzero(_coerce(field, x, len(terms)))
    return _canon(_apply_pair(terms, x, _nonzero(_coerce(field, vec, n)), n, p), p)


def act_vec(pa, hvec, avec) -> tuple:
    """h . a of a PartialAction for arbitrary coordinate vectors."""
    return operate_sum(pa.field, pa._terms, hvec, avec, pa.alg.dim)


def module_act_vec(mod, avec, mvec) -> tuple:
    """An AlgebraModule's action of an arbitrary algebra element on an arbitrary module vector."""
    return operate_sum(mod.field, mod._terms, avec, mvec, mod.dim)


def mod_basis(mod, j: int) -> tuple:
    return unit_vec(mod.field, mod.dim, j)


def rho_of(pc, vec) -> tuple:
    """rho(a) of a PartialCoaction for an arbitrary coordinate vector a."""
    field, n = pc.field, pc.alg.dim
    p = field.char
    return _canon(_apply_raw(pc._terms, _nonzero(_coerce(field, vec, n)), n * pc.hopf.dim), p)


# the dense views made so far, keyed by the sparse rows they are made from: the
# boxed oracles read them in their inner loops, and `boxed` caches by the
# identity of the dense tensor
_DENSE = {}


def _once(field, rows, build) -> tuple:
    """build(), made once per field and sparse rows object `rows` that it reads."""
    key = (id(rows), field)
    hit = _DENSE.get(key)
    if hit is None or hit[0] is not rows:
        if len(_DENSE) > 64:
            _DENSE.clear()
        hit = _DENSE[key] = (rows, build())
    return hit[1]


def _dense_tensor(field, terms, n: int) -> tuple:
    """The sparse rows terms[i][j] as canonical dense vectors of length n."""
    p = field.char
    return _once(field, terms, lambda: tuple(tuple(_canon(_dense(v, n), p) for v in row) for row in terms))


def dense_mult(A) -> tuple:
    """The dense structure tensor mult[i][j] = e_i * e_j of an Algebra, from `A.terms`."""
    return _dense_tensor(A.field, A.terms, A.dim)


def dense_comul(H) -> tuple:
    """The dense tensor comul[i][j][k], the coefficient of h_j (x) h_k in Delta(h_i), from `H._delta`."""
    m, p = H.dim, H.field.char

    def build():
        flat = [_canon(_dense(((j * m + k, c) for j, k, c in d), m * m), p) for d in H._delta]
        return tuple(tuple(f[j * m:(j + 1) * m] for j in range(m)) for f in flat)

    return _once(H.field, H._delta, build)


def dense_act(pa) -> tuple:
    """The dense action tensor act[i][j] = h_i . e_j of a PartialAction, from `pa._terms`."""
    return _dense_tensor(pa.field, pa._terms, pa.alg.dim)


def dense_module_act(V) -> tuple:
    """The dense action tensor of an AlgebraModule (algebra basis i, module basis j) -> image, from `V._terms`."""
    return _dense_tensor(V.field, V._terms, V.dim)


def dense_a_act(M) -> tuple:
    """The dense A-action tensor of a PartialModule, from `M._a_terms`."""
    return _dense_tensor(M.field, M._a_terms, M.dim)


def dense_h_act(M) -> tuple:
    """The dense H-action tensor of a PartialModule, from `M._h_terms`."""
    return _dense_tensor(M.field, M._h_terms, M.dim)


def dense_rho(pc) -> tuple:
    """The dense rows rho(e_j) of a PartialCoaction, from `pc._terms`."""
    nm, p = pc.alg.dim * pc.hopf.dim, pc.field.char
    return _once(pc.field, pc._terms, lambda: tuple(_canon(_dense(r, nm), p) for r in pc._terms))


def is_canonical(field, x) -> bool:
    """Whether x is in the one scalar form: over F_p an int in [0, p); over Q an int, or a Fraction
    with denominator > 1 (a bool is neither)."""
    if field.char:
        return type(x) is int and 0 <= x < field.char
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def assert_kernel_form(field, rows, what):
    """Every (k, c) or (j, k, c) of nested sparse rows is in kernel form for the field: c canonical and nonzero."""
    if isinstance(rows, tuple) and len(rows) in (2, 3) and type(rows[0]) is int:
        c = rows[-1]
        assert c and is_canonical(field, c), f"{what}: {c!r} over {field}"
        return
    assert isinstance(rows, tuple), f"{what}: {rows!r}"
    for r in rows:
        assert_kernel_form(field, r, what)
