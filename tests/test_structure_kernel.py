"""The structure-constant kernel against the boxed loops it replaced.

`boxed_reference` keeps the dense loops over boxed scalars.  On seeded
random partial actions over Q, F_2, F_3 and F_5, each with copies that have
one corrupted tensor entry, both must give the same CheckReport (the same
failure strings in the same order) for algebras, partial actions, Hopf
algebras, partial coactions, modules and partial modules, the same full
smash product, the same partial smash carrier, and the same subspace
products and closures.
"""

import random
from fractions import Fraction

import pytest

import boxed_reference as ref
from psl.algebra import (
    Algebra,
    AlgebraMap,
    check_algebra,
    ideal_closure,
    is_ideal,
    is_nilpotent_subspace,
    nilpotency_index,
    span_products,
    subalgebra_closure,
)
from psl.exactla import GF, QQ, DimensionMismatch, FieldMismatch, Matrix
from psl.hopf import HopfAlgebra, check_hopf, dual_hopf
from psl.paction import (
    PartialAction,
    PartialCoaction,
    action_to_coaction,
    check_partial_action,
    check_partial_coaction,
)
from psl.pmod import AlgebraModule, PartialModule, check_partial_module, from_smash_module, regular_module
from psl.radicals import jacobson_radical
from psl.smash import build_full_smash, build_partial_smash
from psl.verify import random_partial_action, truncated_polynomial_algebra
from helpers import rand_subspace, rand_vec

FIELDS = [QQ, GF(2), GF(3), GF(5)]
DRAWS = 30


def corrupt(rng, field, tensor):
    """A copy of a 3-index tensor with one entry moved by a nonzero scalar."""
    out = [[list(v) for v in row] for row in tensor]
    i = rng.randrange(len(out))
    j = rng.randrange(len(out[i]))
    k = rng.randrange(len(out[i][j]))
    shift = Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3)) if field.char == 0 else rng.randrange(1, field.char)
    out[i][j][k] = out[i][j][k] + shift
    return out


def draws(field):
    rng = random.Random(9100 + field.char)
    for _ in range(DRAWS):
        pa = random_partial_action(rng, field, max_carrier=12)
        yield rng, pa


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_checkers_and_full_smash_match_boxed_loops(field):
    failing_actions = failing_algebras = 0
    for rng, pa in draws(field):
        A = pa.alg
        actions = [pa] + [PartialAction(pa.hopf, A, corrupt(rng, field, pa.act)) for _ in range(3)]
        for act in actions:
            got = check_partial_action(act)
            assert got == ref.check_partial_action(act), act
            failing_actions += not got.ok
        mult, unit = ref.build_full_smash(pa)
        full = build_full_smash(pa)
        assert full.mult == mult and full.unit == unit
        algebras = [A] + [Algebra(field, corrupt(rng, field, A.mult), unit=A.unit) for _ in range(3)] + [full]
        for alg in algebras:
            got = check_algebra(alg)
            assert got == ref.check_algebra(alg), alg
            failing_algebras += not got.ok
    # the corrupted copies must exercise the failure paths
    assert failing_actions >= DRAWS and failing_algebras >= DRAWS


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_multiply_matches_boxed_loop(field):
    rng = random.Random(77)
    for _, pa in draws(field):
        for alg in (pa.alg, build_full_smash(pa)):
            for _ in range(5):
                x, y = rand_vec(rng, field, alg.dim), rand_vec(rng, field, alg.dim)
                assert alg.multiply(x, y) == ref.multiply(alg, x, y)


def test_multiply_rejects_foreign_scalars_and_lengths():
    A = random_partial_action(random.Random(1), GF(3)).alg
    x = (1,) * A.dim
    with pytest.raises(FieldMismatch):
        A.multiply((Fraction(1, 2),) + x[1:], x)
    with pytest.raises(FieldMismatch):
        A.multiply(x, (0.5,) * A.dim)
    with pytest.raises(DimensionMismatch):
        A.multiply(x + (1,), x)
    with pytest.raises(DimensionMismatch):
        A.multiply(x, x[1:])


SIDES = ("left", "right", "two_sided")


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_subspace_products_match_boxed_loops(field):
    nilpotent = proper = 0
    for t, (rng, pa) in enumerate(draws(field)):
        carrier = build_partial_smash(pa).carrier
        extra = [carrier] if carrier.dim <= 8 else []
        if t % 5 == 0:  # k[x]/(x^5) has nilpotent ideals over every field
            extra.append(truncated_polynomial_algebra(field, 5))
        for A in [pa.alg] + extra:
            n = A.dim
            U = rand_subspace(rng, field, n, rng.randint(0, n))
            V = rand_subspace(rng, field, n, rng.randint(0, 2))
            gens = [rand_vec(rng, field, n) for _ in range(rng.randint(0, 2))]
            assert span_products(A, U, V) == ref.span_products(A, U, V)
            assert subalgebra_closure(A, gens) == ref.subalgebra_closure(A, gens)
            spaces = [U, V, jacobson_radical(A).radical]
            for side in SIDES:
                closure = ideal_closure(A, gens, side)
                assert closure == ref.ideal_closure(A, gens, side)
                spaces.append(closure)
            for S in spaces:
                for side in SIDES:
                    assert is_ideal(A, S, side) == ref.is_ideal(A, S, side)
                idx = nilpotency_index(A, S)
                assert idx == ref.nilpotency_index(A, S)
                assert is_nilpotent_subspace(A, S) == ref.is_nilpotent_subspace(A, S) == (idx is not None)
                nilpotent += idx is not None and not S.is_zero()
                proper += not S.is_full() and not S.is_zero()
    # both outcomes of every predicate must occur
    assert nilpotent >= 6 and proper >= DRAWS


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_partial_smash_carrier_matches_boxed_loops(field):
    broken = 0
    for rng, pa in draws(field):
        sp = build_partial_smash(pa)
        mult, unit, incl = ref.carrier(pa, sp.full)
        assert [list(row) for row in sp.carrier.mult] == mult
        assert sp.carrier.unit == unit
        assert list(sp.include_A.matrix.rows) == incl
        maps = [sp.include_A]
        rows = [list(r) for r in sp.include_A.matrix.rows]
        if rows and rows[0]:
            i, j = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
            rows[i][j] = rows[i][j] + (Fraction(1) if field.char == 0 else 1)
            maps.append(AlgebraMap(pa.alg, sp.carrier, Matrix(field, rows, ncols=sp.carrier.dim)))
        for amap in maps:
            got = amap.is_multiplicative()
            assert got == ref.is_multiplicative(amap)
            broken += not got
    assert broken >= DRAWS // 2


def corrupt_vec(rng, field, vec):
    """A copy of a vector with one entry moved by a nonzero scalar."""
    out = list(vec)
    k = rng.randrange(len(out))
    out[k] = out[k] + (Fraction(rng.choice([-1, 1]), rng.randint(1, 3)) if field.char == 0 else rng.randrange(1, field.char))
    return out


def corrupt_matrix(rng, field, matrix):
    rows = [list(r) for r in matrix.rows]
    i = rng.randrange(len(rows))
    rows[i] = corrupt_vec(rng, field, rows[i])
    return Matrix(field, rows, ncols=matrix.ncols)


def random_basis(rng, field, n):
    """(P, P^-1) for a random unipotent upper triangular P with entries in {-1, 0, 1}.

    The rows of P are the new basis.  P^-1 is integral too, so over Q the
    rebased structure constants stay small integers.
    """
    P = Matrix(field, [[int(k == i) or (rng.choice((-1, 0, 1)) if k > i else 0) for k in range(n)] for i in range(n)])
    return P, Matrix(field, [P.solve_left(e) for e in Matrix.identity(field, n).rows])


def rebased_hopf(rng, field, H):
    """H on a random basis f_i = sum_k P[i][k] h_k: dense structure constants everywhere."""
    m = H.dim
    P, Q = random_basis(rng, field, m)
    f = P.rows
    mult = [[Q.apply(H.alg.multiply(f[i], f[j])) for j in range(m)] for i in range(m)]
    # Q (x) Q re-expresses H (x) H coordinates on the new basis
    QxQ = Matrix(field, [[x * y for x in Q.rows[j] for y in Q.rows[k]] for j in range(m) for k in range(m)])
    comul = [[list(r) for r in zip(*[iter(QxQ.apply(H.comul_vec(f[i])))] * m)] for i in range(m)]
    counit = [H.counit_of(f[i]) for i in range(m)]
    alg = Algebra(field, mult, unit=Q.apply(H.unit))
    return HopfAlgebra(alg, comul, counit, P * H.antipode * Q)


def rebased_module(rng, field, tensor, dim):
    """An action tensor on a random module basis: P A_i P^-1 for each operator A_i."""
    P, Q = random_basis(rng, field, dim)
    return [(P * Matrix(field, op, ncols=dim) * Q).rows for op in tensor]


def hopf_copies(rng, field, H):
    """H and copies with one corrupted entry in its product, coproduct, counit or antipode."""
    alg = H.alg
    return [H] + [
        HopfAlgebra(Algebra(field, corrupt(rng, field, alg.mult), unit=alg.unit), H.comul, H.counit, H.antipode),
        HopfAlgebra(alg, corrupt(rng, field, H.comul), H.counit, H.antipode),
        HopfAlgebra(alg, H.comul, corrupt_vec(rng, field, H.counit), H.antipode),
        HopfAlgebra(alg, H.comul, H.counit, corrupt_matrix(rng, field, H.antipode)),
    ]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_hopf_and_coaction_checkers_match_boxed_loops(field):
    failing_hopf = failing_coactions = 0
    for rng, pa in draws(field):
        hopfs = hopf_copies(rng, field, pa.hopf) + hopf_copies(rng, field, dual_hopf(pa.hopf))
        for H in hopfs + [rebased_hopf(rng, field, pa.hopf)]:
            got = check_hopf(H)
            assert got == ref.check_hopf(H), H
            failing_hopf += not got.ok
        pc = action_to_coaction(pa)
        coactions = [pc] + [
            PartialCoaction(pa.alg, pc.hopf, corrupt_matrix(rng, field, pc.rho)) for _ in range(2)
        ]
        for c in coactions:
            got = check_partial_coaction(c)
            assert got == ref.check_partial_coaction(c)
            failing_coactions += not got.ok
        x, y = rand_vec(rng, field, pa.hopf.dim), rand_vec(rng, field, pa.hopf.dim ** 2)
        H = pa.hopf
        assert H.comul_vec(x) == ref.comul_vec(H, x)
        assert H.counit_of(x) == ref.counit_of(H, x)
        assert H.tensor_square_multiply(y, H.comul_vec(x)) == ref.tensor_multiply(H.alg, H.alg, y, ref.comul_vec(H, x))
    assert failing_hopf >= 6 * DRAWS and failing_coactions >= DRAWS


def module_draws(field):
    """Partial modules from the regular carrier modules of the seeded draws, carrier dim <= 6."""
    for rng, pa in draws(field):
        sp = build_partial_smash(pa)
        if sp.carrier.dim > 6:
            continue
        for side in ("right", "left"):
            V = regular_module(sp.carrier, side)
            # the same module on a random basis, with dense action tensors
            W = AlgebraModule(V.algebra, V.dim, side, rebased_module(rng, field, V.act, V.dim))
            yield rng, pa, W, from_smash_module(sp, W)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_module_checkers_match_boxed_loops(field):
    modules = failing_modules = failing_partial = 0
    for rng, pa, V, M in module_draws(field):
        modules += 1
        for mod in (V, AlgebraModule(V.algebra, V.dim, V.side, corrupt(rng, field, V.act))):
            got = mod.check()
            assert got == ref.check_module(mod)
            failing_modules += not got.ok
        copies = [
            M,
            PartialModule(M.side, pa, M.dim, corrupt(rng, field, M.a_act), M.h_act),
            PartialModule(M.side, pa, M.dim, M.a_act, corrupt(rng, field, M.h_act)),
        ]
        for N in copies:
            got = check_partial_module(N)
            assert got == ref.check_partial_module(N)
            failing_partial += not got.ok
        a, h, w = rand_vec(rng, field, pa.alg.dim), rand_vec(rng, field, pa.hopf.dim), rand_vec(rng, field, M.dim)
        assert M.act_a(a, w) == ref.act_a(M, a, w) and M.act_h(h, w) == ref.act_h(M, h, w)
        x = rand_vec(rng, field, V.algebra.dim)
        assert V.act_vec(x, w) == ref.module_act_vec(V, x, w)
        assert pa.act_vec(h, a) == ref.act_vec(pa, h, a)
    assert modules >= DRAWS // 2 and failing_modules >= modules // 2 and failing_partial >= modules
