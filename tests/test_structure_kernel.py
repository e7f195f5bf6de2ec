"""The structure-constant kernel against the boxed loops it replaced.

`boxed_reference` keeps the dense loops over boxed scalars.  On seeded
random partial actions over Q, F_2, F_3 and F_5, each with copies that have
one corrupted tensor entry, both must give the same CheckReport (the same
failure strings in the same order) for algebras, partial actions, Hopf
algebras, partial coactions, modules and partial modules, the same full
smash product, the same partial smash carrier, and the same subspace
products and closures; the coaction checker also meets the coactions of the
two S_3 translation actions, whose K is not commutative or not
cocommutative, and the partial-module checker the partial modules extended
over them.  The module constructions (extensions, smash-module
conversion, the dimension of the algebra the operators generate) must match
psl's earlier dense loops, also for Sweedler's H_4 and the S_3 corner, whose
Hopf algebras are not cocommutative (and H_4 not commutative either).  The
dual H*-action on the carrier must match the boxed formula
phi_r |> (a # h) = sum a # h1 phi_r(h2), on the draws and on the corners of
the Q benchmark workspace.  PA2, which `check_partial_action` derives from
PA3 and PA4 instead of checking, must hold on every valid draw, and every
corrupted copy that breaks it must already be rejected.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

import boxed_reference as ref
from psl.algebra import (
    Algebra,
    AlgebraMap,
    check_algebra,
    ideal_closure,
    is_ideal,
    nilpotency_index,
    product_of_fields,
    span_products,
)
from psl.exactla import GF, QQ, DimensionMismatch, FieldMismatch, Matrix, Subspace, zero_vec
from psl.hopf import GroupTable, HopfAlgebra, check_hopf, dual_hopf, group_algebra, sweedler_h4
from psl.paction import (
    PartialAction,
    PartialCoaction,
    action_to_coaction,
    check_partial_action,
    check_partial_coaction,
    dual_group_idempotent,
    induce_from_ideal,
    quotient_action,
    trivial_action,
)
from psl.pmod import (
    AlgebraModule,
    PartialModule,
    _generated_span,
    check_partial_module,
    extend_left_module,
    extend_right_module,
    from_smash_module,
    quotient_module,
    regular_module,
    to_smash_module,
)
from psl.radicals import h_jacobson_radical, jacobson_radical
from psl.smash import build_full_smash, build_partial_smash
from psl.verify import random_partial_action, truncated_polynomial_algebra
from psl.workspace import load_workspace
from helpers import assert_kernel_form, act_vec, dense_a_act, dense_act, dense_comul, dense_h_act, dense_module_act, dense_mult, dense_rho, fix_a, fix_b, fix_c, fix_d, matrix_algebra, module_act_vec, operate_sum, rand_subspace, rand_vec, solve_left
from test_nonabelian import a3_indices
from helpers import graded_c6_action, s3_translations

ROOT = Path(__file__).resolve().parent.parent
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
        actions = [pa] + [PartialAction(pa.hopf, A, corrupt(rng, field, dense_act(pa))) for _ in range(3)]
        for act in actions:
            got = check_partial_action(act)
            assert got == ref.check_partial_action(act), act
            failing_actions += not got.ok
        mult, unit = ref.build_full_smash(pa)
        full = build_full_smash(pa)
        assert dense_mult(full) == mult and full.unit == unit
        algebras = [A] + [Algebra(field, corrupt(rng, field, dense_mult(A)), unit=A.unit) for _ in range(3)] + [full]
        for alg in algebras:
            got = check_algebra(alg)
            assert got == ref.check_algebra(alg), alg
            failing_algebras += not got.ok
    # the corrupted copies must exercise the failure paths
    assert failing_actions >= DRAWS and failing_algebras >= DRAWS


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_pa2_follows_from_the_checked_axioms(field):
    # check_partial_action tests PA1, PA3 and PA4 only: PA2, on every basis tuple, must then hold
    # on each valid draw, and every corrupted copy that breaks it must already be rejected
    violating = 0
    for rng, pa in draws(field):
        assert ref.pa2_failures(pa) == [], pa
        for _ in range(3):
            act = PartialAction(pa.hopf, pa.alg, corrupt(rng, field, dense_act(pa)))
            if ref.pa2_failures(act):
                violating += 1
                assert not check_partial_action(act).ok, act
    assert violating >= 1


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
                assert ref.is_nilpotent_subspace(A, S) == (idx is not None)
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
        assert [list(row) for row in dense_mult(sp.carrier)] == mult
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


Q_CORNERS = ("corner", "c6-corner", "c8-corner", "s3-corner")


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_dual_action_matches_boxed_loop(field):
    partial = 0
    for _, pa in draws(field):
        sp = build_partial_smash(pa)
        assert dense_act(sp.dual_action) == ref.dual_action(pa, sp.full)
        partial += sp.carrier.dim < sp.full.dim
    assert partial >= DRAWS // 3


@pytest.mark.parametrize("name", Q_CORNERS)
def test_dual_action_of_the_q_workspace_corners_matches_boxed_loop(name):
    pa = load_workspace(str(ROOT / "pslbench" / "workspaces" / "q.json")).actions[name]
    sp = build_partial_smash(pa)
    assert sp.carrier.dim < sp.full.dim
    assert dense_act(sp.dual_action) == ref.dual_action(pa, sp.full)


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
    return P, Matrix(field, [solve_left(P, e) for e in Matrix.identity(field, n).rows])


def rebased_hopf(rng, field, H):
    """H on a random basis f_i = sum_k P[i][k] h_k: dense structure constants everywhere."""
    m = H.dim
    P, Q = random_basis(rng, field, m)
    f = P.rows
    mult = [[Q.apply(H.alg.multiply(f[i], f[j])) for j in range(m)] for i in range(m)]
    # Q (x) Q re-expresses H (x) H coordinates on the new basis
    QxQ = Matrix(field, [[x * y for x in Q.rows[j] for y in Q.rows[k]] for j in range(m) for k in range(m)])
    comul = [[list(r) for r in zip(*[iter(QxQ.apply(ref.comul_vec(H, f[i])))] * m)] for i in range(m)]
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
        HopfAlgebra(Algebra(field, corrupt(rng, field, dense_mult(alg)), unit=alg.unit), dense_comul(H), H.counit, H.antipode),
        HopfAlgebra(alg, corrupt(rng, field, dense_comul(H)), H.counit, H.antipode),
        HopfAlgebra(alg, dense_comul(H), corrupt_vec(rng, field, H.counit), H.antipode),
        HopfAlgebra(alg, dense_comul(H), H.counit, corrupt_matrix(rng, field, H.antipode)),
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
        failing_coactions += coactions_match_boxed_loops(rng, field, pa)
        x = rand_vec(rng, field, pa.hopf.dim)
        rand_vec(rng, field, pa.hopf.dim ** 2)  # the draw is kept so that the later draws stay the same
        assert pa.hopf.counit_of(x) == ref.counit_of(pa.hopf, x)
    assert failing_hopf >= 6 * DRAWS and failing_coactions >= DRAWS
    # after the draws, so that their rng stream stays the same: the S_3 translations, whose
    # coactions are over a non-commutative and a non-cocommutative K, so that a transposed
    # product or coproduct in the dictionary shows
    rng = random.Random(3500 + field.char)
    assert sum(coactions_match_boxed_loops(rng, field, pa) for pa in s3_translations(field)) == 4  # every corrupted copy


def coactions_match_boxed_loops(rng, field, pa) -> int:
    """Assert that the coaction of pa and two copies with a corrupted rho entry get the boxed
    CheckReport; return how many of the three fail."""
    pc = action_to_coaction(pa)
    coactions = [pc] + [
        PartialCoaction(pa.alg, pc.hopf, corrupt_matrix(rng, field, Matrix(field, dense_rho(pc)))) for _ in range(2)
    ]
    failing = 0
    for c in coactions:
        got = check_partial_coaction(c)
        assert got == ref.check_partial_coaction(c)
        failing += not got.ok
    return failing


def module_draws(field):
    """Partial modules from the regular carrier modules of the seeded draws, carrier dim <= 6."""
    for rng, pa in draws(field):
        sp = build_partial_smash(pa)
        if sp.carrier.dim > 6:
            continue
        for side in ("right", "left"):
            V = regular_module(sp.carrier, side)
            # the same module on a random basis, with dense action tensors
            W = AlgebraModule(V.algebra, V.dim, side, rebased_module(rng, field, dense_module_act(V), V.dim))
            yield rng, pa, W, from_smash_module(sp, W)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_module_checkers_match_boxed_loops(field):
    modules = failing_modules = failing_partial = 0
    for rng, pa, V, M in module_draws(field):
        modules += 1
        for mod in (V, AlgebraModule(V.algebra, V.dim, V.side, corrupt(rng, field, dense_module_act(V)))):
            got = mod.check()
            assert got == ref.check_module(mod)
            failing_modules += not got.ok
        copies = [
            M,
            PartialModule(M.side, pa, M.dim, corrupt(rng, field, dense_a_act(M)), dense_h_act(M)),
            PartialModule(M.side, pa, M.dim, dense_a_act(M), corrupt(rng, field, dense_h_act(M))),
        ]
        for N in copies:
            got = check_partial_module(N)
            assert got == ref.check_partial_module(N)
            failing_partial += not got.ok
        a, h, w = rand_vec(rng, field, pa.alg.dim), rand_vec(rng, field, pa.hopf.dim), rand_vec(rng, field, M.dim)
        assert operate_sum(field, M._a_terms, a, w, M.dim) == ref.act_a(M, a, w)
        assert operate_sum(field, M._h_terms, h, w, M.dim) == ref.act_h(M, h, w)
        x = rand_vec(rng, field, V.algebra.dim)
        assert module_act_vec(V, x, w) == ref.module_act_vec(V, x, w)
        assert act_vec(pa, h, a) == ref.act_vec(pa, h, a)
    assert modules >= DRAWS // 2 and failing_modules >= modules // 2 and failing_partial >= modules
    # after the draws, so that their rng stream stays the same: partial modules over the S_3
    # translations, whose H is not cocommutative or not commutative, so that a flipped
    # coproduct or a product in the wrong order shows
    rng = random.Random(3600 + field.char)
    failing_s3 = 0
    for pa, M in s3_partial_modules(field):
        copies = [
            M,
            PartialModule(M.side, pa, M.dim, corrupt(rng, field, dense_a_act(M)), dense_h_act(M)),
            PartialModule(M.side, pa, M.dim, dense_a_act(M), corrupt(rng, field, dense_h_act(M))),
        ]
        for N in copies:
            got = check_partial_module(N)
            assert got == ref.check_partial_module(N)
            failing_s3 += not got.ok
    assert failing_s3 == 8  # every corrupted copy


def s3_partial_modules(field):
    """(action, module) for the right and left partial modules extended from a one-dimensional
    A-module over each S_3 translation: the trivial character of kS_3, and the evaluation of k^{S_3}
    at the identity."""
    dual, regular = s3_translations(field)
    for pa, character in ((dual, (1,) * 6), (regular, (1,) + (0,) * 5)):
        for side, extend in (("right", extend_right_module), ("left", extend_left_module)):
            V = AlgebraModule(pa.alg, 1, side, [[[x]] for x in character])
            yield pa, extend(pa, V).module


def module_instances(field):
    """The seeded draws, then Sweedler's H_4 acting trivially on field^2 and the S_3 corner.

    The cyclic draws have commutative, cocommutative Hopf algebras: only H_4
    tells h_k h from h h_k, and only the last two tell Delta from its flip.
    """
    yield from draws(field)
    rng = random.Random(9300 + field.char)
    if field.char != 2:
        yield rng, trivial_action(sweedler_h4(field), product_of_fields(field, 2))
    if field.char != 3:
        G, evens = a3_indices()
        yield rng, dual_group_idempotent(field, G, evens)


def a_modules(rng, A):
    """The regular right and left A-modules and their quotients by a seeded one-sided ideal closure."""
    for side in ("right", "left"):
        yield regular_module(A, side)
        I = ideal_closure(A, [rand_vec(rng, A.field, A.dim)], side)
        if not I.is_full():
            yield quotient_module(A, I, side)


def is_cocommutative(H):
    m = H.dim
    return all(dense_comul(H)[i][p][q] == dense_comul(H)[i][q][p] for i in range(m) for p in range(m) for q in range(m))


def same_small_module_invariants(M):
    """The algebra the operators of M generate has the dimension of the dense loops' one."""
    if M.dim > 6:
        return 0
    assert _generated_span(M.field, M.dim, M._a_terms + M._h_terms).dim == ref.operator_image_algebra(M).dim
    return 1


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_module_extensions_match_dense_loops(field):
    extensions = noncocommutative = small = 0
    for rng, pa in module_instances(field):
        if pa.alg.dim * pa.hopf.dim > 24:
            continue
        sp = build_partial_smash(pa)
        for V in a_modules(rng, pa.alg):
            if V.side == "right":
                got, want = extend_right_module(pa, V), ref.extend_right_module(pa, V)
            else:
                got, want = extend_left_module(pa, V), ref.extend_left_module(pa, V)
            assert got.space == want.space and got.embedding == want.embedding
            M = got.module
            assert (M.side, dense_a_act(M), dense_h_act(M)) == (want.module.side, dense_a_act(want.module), dense_h_act(want.module))
            assert dense_module_act(to_smash_module(M, sp)) == dense_module_act(ref.to_smash_module(M, sp))
            small += same_small_module_invariants(M)
            extensions += 1
            noncocommutative += not is_cocommutative(pa.hopf)
    assert extensions >= 2 * DRAWS and noncocommutative >= 2 and small >= DRAWS


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_smash_module_conversion_matches_dense_loops(field):
    modules = small = 0
    for rng, pa in module_instances(field):
        sp = build_partial_smash(pa)
        if sp.carrier.dim > 8:
            continue
        for mod in a_modules(rng, sp.carrier):
            M = from_smash_module(sp, mod)
            assert dense_module_act(to_smash_module(M, sp)) == dense_module_act(ref.to_smash_module(M, sp)) == dense_module_act(mod)
            small += same_small_module_invariants(M)
            modules += 1
    assert modules >= DRAWS and small >= DRAWS


# ---------------------------------------------------------------------------
# the kernel form: over Q an integral structure constant is held as an int,
# any other as a Fraction with denominator > 1; over F_p every constant is a
# nonzero int in [0, p).  Algebras and actions psl builds from its own kernel
# output (`_of_terms`) equal, and hash like, the public constructors' ones.

Q_WORKSPACES = [ROOT / "workspaces" / "sample.json", ROOT / "pslbench" / "workspaces" / "q.json"]


def assert_public_twin(X):
    """X equals, and hashes like, the same object through the public constructor."""
    if isinstance(X, PartialAction):
        twin = PartialAction(X.hopf, X.alg, dense_act(X))
        assert X._terms == twin._terms
    else:
        twin = Algebra(X.field, dense_mult(X), X.unit)
        assert X.terms == twin.terms
    assert X == twin and hash(X) == hash(twin)


def kernel_built(pa):
    """(what, object) for what psl derives from pa through its kernel: the full smash product,
    the carrier, the dual action, a quotient and an induced action with their algebras."""
    sp = build_partial_smash(pa)
    J = h_jacobson_radical(pa)
    ideal = J if not J.is_full() else Subspace.zero_space(pa.field, pa.alg.dim)
    qpa, _ = quotient_action(pa, ideal)
    induced = induce_from_ideal(sp.dual_action, sp.carrier.unit)
    return [
        ("full smash", sp.full), ("carrier", sp.carrier), ("dual action", sp.dual_action),
        ("quotient", qpa.alg), ("quotient action", qpa),
        ("induced", induced.alg), ("induced action", induced),
    ]


def assert_action_in_kernel_form(pa, what):
    f = pa.field
    assert_kernel_form(f, pa._terms, f"{what} _terms")
    assert_kernel_form(f, pa.alg.terms, f"{what} algebra terms")
    assert_kernel_form(f, pa.hopf.alg.terms, f"{what} hopf terms")
    assert_kernel_form(f, pa.hopf._delta, f"{what} _delta")
    for name, X in kernel_built(pa):
        if isinstance(X, PartialAction):
            assert_kernel_form(f, X._terms, f"{what}: {name}")
            assert_kernel_form(f, X.hopf._delta, f"{what}: {name} _delta")
        else:
            assert_kernel_form(f, X.terms, f"{what}: {name}")
        assert_public_twin(X)


KERNEL_FIXTURES = {
    "FIX-A": fix_a, "FIX-B": fix_b, "FIX-C": fix_c,
    "FIX-A(F3)": lambda: fix_a(GF(3)), "FIX-C(F5)": lambda: fix_c(GF(5)), "FIX-D": fix_d,
}


@pytest.mark.parametrize("name", KERNEL_FIXTURES)
def test_fixtures_hold_the_kernel_form(name):
    assert_action_in_kernel_form(KERNEL_FIXTURES[name](), name)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=repr)
def test_random_draws_hold_the_kernel_form(field):
    fractional = 0
    for t, (_, pa) in enumerate(draws(field)):
        assert_action_in_kernel_form(pa, f"draw {t}")
        fractional += any(type(c) is Fraction for row in pa._terms for v in row for _, c in v)
    # over Q the draws must include actions with non-integral constants
    assert field.char or fractional


@pytest.mark.parametrize("path", Q_WORKSPACES, ids=lambda p: p.name)
def test_q_workspace_objects_hold_the_kernel_form(path):
    ws = load_workspace(str(path))
    assert ws.field == QQ
    for name, H in ws.hopf_algebras.items():
        assert_kernel_form(QQ, H.alg.terms, name)
        assert_kernel_form(QQ, H._delta, name)
    for name, A in ws.algebras.items():
        assert_kernel_form(QQ, A.terms, name)
    for name, pa in ws.actions.items():
        assert_action_in_kernel_form(pa, name)


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=repr)
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_matrix_algebra_equals_its_public_twin(field, d):
    E = matrix_algebra(field, d)
    assert_kernel_form(field, E.terms, "M_d")
    assert sum(len(e) for row in E.terms for e in row) == d ** 3
    assert_public_twin(E)
    assert check_algebra(E).ok
    # e_ij e_jl = e_il on the matrix units, the identity is the sum of the e_ii
    units = [E.basis_vector(k) for k in range(d * d)]
    for a in range(d * d):
        for b in range(d * d):
            i, j, k, l = a // d, a % d, b // d, b % d
            assert E.multiply(units[a], units[b]) == (units[i * d + l] if j == k else zero_vec(field, d * d))
    assert E.unit == tuple(sum(units[i * d + i][t] for i in range(d)) for t in range(d * d))


def scaled_truncated_polynomial_algebra(field, k):
    """field[x]/(x^k) on the basis b_i = x^i / (i+1): b_i b_j = (i+j+1)/((i+1)(j+1)) b_(i+j)."""
    mult = [
        [[Fraction(i + j + 1, (i + 1) * (j + 1)) if t == i + j else 0 for t in range(k)] for j in range(k)]
        for i in range(k)
    ]
    return Algebra(field, mult, unit=[int(t == 0) for t in range(k)])


def mixed_actions():
    """Partial actions over Q whose constants mix integers with 1/2, 1/3 and 1/4."""
    yield dual_group_idempotent(QQ, GroupTable.cyclic(2), [0, 1])       # e_N with 1/2
    yield dual_group_idempotent(QQ, GroupTable.cyclic(3), [0, 1, 2])    # e_N with 1/3
    yield dual_group_idempotent(QQ, GroupTable.cyclic(4), [0, 2])       # e_N with 1/2
    yield dual_group_idempotent(QQ, GroupTable.cyclic(6), [0, 2, 4])    # e_N with 1/3
    yield dual_group_idempotent(QQ, GroupTable.cyclic(4), [0, 1, 2, 3])  # e_N with 1/4
    C2 = group_algebra(QQ, GroupTable.cyclic(2))
    for k in (3, 4):
        yield trivial_action(C2, scaled_truncated_polynomial_algebra(QQ, k))


def test_mixed_constants_match_boxed_loops():
    rng = random.Random(9400)
    fractional = failing = 0
    for pa in mixed_actions():
        A = pa.alg
        sp = build_partial_smash(pa)
        mult, unit = ref.build_full_smash(pa)
        assert dense_mult(sp.full) == mult and sp.full.unit == unit
        cmult, cunit, incl = ref.carrier(pa, sp.full)
        assert [list(row) for row in dense_mult(sp.carrier)] == cmult and sp.carrier.unit == cunit
        assert list(sp.include_A.matrix.rows) == incl
        actions = [pa, sp.dual_action] + [PartialAction(pa.hopf, A, corrupt(rng, QQ, dense_act(pa))) for _ in range(2)]
        for act in actions:
            got = check_partial_action(act)
            assert got == ref.check_partial_action(act)
            failing += not got.ok
        algebras = [A, sp.full, sp.carrier, Algebra(QQ, corrupt(rng, QQ, dense_mult(A)), unit=A.unit)]
        for alg in algebras:
            got = check_algebra(alg)
            assert got == ref.check_algebra(alg)
            failing += not got.ok
            for _ in range(3):
                x, y = rand_vec(rng, QQ, alg.dim), rand_vec(rng, QQ, alg.dim)
                assert alg.multiply(x, y) == ref.multiply(alg, x, y)
            if alg.unit is not None:
                # integral and non-integral coordinates mixed in one vector
                x = tuple(Fraction(t % 3, 1 + t % 2) for t in range(alg.dim))
                assert alg.multiply(x, alg.unit) == ref.multiply(alg, x, alg.unit)
        h, a = rand_vec(rng, QQ, pa.hopf.dim), rand_vec(rng, QQ, A.dim)
        assert act_vec(pa, h, a) == ref.act_vec(pa, h, a)
        tensors = [X.terms for X in (A, sp.full, sp.carrier)] + [pa._terms]
        fractional += any(type(c) is Fraction for t in tensors for row in t for e in row for _, c in e)
    # every instance mixes integral and non-integral constants, and the corrupted copies fail
    assert fractional == 7 and failing >= 8


BENCH_WORKSPACES = ("q.json", "f2.json", "f3.json")


@pytest.mark.parametrize("name", BENCH_WORKSPACES)
def test_workspace_carriers_and_dual_actions_match_boxed_loops(name):
    # the carriers of the benchmark workspaces reach dim 16, past the dim <= 12 of the
    # draws, so the sparse blocks of the checkers meet larger n with and without failures
    ws = load_workspace(str(ROOT / "pslbench" / "workspaces" / name))
    field = ws.field
    rng = random.Random(9500)
    largest = failing_algebras = failing_actions = 0
    for pa in ws.actions.values():
        sp = build_partial_smash(pa)
        C, dual = sp.carrier, sp.dual_action
        largest = max(largest, C.dim)
        corrupted = [Algebra(field, corrupt(rng, field, dense_mult(C)), unit=C.unit) for _ in range(3)]
        for alg in [C] + corrupted:
            got = check_algebra(alg)
            assert got == ref.check_algebra(alg), (pa, alg)
            failing_algebras += not got.ok
        corrupted = [PartialAction(dual.hopf, C, corrupt(rng, field, dense_act(dual))) for _ in range(3)]
        for act in [dual] + corrupted:
            got = check_partial_action(act)
            assert got == ref.check_partial_action(act), (pa, act)
            failing_actions += not got.ok
    # build_partial_smash has checked each carrier and dual action; every corrupted dual action
    # fails, and a corrupted carrier may be an algebra again (over F_2, moving a constant 1 to 0
    # can give the dual numbers), but most must fail
    assert failing_actions == 3 * len(ws.actions)
    assert failing_algebras >= 2 * len(ws.actions)
    assert largest == 16 or name != "q.json"


def test_dim_72_carrier_and_dual_action_pass_the_checkers():
    # too large for the boxed loops: both checkers must accept the graded carrier and its dual action
    sp = build_partial_smash(graded_c6_action())
    assert sp.carrier.dim == 72
    assert check_algebra(sp.carrier) == (True, ())
    assert check_partial_action(sp.dual_action) == (True, ())
