"""Partial actions: axioms, builders, stability, quotients, coactions."""

import random
from fractions import Fraction

import pytest

from psl.algebra import Algebra, NotAnIdeal, ideal_closure, product_of_fields
from psl.exactla import GF, QQ, FieldMismatch, Matrix, Subspace, unit_vec
from psl.hopf import GroupTable, dual_group_algebra, dual_hopf, group_algebra
from psl.paction import (
    BadSubgroup,
    CharDividesOrder,
    NotHStable,
    NotIdempotent,
    PartialAction,
    PartialCoaction,
    action_to_coaction,
    c4_triple,
    check_partial_action,
    check_partial_coaction,
    coaction_to_action,
    coinvariant_subalgebra,
    colon_ideal,
    dual_group_idempotent,
    dual_group_translation_action,
    induce_from_ideal,
    invariant_subalgebra,
    is_global,
    is_h_stable,
    quotient_action,
    trivial_action,
)
from psl.verify import random_partial_action
from helpers import (
    all_vectors,
    dense_act,
    fix_a,
    fix_b,
    fix_c,
    fix_d,
    lift,
    mult_matrix,
    rand_vec,
    rho_of,
    solve_left,
)

F2 = GF(2)
F3 = GF(3)


def test_c4_triple_matches_action_table():
    pa = fix_b()
    e = [unit_vec(QQ, 3, i) for i in range(3)]
    z = (Fraction(0),) * 3
    # the nine table entries for g, g^2, g^3
    assert pa.act_basis(1, e[0]) == z and pa.act_basis(1, e[1]) == e[0] and pa.act_basis(1, e[2]) == e[1]
    assert pa.act_basis(2, e[0]) == e[2] and pa.act_basis(2, e[1]) == z and pa.act_basis(2, e[2]) == e[0]
    assert pa.act_basis(3, e[0]) == e[1] and pa.act_basis(3, e[1]) == e[2] and pa.act_basis(3, e[2]) == z
    assert check_partial_action(pa).ok


def test_trivial_action_is_global_partial():
    pa = fix_c()
    assert check_partial_action(pa).ok
    assert is_global(pa)


def test_corrupted_c4_action_fails_pa4():
    pa = fix_b()
    act = [list(map(tuple, row)) for row in dense_act(pa)]
    act[1][0] = unit_vec(QQ, 3, 0)  # g . e1 := e1
    bad = PartialAction(pa.hopf, pa.alg, act)
    report = check_partial_action(bad)
    assert not report.ok
    assert any("PA4" in f for f in report.failures)


def test_is_global_fix_b_false():
    pa = fix_b()
    # g . 1_A = e1 + e2 != 1_A
    assert pa.unit_image(1) == (1, 1, 0)
    assert not is_global(pa)


def test_fix_a_action_values():
    pa = fix_a()
    # p_1 . e_N = p_g . e_N = (1/2) e_N, so the action is not global
    assert pa.alg.dim == 1
    assert pa.act_basis(0, (1,)) == (Fraction(1, 2),)
    assert pa.act_basis(1, (1,)) == (Fraction(1, 2),)
    assert not is_global(pa)
    assert check_partial_action(pa).ok


def test_induce_from_full_unit_is_identity():
    glob = dual_group_translation_action(QQ, GroupTable.cyclic(3))
    pa = induce_from_ideal(glob, glob.alg.unit)
    assert pa.alg.dim == glob.alg.dim
    assert dense_act(pa) == dense_act(glob)


def test_induce_from_ideal_errors():
    glob = dual_group_translation_action(QQ, GroupTable.cyclic(2))
    with pytest.raises(NotIdempotent):
        induce_from_ideal(glob, (0, 1))  # g is not idempotent
    with pytest.raises(ValueError):
        induce_from_ideal(fix_b(), fix_b().alg.unit)  # not a global action


def test_induce_from_ideal_rejects_one_sided_unit():
    # upper triangular 2x2 matrices on the basis (e11, e12, e22):
    # e11 * (e11 B) is a right ideal but e12 e11 = 0 != e12
    from psl.algebra import Algebra
    from psl.hopf import group_algebra
    from psl.paction import NotRightIdealUnit, trivial_action

    z = (0, 0, 0)
    mult = [
        [(1, 0, 0), (0, 1, 0), z],
        [z, z, (0, 1, 0)],
        [z, z, (0, 0, 1)],
    ]
    B = Algebra(QQ, mult, unit=(1, 0, 1), labels=("e11", "e12", "e22"))
    glob = trivial_action(group_algebra(QQ, GroupTable.cyclic(2)), B)
    with pytest.raises(NotRightIdealUnit):
        induce_from_ideal(glob, (1, 0, 0))


def test_dual_group_idempotent_builders():
    pa = dual_group_idempotent(QQ, GroupTable.cyclic(2), [0, 1])
    assert pa.alg.dim == 1 and not is_global(pa)
    with pytest.raises(BadSubgroup):
        dual_group_idempotent(QQ, GroupTable.cyclic(4), [0, 1])
    with pytest.raises(CharDividesOrder):
        dual_group_idempotent(F2, GroupTable.cyclic(2), [0, 1])


def test_invariant_subalgebra_trivial_action():
    pa = fix_c()
    assert invariant_subalgebra(pa) == Subspace.full_space(QQ, 3)


def test_invariant_subalgebra_fix_a():
    assert invariant_subalgebra(fix_a()) == Subspace.full_space(QQ, 1)


def test_invariant_subalgebra_fix_b_regression():
    # solver output: exactly the span of the unit
    inv = invariant_subalgebra(fix_b())
    assert inv == Subspace.from_vectors(QQ, 3, [[1, 1, 1]])
    assert inv.contains(fix_b().alg.unit)


def test_invariant_subalgebra_global_matches_classical():
    # for global actions A^{pH} = {a : h.a = eps(h) a}
    pa = fix_c()
    inv = invariant_subalgebra(pa)
    for v in (rand_vec(random.Random(2), QQ, 3) for _ in range(5)):
        lhs_ok = all(
            pa.act_basis(i, v) == tuple(pa.hopf.counit[i] * x for x in v)
            for i in range(pa.hopf.dim)
        )
        assert lhs_ok == inv.contains(v)


def test_colon_ideal_whole_algebra():
    pa = fix_b()
    A = Subspace.full_space(QQ, 3)
    assert colon_ideal(pa, A) == A


def test_colon_ideal_span_e1_is_zero():
    pa = fix_b()
    I = Subspace.from_vectors(QQ, 3, [[1, 0, 0]])
    assert colon_ideal(pa, I).is_zero()
    assert not is_h_stable(pa, I)


def test_colon_ideal_trivial_action_fixes_everything():
    pa = fix_c()
    for vecs in ([[1, 0, 0]], [[0, 1, 0], [0, 0, 1]]):
        I = Subspace.from_vectors(QQ, 3, vecs)
        assert colon_ideal(pa, I) == I
        assert is_h_stable(pa, I)


def test_colon_ideal_requires_ideal():
    pa = dual_group_translation_action(QQ, GroupTable.cyclic(4))
    with pytest.raises(NotAnIdeal):
        colon_ideal(pa, Subspace.from_vectors(QQ, 4, [[1, 0, 0, 0]]))


def test_colon_ideal_maximality_property():
    # every H-stable ideal generated from elements of I sits inside (I:H)
    rng = random.Random(13)
    pa = c4_triple(F3)
    for _ in range(15):
        I = ideal_closure(pa.alg, [rand_vec(rng, F3, 3)])
        c = colon_ideal(pa, I)
        for v in (lift(I, x) for x in all_vectors(F3, I.dim)):
            J = ideal_closure(pa.alg, [v])
            stable = is_h_stable(pa, J)
            if stable and J <= I:
                assert J <= c


def test_quotient_action_by_zero():
    pa = fix_b()
    qpa, proj = quotient_action(pa, Subspace.zero_space(QQ, 3))
    assert dense_act(qpa) == dense_act(pa)
    assert proj.is_injective()


def test_quotient_action_trivial_stays_global():
    pa = fix_c()
    I = Subspace.from_vectors(QQ, 3, [[1, 0, 0]])
    qpa, _ = quotient_action(pa, I)
    assert is_global(qpa)
    assert check_partial_action(qpa).ok


def test_quotient_action_requires_stability():
    pa = fix_b()
    with pytest.raises(NotHStable):
        quotient_action(pa, Subspace.from_vectors(QQ, 3, [[1, 0, 0]]))


def test_coaction_roundtrip_all_fixtures():
    for pa in (fix_a(), fix_b(), fix_c(), fix_d(), c4_triple(F3)):
        pc = action_to_coaction(pa)
        assert check_partial_coaction(pc).ok
        back = coaction_to_action(pc, pa.hopf)
        assert dense_act(back) == dense_act(pa)


def test_coaction_trivial_shape():
    pa = fix_c()
    pc = action_to_coaction(pa)
    # rho(1_A) = 1_A (x) 1_K since the action is global
    m = pc.hopf.dim
    expected = [pc.field.zero] * (3 * m)
    for j in range(3):
        for k, c in enumerate(pc.hopf.unit):
            expected[j * m + k] = pa.alg.unit[j] * c
    assert rho_of(pc, pa.alg.unit) == tuple(expected)
    # global coaction: coinvariants = {x : rho(x) = x (x) 1}
    assert coinvariant_subalgebra(pc) == Subspace.full_space(QQ, 3)


def test_coaction_pc3_fix_b():
    pc = action_to_coaction(fix_b())
    assert check_partial_coaction(pc).ok


def test_coaction_refuses_a_dual_over_another_field():
    K = dual_hopf(group_algebra(F3, GroupTable.cyclic(2)))
    with pytest.raises(FieldMismatch, match="different fields"):
        PartialCoaction(product_of_fields(QQ, 1), K, Matrix(QQ, [[1, 0]]))


def test_actions_refuse_an_algebra_over_another_field():
    H, A = group_algebra(F3, GroupTable.cyclic(2)), product_of_fields(QQ, 1)
    with pytest.raises(FieldMismatch, match="different fields"):
        PartialAction(H, A, [[[1]], [[1]]])
    with pytest.raises(FieldMismatch, match="different fields"):
        trivial_action(H, A)


def test_coaction_refuses_a_matrix_over_another_field():
    K = dual_hopf(group_algebra(QQ, GroupTable.cyclic(2)))
    with pytest.raises(FieldMismatch):
        PartialCoaction(product_of_fields(QQ, 1), K, Matrix(F3, [[1, 0]]))


def test_coaction_refuses_a_non_unital_algebra():
    K = dual_hopf(group_algebra(QQ, GroupTable.cyclic(2)))
    with pytest.raises(ValueError, match="unital"):
        PartialCoaction(Algebra(QQ, [[[0]]]), K, Matrix(QQ, [[1, 0]]))


def invariant_cases(field):
    """Every fixture defined over `field` (FIX-A needs char != 2, FIX-D is over F_2), then 12 seeded draws."""
    cases = [fix_b(field), fix_c(field)] + ([fix_d()] if field.char == 2 else [fix_a(field)])
    rng = random.Random(2600 + field.char)
    return cases + [random_partial_action(rng, field, max_carrier=12) for _ in range(12)]


@pytest.mark.parametrize("field", [QQ, F2, F3, GF(5)], ids=repr)
def test_invariants_are_the_coinvariants_of_the_coaction(field):
    # both solve h_i . x = x (h_i . 1_A): one on the action's rows, one on rho's; over F_2 and
    # F_3 at dim A <= 4 both also equal the brute-force listing of those x
    listed = 0
    for pa in invariant_cases(field):
        inv = invariant_subalgebra(pa)
        assert inv == coinvariant_subalgebra(action_to_coaction(pa))
        A = pa.alg
        if field.char in (2, 3) and A.dim <= 4:
            units = [pa.unit_image(i) for i in range(pa.hopf.dim)]
            fixed = [
                a for a in all_vectors(field, A.dim)
                if all(pa.act_basis(i, a) == A.multiply(a, u) for i, u in enumerate(units))
            ]
            assert len(fixed) == field.char ** inv.dim
            assert all(inv.contains(a) for a in fixed)
            listed += 1
    if field.char in (2, 3):
        assert listed >= 10


def test_invertible_invariants_closed_under_inverse():
    # a in A^{pH} invertible => a^{-1} in A^{pH}; exhaustive over small fields
    for pa in (c4_triple(F2), c4_triple(F3), fix_d()):
        inv = invariant_subalgebra(pa)
        A = pa.alg
        for coords in all_vectors(A.field, inv.dim):
            a = lift(inv, coords)
            x = solve_left(mult_matrix(A, a, left=True), A.unit)
            if x is None:
                continue
            if A.multiply(x, a) != A.unit:
                continue
            assert inv.contains(x)


def test_dual_translation_action_is_global():
    pa = dual_group_translation_action(QQ, GroupTable.cyclic(4))
    assert is_global(pa)
    assert check_partial_action(pa).ok
