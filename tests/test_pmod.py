"""Partial (A,H)-modules: axioms, smash equivalence, extensions."""

import random

import pytest

from psl.algebra import Algebra, NotAnIdeal, ideal_closure, is_ideal, product_of_fields
from psl.exactla import GF, QQ, Subspace, enumerate_invariant_subspaces, unit_vec
from psl.hopf import GroupTable, group_algebra
from psl.paction import colon_ideal, is_h_stable, trivial_action
from psl.pmod import (
    AlgebraModule,
    AxiomViolation,
    NotAModule,
    PartialModule,
    ZeroModule,
    annihilator,
    check_partial_module,
    extend_left_module,
    extend_right_module,
    from_smash_module,
    irreducible_extension,
    is_irreducible,
    module_annihilator,
    module_is_irreducible_over_algebra,
    quotient_module,
    regular_module,
    to_smash_module,
)
from psl.radicals import FieldNotFinite
from psl.smash import build_partial_smash, tensor_coords
from helpers import (
    dense_a_act,
    dense_h_act,
    dense_module_act,
    fix_a,
    fix_b,
    fix_c,
    fix_d,
    mod_basis,
    module_act_vec,
    solve_left,
)
import boxed_reference as ref

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)


def stable_ideal_module(pa, vecs):
    """A itself (or an H-stable ideal quotient) as a right partial module."""
    I = Subspace.from_vectors(pa.field, pa.alg.dim, vecs)
    A = pa.alg
    a_act = [[A.multiply(A.basis_vector(j), A.basis_vector(i)) for j in range(A.dim)] for i in range(A.dim)]
    h_act = [[pa.act_basis(i, A.basis_vector(j)) for j in range(A.dim)] for i in range(pa.hopf.dim)]
    return PartialModule("right", pa, A.dim, a_act, h_act)


def test_regular_carrier_module_for_global_action():
    # for a global action A itself with m <| h := h . m is a partial module
    pa = fix_c()
    M = stable_ideal_module(pa, [])
    assert check_partial_module(M).ok


def test_from_smash_module_random_carrier_module():
    pa = fix_b()
    sp = build_partial_smash(pa)
    reg = regular_module(sp.carrier, "right")
    M = from_smash_module(sp, reg)
    assert check_partial_module(M).ok


def test_corrupt_h_action_gives_pm_witness():
    pa = fix_b()
    sp = build_partial_smash(pa)
    M = from_smash_module(sp, regular_module(sp.carrier, "right"))
    h_act = [list(map(tuple, row)) for row in dense_h_act(M)]
    h_act[1][0] = unit_vec(M.field, M.dim, 0)
    bad = PartialModule("right", pa, M.dim, dense_a_act(M), h_act)
    report = check_partial_module(bad)
    assert not report.ok
    assert any("PM" in f for f in report.failures)


def test_roundtrip_regular_modules():
    for pa in (fix_a(), fix_b(), fix_d()):
        sp = build_partial_smash(pa)
        for side in ("right", "left"):
            reg = regular_module(sp.carrier, side)
            M = from_smash_module(sp, reg)
            back = to_smash_module(M, sp)
            assert dense_module_act(back) == dense_module_act(reg)


def test_roundtrip_random_quotient_modules():
    rng = random.Random(77)
    pa = fix_b(F3)
    sp = build_partial_smash(pa)
    C = sp.carrier
    count = 0
    for _ in range(25):
        vec = tuple(rng.randrange(3) for _ in range(C.dim))
        side = rng.choice(["right", "left"])
        I = ideal_closure(C, [vec], side=side)
        if I.is_full():
            continue
        mod = quotient_module(C, I, side)
        M = from_smash_module(sp, mod)
        assert check_partial_module(M).ok
        back = to_smash_module(M, sp)
        assert dense_module_act(back) == dense_module_act(mod)
        count += 1
    assert count >= 5


def test_fix_a_unique_simple_module():
    pa = fix_a()
    sp = build_partial_smash(pa)
    assert sp.carrier.dim == 1
    M = from_smash_module(sp, regular_module(sp.carrier, "right"))
    assert M.dim == 1
    # e_N = 1_A acts as the identity
    assert ref.act_a(M, pa.alg.unit, (1,)) == (QQ.one,)
    assert is_irreducible(M) is True


def upper_triangular_f2():
    """T_2 over F_2 on the basis (e11, e12, e22), with unit e11 + e22."""
    mult = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    mult[0][0][0] = mult[0][1][1] = mult[1][2][1] = mult[2][2][2] = 1
    return Algebra(F2, mult, unit=[1, 0, 1])


def test_quotient_module_needs_an_ideal_of_its_side():
    A = upper_triangular_f2()
    # span{e11, e12 + e22} is neither: e11 (e12 + e22) = e12 lies outside it
    with pytest.raises(NotAnIdeal):
        quotient_module(A, Subspace.from_vectors(F2, 3, [[1, 0, 0], [0, 1, 1]]), "left")
    refused = 0
    for I in enumerate_invariant_subspaces(F2, 3, []):
        for side in ("left", "right"):
            if is_ideal(A, I, side):
                assert quotient_module(A, I, side).check().ok
            else:
                with pytest.raises(NotAnIdeal):
                    quotient_module(A, I, side)
                refused += 1
    assert refused == 18


def test_annihilator_regular_and_quotient():
    pa = fix_c()
    sp = build_partial_smash(pa)
    M = from_smash_module(sp, regular_module(sp.carrier, "right"))
    assert annihilator(M).is_zero()
    # M = A/I for the H-stable ideal I = span{e1}: ann = I
    I = [[1, 0, 0]]
    qm = quotient_module(pa.alg, Subspace.from_vectors(QQ, 3, I), "right")
    h_act = [
        [module_act_vec(qm, pa.unit_image(0), mod_basis(qm, j)) for j in range(qm.dim)]
        for _ in range(pa.hopf.dim)
    ]
    # trivial action: m <| h = eps(h) m
    h_act = [
        [tuple(pa.hopf.counit[i] * x for x in mod_basis(qm, j)) for j in range(qm.dim)]
        for i in range(pa.hopf.dim)
    ]
    M2 = PartialModule("right", pa, qm.dim, dense_module_act(qm), h_act)
    assert check_partial_module(M2).ok
    assert annihilator(M2) == Subspace.from_vectors(QQ, 3, I)


def test_annihilator_h_stable_random():
    rng = random.Random(5)
    pa = fix_b(F3)
    sp = build_partial_smash(pa)
    for _ in range(10):
        vec = tuple(rng.randrange(3) for _ in range(sp.carrier.dim))
        I = ideal_closure(sp.carrier, [vec])
        if I.is_full():
            continue
        M = from_smash_module(sp, quotient_module(sp.carrier, I, "right"))
        ann = annihilator(M)
        assert is_h_stable(pa, ann)


def test_ann_relation_smash_vs_partial():
    # ann_A(M) = ann_{A#H}(M) /\ A on the regular module of FIX-B
    pa = fix_b()
    sp = build_partial_smash(pa)
    reg = regular_module(sp.carrier, "right")
    M = from_smash_module(sp, reg)
    ann_a = annihilator(M)
    ann_c = module_annihilator(reg)
    # pull ann_c back along include_A
    incl = sp.include_A.matrix
    pulled = [
        a for a in (solve_left(incl, w) for w in ann_c.rows) if a is not None
    ]
    image_a = Subspace.from_vectors(QQ, 3, [r for r in ann_a.rows])
    inter = ann_c.intersect(Subspace.from_vectors(QQ, sp.carrier.dim, incl.rows))
    back = Subspace.from_vectors(
        QQ, 3, [solve_left(incl, w) for w in inter.rows]
    )
    assert back == image_a


def test_is_irreducible_one_dimensional():
    pa = fix_a()
    sp = build_partial_smash(pa)
    M = from_smash_module(sp, regular_module(sp.carrier, "right"))
    assert is_irreducible(M) is True


def test_is_irreducible_regular_f2xf2_false():
    H2 = group_algebra(F2, GroupTable.cyclic(2))
    pa = trivial_action(H2, product_of_fields(F2, 2))
    sp = build_partial_smash(pa)
    M = from_smash_module(sp, regular_module(sp.carrier, "right"))
    assert is_irreducible(M) is False


def test_is_irreducible_zero_module_raises():
    pa = fix_a()
    with pytest.raises(ZeroModule):
        is_irreducible(PartialModule("right", pa, 0, [[] for _ in range(1)], [[] for _ in range(2)]))


def test_is_irreducible_q_mode():
    pa = fix_c()
    sp = build_partial_smash(pa)
    M = from_smash_module(sp, regular_module(sp.carrier, "right"))
    # regular module of a 6-dim commutative algebra: reducible, detected via basis closure
    assert is_irreducible(M) is False


def test_is_irreducible_q_mode_unknown():
    # regular module of QC2 under the trivial C1-action: every basis vector
    # generates and the image is semiprimitive, but the commutant has
    # dimension 2, so the sufficient conditions cannot decide
    H1 = group_algebra(QQ, GroupTable.cyclic(1))
    A = group_algebra(QQ, GroupTable.cyclic(2)).alg
    pa = trivial_action(H1, A)
    sp = build_partial_smash(pa)
    M = from_smash_module(sp, regular_module(sp.carrier, "right"))
    assert is_irreducible(M) is None


def test_extend_right_module_trivial_action():
    # global trivial case: W = V (x) H
    pa = fix_c(F5)
    V = quotient_module(pa.alg, Subspace.from_vectors(F5, 3, [[0, 1, 0], [0, 0, 1]]), "right")
    ext = extend_right_module(pa, V)
    assert ext.module.dim == V.dim * pa.hopf.dim
    assert check_partial_module(ext.module).ok


def test_extend_right_module_fix_a():
    pa = fix_a()
    V = regular_module(pa.alg, "right")
    ext = extend_right_module(pa, V)
    assert ext.module.dim <= V.dim * pa.hopf.dim
    # (v (x) 1) a = va (x) 1 inside W
    emb = ext.embedding
    for j in range(V.dim):
        for i in range(pa.alg.dim):
            lhs = ref.act_a_basis(ext.module, i, emb.rows[j])
            rhs = emb.apply(ref.module_act_basis(V, i, mod_basis(V, j)))
            assert lhs == rhs


def test_extend_right_module_embedding_fix_b():
    pa = fix_b()
    V = regular_module(pa.alg, "right")
    ext = extend_right_module(pa, V)
    emb = ext.embedding
    assert emb.rank() == V.dim
    rng = random.Random(3)
    for _ in range(10):
        j = rng.randrange(V.dim)
        i = rng.randrange(pa.alg.dim)
        assert ref.act_a_basis(ext.module, i, emb.rows[j]) == emb.apply(ref.module_act_basis(V, i, mod_basis(V, j)))


def test_extension_generated_by_v():
    # W = V <| H: the partial submodule generated by V is everything
    for pa in (fix_b(F5), fix_c(F3)):
        V = quotient_module(
            pa.alg,
            Subspace.from_vectors(pa.field, 3, [[0, 1, 0], [0, 0, 1]]),
            "right",
        )
        ext = extend_right_module(pa, V)
        closure = ref.closure_under_operators(
            pa.field, ext.module.dim, list(ext.embedding.rows), ref.operator_matrices(ext.module)
        )
        assert closure.dim == ext.module.dim


def test_irreducible_extension_fix_b_f5():
    pa = fix_b(F5)
    V = quotient_module(pa.alg, Subspace.from_vectors(F5, 3, [[0, 1, 0], [0, 0, 1]]), "right")
    res = irreducible_extension(pa, V)
    assert is_irreducible(res.module) is True
    assert res.module.dim <= pa.hopf.dim * V.dim
    assert res.embedding.rank() == V.dim


def test_irreducible_extension_trivial_one_dim():
    pa = fix_c(F3, hopf_order=2, alg_dim=2)
    V = quotient_module(pa.alg, Subspace.from_vectors(F3, 2, [[0, 1]]), "right")
    res = irreducible_extension(pa, V)
    assert res.module.dim == 1
    assert is_irreducible(res.module) is True


def test_irreducible_extension_requires_finite_field():
    pa = fix_b()
    V = quotient_module(pa.alg, Subspace.from_vectors(QQ, 3, [[0, 1, 0], [0, 0, 1]]), "right")
    with pytest.raises(FieldNotFinite):
        irreducible_extension(pa, V)


def test_irreducible_extension_rejects_reducible_v():
    pa = fix_b(F5)
    V = regular_module(pa.alg, "right")
    with pytest.raises(NotAModule):
        irreducible_extension(pa, V)


def test_extend_left_module_trivial_action():
    pa = fix_c(F5)
    V = quotient_module(pa.alg, Subspace.from_vectors(F5, 3, [[0, 1, 0], [0, 0, 1]]), "left")
    ext = extend_left_module(pa, V)
    assert check_partial_module(ext.module).ok
    assert ext.module.side == "left"


def test_extend_left_module_fix_a_integral_embedding():
    pa = fix_a()
    V = regular_module(pa.alg, "left")
    ext = extend_left_module(pa, V)
    emb = ext.embedding
    # a . (v (x) lambda) = av (x) lambda
    for j in range(V.dim):
        for i in range(pa.alg.dim):
            lhs = ref.act_a_basis(ext.module, i, emb.rows[j])
            rhs = emb.apply(ref.module_act_basis(V, i, mod_basis(V, j)))
            assert lhs == rhs


def test_extend_left_module_generation():
    pa = fix_b(F5)
    V = quotient_module(pa.alg, Subspace.from_vectors(F5, 3, [[0, 1, 0], [0, 0, 1]]), "left")
    ext = extend_left_module(pa, V)
    closure = ref.closure_under_operators(
        pa.field, ext.module.dim, list(ext.embedding.rows), ref.operator_matrices(ext.module)
    )
    assert closure.dim == ext.module.dim


def test_conversion_rejects_corrupted_module():
    pa = fix_b()
    sp = build_partial_smash(pa)
    M = from_smash_module(sp, regular_module(sp.carrier, "right"))
    h_act = [list(map(tuple, row)) for row in dense_h_act(M)]
    h_act[1][0] = unit_vec(M.field, M.dim, 0)
    bad = PartialModule("right", pa, M.dim, dense_a_act(M), h_act)
    with pytest.raises(AxiomViolation):
        to_smash_module(bad, sp)


def test_dim_bound_on_50_randomized_instances():
    # dim(W) <= dim(H) dim(V) for the right extension, over seeded instances
    from psl.verify import random_partial_action

    rng = random.Random(50)
    built = 0
    while built < 50:
        p = rng.choice([2, 3, 5])
        pa = random_partial_action(rng, GF(p), max_carrier=8)
        A = pa.alg
        vec = tuple(rng.randrange(p) for _ in range(A.dim))
        I = ideal_closure(A, [vec], side="right")
        if I.is_full():
            continue
        V = quotient_module(A, I, "right")
        if V.dim == 0 or V.dim * pa.hopf.dim > 10:
            continue
        ext = extend_right_module(pa, V)
        assert ext.module.dim <= pa.hopf.dim * V.dim
        assert ext.embedding.rank() == V.dim
        built += 1


def test_irreducibility_matches_smash_side():
    # irreducible partial module <=> irreducible smash module (exhaustive, F2/F3)
    rng = random.Random(11)
    count = 0
    for p in (2, 3):
        field = GF(p)
        H2 = group_algebra(field, GroupTable.cyclic(2))
        pa = trivial_action(H2, product_of_fields(field, 2))
        sp = build_partial_smash(pa)
        for _ in range(8):
            vec = tuple(rng.randrange(p) for _ in range(sp.carrier.dim))
            side = "right"
            I = ideal_closure(sp.carrier, [vec], side=side)
            if I.is_full():
                continue
            mod = quotient_module(sp.carrier, I, side)
            if mod.dim == 0:
                continue
            M = from_smash_module(sp, mod)
            partial_irr = is_irreducible(M)
            smash_irr = module_is_irreducible_over_algebra(mod)
            assert partial_irr == smash_irr
            count += 1
    assert count >= 4
