"""Acceptance criteria: one test and one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines.
All comparisons are exact (canonical subspace equality); no tolerances.
"""

import functools
import random
from fractions import Fraction

from psl.algebra import (
    direct_product,
    ideal_closure,
    product_of_fields,
    quotient_algebra,
    span_products,
)
from psl.exactla import GF, QQ, Subspace, enumerate_invariant_subspaces, unit_vec, zero_vec
from psl.hopf import GroupTable, group_algebra, sweedler_h4
from psl.paction import (
    check_partial_action,
    colon_ideal,
    is_global,
    trivial_action,
)
from psl.pmod import (
    annihilator,
    check_partial_module,
    from_smash_module,
    irreducible_extension,
    is_irreducible,
    quotient_module,
    regular_module,
    to_smash_module,
)
from psl.radicals import (
    enumerate_h_stable_ideals,
    h_jacobson_radical,
    h_prime_radical,
    jacobson_radical,
    prime_radical,
)
from psl.smash import build_partial_smash, phi_ideal, psi_ideal
from psl.verify import (
    THEOREMS,
    random_partial_action,
    truncated_polynomial_algebra,
)
from helpers import dense_comul, dense_module_act, dense_mult, fix_a, fix_b, fix_c, fix_d, mult_matrix
from radical_oracle import brute_nilpotent_radical

F2, F3, F5 = GF(2), GF(3), GF(5)


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"{label}: FAIL")
                raise
            print(f"{label}: PASS")
        return wrapper
    return deco


@criterion("AC-1 fixture action tables reproduce exactly")
def test_ac1_fixture_actions():
    pa = fix_a()
    # p_g . e_N = (1/|N|) e_N = (1/2) e_N for every g in N = C_2
    e_N = pa.alg.unit
    for i in range(pa.hopf.dim):
        assert pa.act_basis(i, e_N) == tuple(Fraction(1, 2) * x for x in e_N)
    assert check_partial_action(pa).ok
    assert not is_global(pa)

    pb = fix_b()
    e = [unit_vec(QQ, 3, j) for j in range(3)]
    z = tuple(zero_vec(QQ, 3))
    table = {
        (1, 0): z, (1, 1): e[0], (1, 2): e[1],
        (2, 0): e[2], (2, 1): z, (2, 2): e[0],
        (3, 0): e[1], (3, 1): e[2], (3, 2): z,
    }
    for (i, j), want in table.items():
        assert pb.act_basis(i, e[j]) == want
    assert check_partial_action(pb).ok
    assert not is_global(pb)


def brute_projection_span(pa):
    """Oracle: span of all (a#h)(1#1) = sum a(h1 . 1_A) # h2, expanded by hand."""
    H, A = pa.hopf, pa.alg
    m, n = H.dim, A.dim
    vecs = []
    for j in range(n):
        for i in range(m):
            out = list(zero_vec(pa.field, n * m))
            for p in range(m):
                for q in range(m):
                    c = dense_comul(H)[i][p][q]
                    if not c:
                        continue
                    apart = A.multiply(A.basis_vector(j), pa.unit_image(p))
                    for t, xa in enumerate(apart):
                        if xa:
                            out[t * m + q] = out[t * m + q] + c * xa
            vecs.append(tuple(out))
    return Subspace.from_vectors(pa.field, n * m, vecs)


@criterion("AC-2 partial smash dimensions with independent oracle")
def test_ac2_smash_dimensions():
    for pa, expected in ((fix_a(), 1), (fix_b(), 9)):
        sp = build_partial_smash(pa)
        assert sp.carrier.dim == expected
        oracle = brute_projection_span(pa)
        assert oracle.dim == expected
        assert oracle == Subspace.from_vectors(pa.field, sp.full.dim, sp.coords.rows)
        C = sp.carrier
        for i in range(C.dim):
            b = C.basis_vector(i)
            assert C.multiply(C.unit, b) == b and C.multiply(b, C.unit) == b
            for j in range(C.dim):
                for k in range(C.dim):
                    lhs = C.multiply(dense_mult(C)[i][j], C.basis_vector(k))
                    rhs = C.multiply(C.basis_vector(i), dense_mult(C)[j][k])
                    assert lhs == rhs


@criterion("AC-3 semiprimitivity instance: J(FIX-B carrier) = 0")
def test_ac3_fix_b_semiprimitive():
    sp = build_partial_smash(fix_b())
    assert sp.carrier.dim == 9
    assert jacobson_radical(sp.carrier).radical.is_zero()


@criterion("AC-4 equivariant radical transfer on fixtures + 100 random instances")
def test_ac4_radical_transfer():
    rj = THEOREMS["T4.26"].run(seed=2026, trials=100)
    assert rj.ok, rj.summary()
    rp = THEOREMS["T4.14"].run(seed=2026, trials=100)
    assert rp.ok, rp.summary()
    assert len(rj.cases) >= 208 and len(rp.cases) >= 208


@criterion("AC-5 necessity of semisimplicity")
def test_ac5_non_semisimple_controls():
    sp_d = build_partial_smash(fix_d())
    rep = jacobson_radical(sp_d.carrier)
    assert rep.radical.dim == 1
    # the radical is the image of span{1+g}: its square is zero
    assert rep.nilpotency_index == 2

    pa_s = trivial_action(sweedler_h4(QQ), product_of_fields(QQ, 1))
    sp_s = build_partial_smash(pa_s)
    assert sp_s.carrier.dim == 4
    assert jacobson_radical(sp_s.carrier).radical.dim == 2


@criterion("AC-6 exhaustive ideal correspondence on finite-field fixtures")
def test_ac6_ideal_correspondence_exhaustive():
    from psl.paction import c4_triple

    cases = [
        fix_d(),
        c4_triple(F2),
        trivial_action(group_algebra(F3, GroupTable.cyclic(2)), product_of_fields(F3, 2)),
        trivial_action(group_algebra(F2, GroupTable.cyclic(2)),
                       group_algebra(F2, GroupTable.cyclic(2)).alg),
    ]
    for pa in cases:
        sp = build_partial_smash(pa)
        ideals = enumerate_h_stable_ideals(pa, dim_cap=6, field_cap=5)
        images = [phi_ideal(sp, I) for I in ideals]
        for I, im in zip(ideals, images):
            assert psi_ideal(sp, im) == I  # Psi o Phi = id
        dual_ideals = enumerate_h_stable_ideals(
            sp.dual_action, dim_cap=sp.carrier.dim, field_cap=5
        )
        assert len(dual_ideals) == len(ideals)
        for J in dual_ideals:
            assert phi_ideal(sp, psi_ideal(sp, J)) == J  # Phi o Psi = id
        for i, I in enumerate(ideals):
            for j, J in enumerate(ideals):
                assert phi_ideal(sp, I + J) == images[i] + images[j]
                assert phi_ideal(sp, I.intersect(J)) == images[i].intersect(images[j])
                prod = span_products(pa.alg, I, J)
                assert phi_ideal(sp, prod) == span_products(sp.carrier, images[i], images[j])


@criterion("AC-7 (rad(A):H) = rad(A#H) /\\ A on fixtures and random instances")
def test_ac7_colon_equals_intersection():
    rj = THEOREMS["P4.20"].run(seed=11, trials=40)
    assert rj.ok, rj.summary()
    rp = THEOREMS["C4.13-INT"].run(seed=11, trials=40)
    assert rp.ok, rp.summary()


@criterion("AC-8 module machinery: conversions, annihilators, irreducible extensions")
def test_ac8_module_machinery():
    rng = random.Random(408)
    converted = 0
    tries = 0
    while converted < 100 and tries < 400:
        tries += 1
        p = rng.choice([2, 3, 5])
        pa = random_partial_action(rng, GF(p), max_carrier=8)
        sp = build_partial_smash(pa)
        C = sp.carrier
        side = rng.choice(["right", "left"])
        kind = rng.randrange(3)
        if kind == 0:
            mod = regular_module(C, side)
        else:
            vec = tuple(rng.randrange(p) for _ in range(C.dim))
            I = ideal_closure(C, [vec], side=side if kind == 1 else "two_sided")
            if I.is_full():
                continue
            mod = quotient_module(C, I, side)
            if mod.dim == 0:
                continue
        M = from_smash_module(sp, mod)
        assert check_partial_module(M).ok
        back = to_smash_module(M, sp)
        assert dense_module_act(back) == dense_module_act(mod)  # conversion round trip
        ann = annihilator(M)  # asserts internally that ann is an H-stable ideal
        assert ann.ambient == pa.alg.dim
        converted += 1
    assert converted >= 100

    # irreducible extensions over F_5 with the dim(M) <= dim(H) dim(V) bound
    rng5 = random.Random(417)
    built = 0
    tries = 0
    while built < 25 and tries < 300:
        tries += 1
        pa = random_partial_action(rng5, F5, max_carrier=8)
        A = pa.alg
        if A.dim * pa.hopf.dim > 6 and A.dim > 1:
            continue
        right_ops = [mult_matrix(A, A.basis_vector(i), left=False) for i in range(A.dim)]
        right_ideals = enumerate_invariant_subspaces(F5, A.dim, right_ops)
        proper = [I for I in right_ideals if I.dim < A.dim]
        maximal = [I for I in proper if not any(I is not J and I <= J for J in proper)]
        m = maximal[rng5.randrange(len(maximal))]
        V = quotient_module(A, m, "right")
        if V.dim * pa.hopf.dim > 5:
            continue
        res = irreducible_extension(pa, V)
        assert is_irreducible(res.module) is True
        assert res.module.dim <= pa.hopf.dim * V.dim
        assert res.embedding.rank() == V.dim
        built += 1
    assert built >= 25


@criterion("AC-9 radical engine cross-validation")
def test_ac9_radical_cross_validation():
    rng = random.Random(409)
    algebras = []
    for p in (5, 7, 11, 13):
        field = GF(p)
        for n in range(2, min(p, 7)):
            algebras.append(group_algebra(field, GroupTable.cyclic(n)).alg)
        for k in (2, 3, 4):
            algebras.append(truncated_polynomial_algebra(field, k))
        algebras.append(
            direct_product(
                truncated_polynomial_algebra(field, 2),
                group_algebra(field, GroupTable.cyclic(2)).alg,
            )
        )
        algebras.append(
            direct_product(
                truncated_polynomial_algebra(field, 2),
                truncated_polynomial_algebra(field, 2),
            )
        )
        algebras.append(
            direct_product(product_of_fields(field, 2), truncated_polynomial_algebra(field, 2))
        )
        algebras.append(
            direct_product(product_of_fields(field, 1), truncated_polynomial_algebra(field, 3))
        )
        for n in (3, 4, 5, 6):
            A = group_algebra(field, GroupTable.cyclic(n)).alg
            gen = [0] * n
            gen[0], gen[1] = 1, -1
            I = ideal_closure(A, [tuple(gen)])
            algebras.append(quotient_algebra(A, I)[0])
    checked = 0
    for A in algebras:
        if A.dim == 0 or A.field.char <= A.dim:
            continue
        rep = jacobson_radical(A)
        assert rep.method == "trace-form"
        assert brute_nilpotent_radical(A) == rep.radical
        Q, _ = quotient_algebra(A, rep.radical)
        assert jacobson_radical(Q).radical.is_zero()  # J(A/J(A)) = 0
        checked += 1
    assert checked >= 50, f"only {checked} cross-validation instances"

    # J(A/J(A)) = 0 also over Q and small characteristic
    for A in (
        sweedler_h4(QQ).alg,
        group_algebra(F2, GroupTable.cyclic(2)).alg,
        group_algebra(F3, GroupTable.cyclic(3)).alg,
        truncated_polynomial_algebra(QQ, 4),
    ):
        J = jacobson_radical(A).radical
        Q, _ = quotient_algebra(A, J)
        assert jacobson_radical(Q).radical.is_zero()
