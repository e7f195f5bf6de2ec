"""Structure-constant algebras: multiplication, ideals, quotients, nilpotency."""

import random

import pytest

from psl.algebra import (
    MAX_GROUP_ORDER,
    Algebra,
    AlgebraTooLarge,
    NotAnIdeal,
    check_algebra,
    direct_product,
    ideal_closure,
    is_ideal,
    nilpotency_index,
    product_of_fields,
    quotient_algebra,
    span_products,
)
from psl.exactla import GF, QQ, Subspace, unit_vec, zero_vec
from psl.hopf import GroupTable, group_algebra
from helpers import dense_mult, rand_vec

F2 = GF(2)
QC4 = group_algebra(QQ, GroupTable.cyclic(4)).alg
F2C2 = group_algebra(F2, GroupTable.cyclic(2)).alg
A3 = product_of_fields(QQ, 3)
# FIX-A carrier: the one-dimensional algebra spanned by an idempotent
A_EN = Algebra(QQ, [[[1]]], unit=[1], labels=["e_N"])


def power_chain_nilpotent(A, I, cap):
    """Oracle: span of all left-associated m-fold products of basis rows."""
    for m in range(1, cap + 1):
        vecs = []
        stack = [(v, 1) for v in I.rows]
        # enumerate all products of exactly m basis rows
        def extend(prefixes):
            return [A.multiply(p, v) for p in prefixes for v in I.rows]

        prods = list(I.rows)
        for _ in range(m - 1):
            prods = extend(prods)
        vecs.extend(prods)
        if Subspace.from_vectors(A.field, A.dim, vecs).is_zero():
            return True
    return False


def test_multiply_unit_law():
    rng = random.Random(1)
    x = rand_vec(rng, QQ, 3)
    assert A3.multiply(A3.unit, x) == x
    assert A3.multiply(x, A3.unit) == x


def test_multiply_componentwise_idempotents():
    e1 = A3.basis_vector(0)
    e2 = A3.basis_vector(1)
    assert A3.multiply(e1, e2) == zero_vec(A3.field, A3.dim)
    assert A3.multiply(e1, e1) == e1


def test_multiply_f2c2_nilpotent_element():
    # (1+g)^2 = 1 + 2g + g^2 = 2(1+g) = 0 over F_2
    x = (1, 1)
    assert F2C2.multiply(x, x) == zero_vec(F2C2.field, F2C2.dim)


def test_check_algebra_group_algebra_passes():
    assert check_algebra(QC4).ok


def test_check_algebra_corrupted_tensor():
    mult = [list(map(list, row)) for row in dense_mult(QC4)]
    mult[0][0][0] = 7
    bad = Algebra(QQ, mult, unit=QC4.unit)
    report = check_algebra(bad)
    assert not report.ok
    assert any("(0,0,0)" in f or "(0, 0, 0)" in f for f in report.failures) or any(
        "0,0" in f for f in report.failures
    )


def test_check_algebra_dim_one():
    assert check_algebra(A_EN).ok


def test_ideal_closure_of_unit_is_everything():
    full = ideal_closure(QC4, [QC4.unit])
    assert full.is_full()


def test_ideal_closure_idempotent_component():
    c = ideal_closure(A3, [A3.basis_vector(0)])
    assert c == Subspace.from_vectors(QQ, 3, [[1, 0, 0]])


def test_ideal_closure_f2c2():
    c = ideal_closure(F2C2, [(1, 1)])
    assert c == Subspace.from_vectors(F2, 2, [[1, 1]])


def test_ideal_closure_is_closed():
    rng = random.Random(42)
    for A in (QC4, F2C2, A3):
        gens = [rand_vec(rng, A.field, A.dim) for _ in range(2)]
        I = ideal_closure(A, gens)
        for v in I.rows:
            for i in range(A.dim):
                assert I.contains(A.multiply(A.basis_vector(i), v))
                assert I.contains(A.multiply(v, A.basis_vector(i)))


def test_quotient_by_zero_is_identity():
    Q, proj = quotient_algebra(A3, Subspace.zero_space(QQ, 3))
    assert Q == A3
    assert proj.is_injective() and proj.is_multiplicative()


def test_quotient_by_everything_is_zero():
    Q, _ = quotient_algebra(A3, Subspace.full_space(QQ, 3))
    assert Q.dim == 0


def test_quotient_f2c2_by_radical():
    I = Subspace.from_vectors(F2, 2, [[1, 1]])
    Q, proj = quotient_algebra(F2C2, I)
    assert Q.dim == 1
    assert Q.unit == (F2.one,)
    assert Q.multiply(Q.unit, Q.unit) == Q.unit
    assert proj.is_multiplicative()


def test_quotient_rejects_non_ideal():
    # span{1} is not an ideal of QC4
    with pytest.raises(NotAnIdeal):
        quotient_algebra(QC4, Subspace.from_vectors(QQ, 4, [[1, 0, 0, 0]]))


def test_quotient_projection_properties_random():
    rng = random.Random(9)
    I = ideal_closure(QC4, [(1, 0, -1, 0)])  # proper ideal: (1 - g^2)
    Q, proj = quotient_algebra(QC4, I)
    assert proj.matrix.left_kernel() == I
    for _ in range(20):
        x = rand_vec(rng, QQ, 4)
        y = rand_vec(rng, QQ, 4)
        assert proj.apply(QC4.multiply(x, y)) == Q.multiply(proj.apply(x), proj.apply(y))


def test_nilpotent_trivial_cases():
    assert nilpotency_index(A3, Subspace.zero_space(QQ, 3)) is not None
    unit_span = Subspace.from_vectors(QQ, 3, [A3.unit])
    assert nilpotency_index(A3, unit_span) is None


def test_nilpotent_f2c2_radical():
    I = Subspace.from_vectors(F2, 2, [[1, 1]])
    assert nilpotency_index(F2C2, I) == 2


def test_nilpotent_exhaustive_f2c2_vs_power_chain():
    # all subspaces of F_2C_2: 0, three lines, full plane
    spans = [[], [(1, 0)], [(0, 1)], [(1, 1)], [(1, 0), (0, 1)]]
    for vecs in spans:
        I = Subspace.from_vectors(F2, 2, vecs)
        assert (nilpotency_index(F2C2, I) is not None) == power_chain_nilpotent(F2C2, I, F2C2.dim + 1)


def test_direct_product_reproduces_componentwise():
    one = product_of_fields(QQ, 1)
    prod = direct_product(direct_product(one, one), one)
    assert prod == A3
    for i in range(3):
        e = prod.basis_vector(i)
        assert prod.multiply(e, e) == e


def test_direct_product_with_zero_dim():
    zero_alg = Algebra(QQ, [], unit=[])
    assert direct_product(A3, zero_alg) == A3


def test_associativity_random_elements():
    rng = random.Random(77)
    for A in (QC4, A3, F2C2):
        for _ in range(10):
            x = rand_vec(rng, A.field, A.dim)
            y = rand_vec(rng, A.field, A.dim)
            z = rand_vec(rng, A.field, A.dim)
            assert A.multiply(A.multiply(x, y), z) == A.multiply(x, A.multiply(y, z))


def test_span_products_and_is_ideal():
    I = ideal_closure(QC4, [(1, 0, -1, 0)])
    assert is_ideal(QC4, I)
    sq = span_products(QC4, I, I)
    assert sq <= I


def test_product_of_fields_refuses_k_above_the_cap_before_building():
    with pytest.raises(AlgebraTooLarge, match="k = 1000000 exceeds the cap"):
        product_of_fields(QQ, 10 ** 6)
    A = product_of_fields(F2, MAX_GROUP_ORDER)
    assert A.dim == MAX_GROUP_ORDER and check_algebra(product_of_fields(QQ, 4)).ok


@pytest.mark.parametrize("field", [QQ, F2], ids=repr)
def test_product_of_fields_equals_its_public_twin(field):
    k = 4
    mult = [[unit_vec(field, k, i) if i == j else (field.zero,) * k for j in range(k)] for i in range(k)]
    twin = Algebra(field, mult, unit=(field.one,) * k, labels=[f"e{i+1}" for i in range(k)])
    A = product_of_fields(field, k)
    assert A == twin and hash(A) == hash(twin) and dense_mult(A) == dense_mult(twin) and A.labels == twin.labels


def dense_direct_product(A, B):
    """Oracle: A x B by the public constructor on the dense block-diagonal tensor."""
    n, m, z = A.dim, B.dim, A.field.zero
    mult = [
        [
            list(dense_mult(A)[i][j]) + [z] * m if i < n and j < n
            else [z] * n + list(dense_mult(B)[i - n][j - n]) if i >= n and j >= n
            else [z] * (n + m)
            for j in range(n + m)
        ]
        for i in range(n + m)
    ]
    unit = None if A.unit is None or B.unit is None else list(A.unit) + list(B.unit)
    labels = [f"{l}.1" for l in A.labels] + [f"{l}.2" for l in B.labels]
    return Algebra(A.field, mult, unit=unit, labels=labels)


def scaled_idempotent(field):
    """Non-unital: e0 * e0 = c e0 (c = 1/2 over Q, -1 over F_p), every other product 0."""
    c = field.of("1/2") if field.char == 0 else field.of(-1)
    z = field.zero
    return Algebra(field, [[[c, z], [z, z]], [[z, z], [z, z]]], labels=["s", "n"])


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)], ids=repr)
def test_direct_product_equals_its_public_twin(field):
    factors = [
        product_of_fields(field, 2),
        group_algebra(field, GroupTable.cyclic(3)).alg,
        scaled_idempotent(field),
        Algebra(field, [], unit=[]),
    ]
    for A in factors:
        for B in factors:
            P, twin = direct_product(A, B), dense_direct_product(A, B)
            assert P == twin and hash(P) == hash(twin)
            # repr tells a Fraction from an int, which == and hash do not
            assert repr(P.terms) == repr(twin.terms) and repr(dense_mult(P)) == repr(dense_mult(twin))
            assert repr(P.unit) == repr(twin.unit) and P.labels == twin.labels
            assert (P.unit is None) == (A.unit is None or B.unit is None)
            assert check_algebra(P).ok
