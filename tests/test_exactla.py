"""Exact linear algebra: RREF, kernels, subspace lattice ops."""

import random
from fractions import Fraction

import pytest

from psl.exactla import (
    GF,
    QQ,
    AmbientMismatch,
    FieldMismatch,
    Matrix,
    Subspace,
    _Echelon,
    _projective_raw,
    _spin,
    unit_vec,
)
from boxed_reference import rref_span
from helpers import all_vectors, lift, rand_matrix, rand_subspace, rand_vec, rref, solve_left

F2 = GF(2)
F5 = GF(5)


def brute_kernel_fp(m: Matrix) -> Subspace:
    """Oracle: enumerate all vectors of F_p^n and keep those killed by m."""
    sols = [v for v in all_vectors(m.field, m.ncols) if not any(m.transpose().apply(v))]
    return Subspace.from_vectors(m.field, m.ncols, sols)


def test_rref_identity():
    m = Matrix.identity(QQ, 3)
    red, rank = rref(m)
    assert red == m and rank == 3


def test_rref_zero():
    m = Matrix(QQ, [[0] * 4] * 2)
    red, rank = rref(m)
    assert red == m and rank == 0


def test_rref_hand_elimination():
    m = Matrix(QQ, [[2, 4], [1, 2]])
    red, rank = rref(m)
    assert red == Matrix(QQ, [[1, 2], [0, 0]])
    assert rank == 1


def test_rref_idempotent_random():
    rng = random.Random(11)
    for field in (QQ, F2, F5):
        for _ in range(20):
            m = rand_matrix(rng, field, rng.randint(1, 5), rng.randint(1, 5))
            red, rank = rref(m)
            red2, rank2 = rref(red)
            assert red2 == red and rank2 == rank


def test_kernel_identity_and_zero():
    assert Matrix.identity(QQ, 4).transpose().left_kernel().is_zero()
    k = Matrix(QQ, [[0] * 3] * 2).transpose().left_kernel()
    assert k == Subspace.full_space(QQ, 3)


def test_kernel_f2_enumeration_oracle():
    m = Matrix(F2, [[1, 1]])
    expected = brute_kernel_fp(m)
    assert expected == Subspace.from_vectors(F2, 2, [[1, 1]])
    assert m.transpose().left_kernel() == expected


def test_kernel_rank_nullity_random():
    rng = random.Random(23)
    for field in (QQ, F2, F5):
        for _ in range(25):
            m = rand_matrix(rng, field, rng.randint(1, 5), rng.randint(1, 5))
            assert m.transpose().left_kernel().dim + m.rank() == m.ncols


def test_kernel_matches_enumeration_random_f2():
    rng = random.Random(5)
    for _ in range(10):
        m = rand_matrix(rng, F2, rng.randint(1, 3), rng.randint(1, 4))
        assert m.transpose().left_kernel() == brute_kernel_fp(m)


def test_sum_and_intersect_trivial():
    u = Subspace.from_vectors(QQ, 2, [[1, 0]])
    zero = Subspace.zero_space(QQ, 2)
    full = Subspace.full_space(QQ, 2)
    assert u + zero == u
    assert u.intersect(full) == u
    v = Subspace.from_vectors(QQ, 2, [[0, 1]])
    assert u.intersect(v).is_zero()


def test_sum_rank_oracle():
    u = Subspace.from_vectors(QQ, 2, [[1, 1]])
    v = Subspace.from_vectors(QQ, 2, [[1, 0]])
    s = u + v
    # oracle: rank of the stacked basis
    assert Matrix(QQ, [[1, 1], [1, 0]]).rank() == 2
    assert s == Subspace.full_space(QQ, 2)


def test_contains_sum_basis_rows():
    rng = random.Random(7)
    for field in (QQ, F5):
        for _ in range(15):
            u = rand_subspace(rng, field, 4, rng.randint(0, 3))
            v = rand_subspace(rng, field, 4, rng.randint(0, 3))
            s = u + v
            for row in u.rows + v.rows:
                assert s.contains(row)


def test_modular_law_f5():
    # U <= W  =>  U + (V /\ W) = (U + V) /\ W
    rng = random.Random(97)
    for _ in range(40):
        u = rand_subspace(rng, F5, 4, rng.randint(0, 2))
        v = rand_subspace(rng, F5, 4, rng.randint(0, 3))
        extra = rand_subspace(rng, F5, 4, rng.randint(0, 2))
        w = u + extra
        assert u + v.intersect(w) == (u + v).intersect(w)


def test_intersection_is_lower_bound():
    rng = random.Random(3)
    for _ in range(20):
        u = rand_subspace(rng, F2, 5, rng.randint(0, 4))
        v = rand_subspace(rng, F2, 5, rng.randint(0, 4))
        w = u.intersect(v)
        assert w <= u and w <= v
        assert w == v.intersect(u)


def test_coords_and_lift_roundtrip():
    rng = random.Random(31)
    for field in (QQ, F5):
        for _ in range(10):
            u = rand_subspace(rng, field, 5, 3)
            coords = rand_vec(rng, field, u.dim)
            vec = lift(u, coords)
            assert u.coords_of(vec) == coords
    u = Subspace.from_vectors(QQ, 3, [[1, 0, 0]])
    assert u.coords_of((0, 1, 0)) is None


def test_field_mismatch_errors():
    mq = Matrix(QQ, [[1, 2]])
    m2 = Matrix(F2, [[1, 0]])
    with pytest.raises(FieldMismatch):
        mq + m2
    with pytest.raises(FieldMismatch):
        Subspace.from_vectors(QQ, 2, [[1, 0]]).intersect(Subspace.from_vectors(F2, 2, [[1, 0]]))
    # foreign scalar types are rejected where they enter a container
    with pytest.raises(FieldMismatch):
        Matrix(F2, [[Fraction(1), 0]])
    with pytest.raises(FieldMismatch):
        Subspace.from_vectors(F5, 2, [[1, 0.5]])
    with pytest.raises(FieldMismatch):
        Matrix(QQ, [[1.0, 2]])
    for field in (QQ, F2, F5):
        with pytest.raises(FieldMismatch):
            field.of(0.5)
    with pytest.raises(FieldMismatch):
        F5.of(Fraction(1))


def test_ambient_mismatch_errors():
    u = Subspace.from_vectors(QQ, 2, [[1, 0]])
    v = Subspace.from_vectors(QQ, 3, [[1, 0, 0]])
    with pytest.raises(AmbientMismatch):
        u + v
    with pytest.raises(AmbientMismatch):
        u.contains((1, 0, 0))


def test_scalar_semantics():
    """Scalars are canonical: ints in [0, p) over F_p; over Q an int where integral, else a Fraction."""
    assert F5.of(7) == 2 and F5.of(-3) == 2 and F5.of("12") == 2
    assert type(F5.of(True)) is int and F5.zero == 0 and F5.one == 1
    assert (Matrix(F5, [[3]]) * Matrix(F5, [[2]])).rows == ((1,),)  # 3 * 2 = 6 = 1
    assert Fraction(2, 4) == Fraction(1, 2)
    assert QQ.of("3/6") == Fraction(1, 2)
    assert type(QQ.of(3)) is int and QQ.of(0) == QQ.zero
    with pytest.raises(ZeroDivisionError):
        QQ.of("1/0")


def test_rational_scalar_contract():
    # an int where integral, whatever the input's type; a Fraction only with denominator > 1
    for x, value in ((3, 3), (True, 1), ("6/3", 2), (Fraction(4, 2), 2), (Fraction(0), 0)):
        assert type(QQ.of(x)) is int and QQ.of(x) == value, x
    half = QQ.of("1/2")
    assert type(half) is Fraction and half == Fraction(1, 2)
    with pytest.raises(FieldMismatch):
        QQ.of(0.5)
    # the strings QQ printed when every scalar was a Fraction
    for text, printed in (("-3/2", "-3/2"), ("0", "0"), ("2", "2"), ("6/4", "3/2"), ("-4/2", "-2")):
        assert QQ.format_scalar(QQ.of(text)) == printed
    assert [QQ.format_scalar(x) for x in (QQ.zero, QQ.one)] == ["0", "1"]


def test_projective_vectors_count():
    assert len(list(_projective_raw(2, 4))) == 2**4 - 1
    assert len(list(_projective_raw(5, 2))) == (5**2 - 1) // 4


def test_unit_vec_and_full_space():
    full = Subspace.full_space(F2, 3)
    assert all(full.contains(unit_vec(F2, 3, i)) for i in range(3))
    assert full.dim == 3


@pytest.mark.parametrize("field", [QQ, F2], ids=repr)
def test_solve_left_without_rows(field):
    """x @ M = t for a matrix with no rows: only the zero target is solvable."""
    empty = Matrix(field, [], ncols=2)
    assert solve_left(empty, (0, 0)) == ()
    assert solve_left(empty, (1, 0)) is None
    assert solve_left(empty, (0, 1)) is None
    assert solve_left(Matrix(field, [], ncols=0), ()) == ()


@pytest.mark.parametrize("field", [QQ, F2], ids=repr)
def test_transpose_keeps_both_dimensions(field):
    """An m x n matrix transposes to n x m, with no rows or no columns too, and back."""
    t = Matrix(field, [], ncols=3).transpose()
    assert (t.nrows, t.ncols, t.rows) == (3, 0, ((), (), ()))
    back = t.transpose()
    assert (back.nrows, back.ncols) == (0, 3)
    assert back == Matrix(field, [], ncols=3)
    m = Matrix(field, [[1, 0, 1], [0, 1, 1]])
    assert m.transpose() == Matrix(field, [[1, 0], [0, 1], [1, 1]])
    assert m.transpose().transpose() == m
    empty = Matrix(field, [], ncols=0).transpose()
    assert (empty.nrows, empty.ncols) == (0, 0)


def echelon_inputs(rng, field, n):
    """Random, sparse (most entries zero) and dependent vectors of F^n."""
    vecs = []
    for _ in range(rng.randint(0, n + 2)):
        kind = rng.randrange(3)
        if kind == 0 and vecs:
            a, b = rng.choice(vecs), rng.choice(vecs)
            vecs.append(tuple(field.of(x + 2 * y) for x, y in zip(a, b)))
        elif kind == 1:
            vecs.append(tuple(x if rng.random() < 0.3 else field.zero for x in rand_vec(rng, field, n)))
        else:
            vecs.append(rand_vec(rng, field, n))
    return vecs


@pytest.mark.parametrize("field", [QQ, F2, GF(3), F5], ids=repr)
def test_echelon_span_back_substitution_matches_rref(field):
    # rows are cleared at the pivots of rows added after them, or left as added;
    # the span must be the RREF of one Gauss-Jordan elimination of all the vectors, scalar types included,
    # and so must `Subspace._span` of them unreduced, which stops once it holds n rows
    rng = random.Random(field.char + 11)
    for n in range(1, 9):
        for _ in range(12):
            vecs = echelon_inputs(rng, field, n)
            basis = _Echelon(field.char)
            for v in vecs:
                basis.add(list(v))
            want = rref_span(field, n, vecs)
            raw = [[x + field.char * rng.randint(-2, 2) for x in v] for v in vecs]
            for got in (basis.span(field, n), Subspace._span(field, n, raw)):
                assert got == want and got.pivots == want.pivots
                assert [type(x) for row in got.rows for x in row] == [type(x) for row in want.rows for x in row]
            assert Matrix(field, raw, ncols=n).rank() == want.dim


def cycle(n, length):
    """Sparse operator sending e_l to e_(l+1 mod length) for l < length, fixing the rest of F^n."""
    return tuple((((l + 1) % length, 1),) if l < length else ((l, 1),) for l in range(n))


def scalar_types(space):
    return [type(x) for row in space.rows for x in row]


@pytest.mark.parametrize("field", [QQ, F2, F5], ids=repr)
def test_spin_that_reaches_the_full_space_returns_the_canonical_one(field):
    # the spin stops at n rows; what it returns must be what one Gauss-Jordan elimination of the identity gives
    one, zero = field.one, field.zero
    for n in range(1, 7):
        identity = [[one if i == j else zero for j in range(n)] for i in range(n)]
        want = rref_span(field, n, identity)
        for seeds, ops in (([identity[0]], [cycle(n, n)]), (identity, []), ([identity[-1]] + identity, [cycle(n, n)])):
            got = _spin(field, n, [list(v) for v in seeds], ops)
            assert got == want and got.pivots == want.pivots
            assert scalar_types(got) == scalar_types(want)
            assert type(got.rows) is tuple and all(type(row) is tuple for row in got.rows)
            assert hash(got) == hash(want)


@pytest.mark.parametrize("field", [QQ, F2, F5], ids=repr)
def test_spin_of_an_invariant_hyperplane_is_not_the_full_space(field):
    # e_0 cycles through e_0, ..., e_(n-2) and never reaches e_(n-1): the spin ends one row short of n
    one, zero = field.one, field.zero
    for n in range(2, 7):
        units = [[one if i == j else zero for j in range(n)] for i in range(n)]
        got = _spin(field, n, [units[0]], [cycle(n, n - 1)])
        assert got == Subspace._span(field, n, units[:-1]) and got.dim == n - 1


@pytest.mark.parametrize("field", [QQ, F2, F5], ids=repr)
def test_identity_rows_are_shared_and_immutable(field):
    for n in range(5):
        full, identity = Subspace.full_space(field, n), Matrix.identity(field, n)
        assert full.rows is identity.rows
        assert type(full.rows) is tuple and all(type(row) is tuple for row in full.rows)
        assert full == Subspace._span(field, n, identity.rows) == rref_span(field, n, identity.rows)
        assert scalar_types(full) == [type(field.one)] * (n * n)
