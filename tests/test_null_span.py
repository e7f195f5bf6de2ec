"""`exactla._null_span` and the null spaces built on it, against independent oracles.

`_null_span(field, left, right, n_left, n_right)` is span{sum_r x_r right_r :
sum_r x_r left_r = 0}.  Over F_2 and F_3 the oracle enumerates every x; over Q
it is sympy's `nullspace`.  Left kernels, intersections and preimages are
checked against brute force over F_3 and against the free-column kernel of the
boxed Gauss-Jordan `_rref`, and every answer must be the RREF that `_rref`
gives, with the same pivots and scalar types.  Blocks of every width from 0
to 5 are drawn: no rows, zero rows, full-rank rows and dependent rows.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from psl.exactla import GF, QQ, Matrix, _null_span, preimage_under
from boxed_reference import rref_kernel, rref_span
from helpers import rand_matrix, rand_scalar, rand_subspace, rand_vec

F2, F3, F5 = GF(2), GF(3), GF(5)
KINDS = ("zero", "full-rank", "dependent", "random")


def block(rng, field, k, width, kind):
    """k rows of F^width: all zero, unit rows first, sums of earlier rows, or random."""
    zero = [field.zero] * width
    rows = []
    for r in range(k):
        if kind == "zero":
            rows.append(list(zero))
        elif kind == "full-rank" and r < width:
            rows.append([field.one if j == r else x for j, x in enumerate(rand_vec(rng, field, width))])
            rows[-1][:r] = zero[:r]
        elif kind == "dependent" and r >= 2:
            a, b = rng.sample(rows, 2)
            c = rand_scalar(rng, field)
            rows.append([field.of(x + c * y) if field.char else x + c * y for x, y in zip(a, b)])
        else:
            rows.append(list(rand_vec(rng, field, width)))
    return rows


def cases(rng, field):
    """(left, right, n_left, n_right) for every size up to 5 rows and widths up to 5."""
    for k, n_left, n_right in product(range(6), range(6), range(6)):
        kind_l, kind_r = rng.choice(KINDS), rng.choice(KINDS)
        yield block(rng, field, k, n_left, kind_l), block(rng, field, k, n_right, kind_r), n_left, n_right


def combination(x, rows, width, p):
    return [sum(c * row[j] for c, row in zip(x, rows)) % p for j in range(width)]


def brute_null_span(field, left, right, n_left, n_right):
    """Every x of F_p^k with a zero left combination, its right combination spanned by `_rref`."""
    p = field.char
    vecs = [
        combination(x, right, n_right, p)
        for x in product(range(p), repeat=len(left))
        if not any(combination(x, left, n_left, p))
    ]
    return rref_span(field, n_right, vecs)


def scalar_types(space):
    return [type(x) for row in space.rows for x in row]


def assert_same_rref(got, want):
    assert got == want and got.pivots == want.pivots and got.ambient == want.ambient
    assert scalar_types(got) == scalar_types(want)
    assert type(got.rows) is tuple and all(type(row) is tuple for row in got.rows)


@pytest.mark.parametrize("field", [F2, F3], ids=repr)
def test_null_span_matches_enumeration(field):
    # over F_p the kernel also takes entries off [0, p); the answer is that of the reduced rows
    rng = random.Random(field.char + 40)
    p = field.char
    for left, right, n_left, n_right in cases(rng, field):
        want = brute_null_span(field, left, right, n_left, n_right)
        assert_same_rref(_null_span(field, left, right, n_left, n_right), want)
        raw_left = [[x + p * rng.randint(-2, 2) for x in row] for row in left]
        raw_right = [[x + p * rng.randint(-2, 2) for x in row] for row in right]
        assert_same_rref(_null_span(field, raw_left, raw_right, n_left, n_right), want)


def test_null_span_matches_sympy_over_q():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(42)
    for left, right, n_left, n_right in cases(rng, QQ):
        k = len(left)
        L = sympy.Matrix(k, n_left, [sympy.Rational(x.numerator, x.denominator) for row in left for x in row])
        xs = [[Fraction(int(c.p), int(c.q)) for c in v] for v in L.T.nullspace()] if k else []
        vecs = [[sum((c * row[j] for c, row in zip(x, right)), Fraction(0)) for j in range(n_right)] for x in xs]
        got = _null_span(QQ, left, right, n_left, n_right)
        assert_same_rref(got, rref_span(QQ, n_right, vecs))


@pytest.mark.parametrize("field", [QQ, F2, F5], ids=repr)
def test_left_kernel_matches_the_free_column_kernel(field):
    rng = random.Random(field.char + 43)
    for _ in range(60):
        m = rand_matrix(rng, field, rng.randint(1, 7), rng.randint(0, 7))
        if m.nrows > 1 and rng.random() < 0.3:  # append the sum of two rows
            a, b = rng.sample(m.rows, 2)
            m = Matrix(field, m.rows + (tuple(x + y for x, y in zip(a, b)),), ncols=m.ncols)
        assert_same_rref(m.left_kernel(), rref_kernel(m.transpose()))


def members(space):
    """Every vector of a subspace of F_p^n, by enumeration of its coefficient vectors."""
    p = space.field.char
    return {tuple(combination(x, space.rows, space.ambient, p)) for x in product(range(p), repeat=space.dim)}


def test_intersect_matches_enumeration_f3():
    rng = random.Random(44)
    for n in range(5):
        for _ in range(15):
            u = rand_subspace(rng, F3, n, rng.randint(0, n + 1))
            v = rand_subspace(rng, F3, n, rng.randint(0, n + 1))
            want = rref_span(F3, n, sorted(members(u) & members(v)))
            assert_same_rref(u.intersect(v), want)
            assert_same_rref(v.intersect(u), want)


def test_preimage_matches_enumeration_f3():
    rng = random.Random(45)
    for m, n in product(range(1, 5), range(5)):
        for _ in range(6):
            matrix = rand_matrix(rng, F3, m, n)
            target = rand_subspace(rng, F3, n, rng.randint(0, n + 1))
            inside = members(target)
            pre = [x for x in product(range(3), repeat=m) if tuple(combination(x, matrix.rows, n, 3)) in inside]
            assert_same_rref(preimage_under(matrix, target), rref_span(F3, m, pre))

