"""Exact linear algebra over Q against sympy: rank, RREF and left kernel,
and the primality test behind GF(p).

hypothesis draws the matrices (low-rank ones as products of thin factors),
and sympy, an independent implementation, computes the answers.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from psl.exactla import GF, PRIME_LIMIT, QQ, Matrix, Subspace, _is_prime
from helpers import rref

SETTINGS = hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
entries = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def rational_matrices(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        return [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(m)]
    k = draw(st.integers(0, min(m, n)))  # rank at most k
    left = [draw(st.lists(entries, min_size=k, max_size=k)) for _ in range(m)]
    right = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(k)]
    return [[sum((left[i][t] * right[t][j] for t in range(k)), Fraction(0)) for j in range(n)] for i in range(m)]


def to_sympy(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


def from_sympy(x):
    return Fraction(int(x.p), int(x.q))


@hypothesis.given(rational_matrices())
@SETTINGS
def test_rank_and_rref_match_sympy(rows):
    M = Matrix(QQ, rows, ncols=len(rows[0]))
    red, rank = rref(M)
    ref, _pivots = to_sympy(rows).rref()
    assert rank == to_sympy(rows).rank() == M.rank()
    assert [list(r) for r in red.rows] == [[from_sympy(x) for x in ref.row(i)] for i in range(ref.rows)]


@hypothesis.given(rational_matrices())
@SETTINGS
def test_left_kernel_matches_sympy(rows):
    M = Matrix(QQ, rows, ncols=len(rows[0]))
    basis = [[from_sympy(x) for x in v] for v in to_sympy(rows).T.nullspace()]
    assert M.left_kernel() == Subspace.from_vectors(QQ, len(rows), basis)


def test_is_prime_matches_sympy_below_20000():
    assert [n for n in range(20000) if _is_prime(n) != sympy.isprime(n)] == []


# strong pseudoprimes to the first 1, 4, 9 and 12 prime bases (the last is why
# the test takes 13), Carmichael numbers, and values near the top of the exact range
@pytest.mark.parametrize("n", [
    2047, 3215031751, 3825123056546413051, 318665857834031151167461,
    561, 1105, 1729, 41041, 825265, 321197185, 9746347772161,
    2**61 - 1, 2**64 - 59, 2**61 + 1, (2**61 - 1) * (2**31 - 1), PRIME_LIMIT - 2,
])
def test_is_prime_on_pseudoprimes_and_large_values(n):
    assert _is_prime(n) == sympy.isprime(n)


def test_gf_refuses_p_past_the_exact_range():
    assert GF(2**61 - 1).char == 2**61 - 1
    with pytest.raises(ValueError, match="must be below"):
        GF(PRIME_LIMIT)
    with pytest.raises(ValueError, match="is not prime"):
        GF(3825123056546413051)
