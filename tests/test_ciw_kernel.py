"""The packed-row kernel of Cohen-Ivanyos-Wales against the schoolbook oracle.

`_packed_product` and `_lifted_power_trace` are compared with the boxed
`matmul_mod` and `lifted_power_trace` on random matrices and on the worst
case for the slot width, every entry q - 1, where each slot of a packed row
sum reaches n (q-1)^2 exactly.  The dim-72 smash product is the size at
which the schoolbook kernel stalled.
"""

import random

import pytest

from boxed_reference import lifted_power_trace, matmul_mod
from radical_oracle import brute_nilpotent_radical
from psl.algebra import Algebra, _tensor_terms, direct_product, product_of_fields, quotient_algebra
from psl.exactla import GF, unit_vec
from psl.hopf import GroupTable, dual_group_algebra, group_algebra
from psl.paction import PartialAction, check_partial_action, is_global
from psl.radicals import _lifted_power_trace, _packed_product, jacobson_radical, trace_form_kernel
from psl.smash import build_partial_smash
from psl.verify import truncated_polynomial_algebra

SIZES = (*range(1, 13), 32, 72)
MODULI = (4, 8, 9, 16, 25, 27, 121, 128)


def _random_matrix(rng, n, bound):
    return [[rng.randrange(bound) for _ in range(n)] for _ in range(n)]


def _worst(n, q):
    return [[q - 1] * n for _ in range(n)]


@pytest.mark.parametrize("n", SIZES)
def test_packed_product_matches_schoolbook(n):
    rng = random.Random(n)
    for q in MODULI:
        X, Y = _random_matrix(rng, n, q), _random_matrix(rng, n, q)
        # a sparse left factor takes the branch that skips zero entries
        S = [[x if rng.random() < 0.2 else 0 for x in row] for row in X]
        for left, right in ((X, Y), (S, Y), (_worst(n, q), _worst(n, q))):
            assert _packed_product(left, right, q) == matmul_mod(left, right, q), (n, q)


def test_power_trace_matches_schoolbook_small():
    # every exponent 1..70 at every modulus, over sizes 1..12
    rng = random.Random(70)
    for q in MODULI:
        for e in range(1, 71):
            n = 1 + (e + q) % 12
            # entries past q: the kernel reduces its input once
            L = _random_matrix(rng, n, 3 * q)
            assert _lifted_power_trace(L, e, q) == lifted_power_trace(L, e, q), (n, q, e)
            W = _worst(n, q)
            assert _lifted_power_trace(W, e, q) == lifted_power_trace(W, e, q), (n, q, e)


@pytest.mark.parametrize("n", (32, 72))
def test_power_trace_matches_schoolbook_large(n):
    # CIW's exponents p^i at the moduli p^(i+1), plus exponents with several set bits
    rng = random.Random(n)
    for q, e in ((4, 2), (4, 3), (8, 4), (9, 3), (27, 9), (16, 7), (121, 11), (128, 64), (25, 70)):
        for L in (_random_matrix(rng, n, q), _worst(n, q)):
            assert _lifted_power_trace(L, e, q) == lifted_power_trace(L, e, q), (n, q, e)


def test_dim_72_smash_product_radical():
    # (F_2 C_6)* acting globally on F_2 C_6 (x) F_2[x]/(x^2) by projection onto
    # the C_6-graded parts: the smash product has dim 72, J has dim 36
    F = GF(2)
    G = GroupTable.cyclic(6)
    kG = group_algebra(F, G).alg
    T = truncated_polynomial_algebra(F, 2)
    A = Algebra._of_terms(F, _tensor_terms(kG.terms, T.terms), unit_vec(F, 12, 2 * G.identity))
    act = tuple(tuple(((j, 1),) if j // 2 == g else () for j in range(12)) for g in range(6))
    pa = PartialAction._of_terms(dual_group_algebra(F, G), A, act)
    check_partial_action(pa).raise_if_failed("graded projection action")
    assert is_global(pa)
    S = build_partial_smash(pa).carrier
    assert S.dim == 72
    rep = jacobson_radical(S)
    assert rep.method == "cohen-ivanyos-wales"
    assert rep.radical.dim == 36
    Q, _ = quotient_algebra(S, rep.radical)
    assert jacobson_radical(Q).radical.is_zero()


@pytest.mark.parametrize("p", [3, 5])
def test_one_pivot_g_block(p):
    # F_p^(p-1) x F_p[x]/(x^2) has dim p + 1 >= p and trace-form kernel span(x):
    # the first step's g-block reads a single pivot column, where itemgetter
    # returns the entry rather than a 1-tuple (a one-dimensional ideal inside
    # the kernel is nilpotent, so that g-block is zero)
    F = GF(p)
    A = direct_product(product_of_fields(F, p - 1), truncated_polynomial_algebra(F, 2))
    assert trace_form_kernel(A).dim == 1
    rep = jacobson_radical(A)
    assert rep.method == "cohen-ivanyos-wales"
    assert rep.radical == brute_nilpotent_radical(A) and rep.radical.dim == 1
