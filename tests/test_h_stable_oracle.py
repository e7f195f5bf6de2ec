"""H-stable ideal enumeration, and enumeration on padded operator sets, against exhaustive search.

`enumerate_h_stable_ideals` hands the sparse rows of A's multiplications
and of the action to the enumeration, which drops repeated, zero and scalar
operators.  Its answer must be every subspace of F_p^n invariant under all
L_{e_b}, R_{e_b} and h_i., found by brute force over the vectors of each
subspace from the dense products `Algebra.multiply` and the dense action
tensor `helpers.dense_act`, on seeded draws of the lattice instance source
over F_2 and F_3 (dim A <= 3), on the C4-triple over F_2 and on trivial
actions on the upper triangular 2 x 2 matrices.  The random
operator sets of `test_lattice_oracle.py`, padded with repeated, zero and
scalar operators, must give the lattices they give alone.
"""

import random
from functools import cache, partial

import pytest

from helpers import dense_act
from psl import exactla
from psl.algebra import Algebra, product_of_fields
from psl.exactla import GF, Matrix, enumerate_invariant_subspaces
from psl.hopf import GroupTable, dual_group_algebra, group_algebra
from psl.paction import c4_triple, trivial_action
from psl.radicals import enumerate_h_stable_ideals
from psl.verify import lattice_instances
from test_lattice_oracle import CASES, all_subspaces, invariant, random_operators, span_set

subspaces_of = cache(all_subspaces)


def brute_h_stable_ideals(pa):
    """Every subspace of F_p^n invariant under each L_{e_b}, R_{e_b} and h_i., as vector sets."""
    A, p, n = pa.alg, pa.field.char, pa.alg.dim
    basis = [A.basis_vector(i) for i in range(n)]
    ops = [[list(A.multiply(b, e)) for e in basis] for b in basis]
    ops += [[list(A.multiply(e, b)) for e in basis] for b in basis]
    ops += [[list(v) for v in row] for row in dense_act(pa)]
    return sorted(sorted(S) for S in subspaces_of(p, n) if all(invariant(p, S, op, n) for op in ops))


def as_vector_sets(p, n, spaces):
    return sorted(sorted(span_set(p, [list(r) for r in S.rows], n)) for S in spaces)


def lattice_draws(seed):
    fixtures = (("FIX-B(F2)", partial(c4_triple, GF(2))),)
    return [(tag, pa) for tag, pa in lattice_instances((2, 3), fixtures, seed, 10, 6, 5, ()) if pa.alg.dim <= 3]


@pytest.mark.parametrize("seed", range(6))
def test_h_stable_ideals_match_exhaustive_search(seed):
    sizes = []
    for tag, pa in lattice_draws(seed):
        p, n = pa.field.char, pa.alg.dim
        expected = brute_h_stable_ideals(pa)
        assert as_vector_sets(p, n, enumerate_h_stable_ideals(pa)) == expected, tag
        sizes.append(len(expected))
    # the draws reach lattices beyond {0, A}
    assert max(sizes) > 2


def upper_triangular(field):
    """T_2 on the basis (e11, e12, e22), with unit e11 + e22: span(e11) is a left ideal, not a right one."""
    mult = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    mult[0][0][0] = mult[0][1][1] = mult[1][2][1] = mult[2][2][2] = 1
    return Algebra(field, mult, unit=[1, 0, 1])


@pytest.mark.parametrize("p", [2, 3])
def test_h_stable_ideals_of_a_noncommutative_algebra(p):
    # the draws above are all commutative; here no right multiplication repeats a left one
    F = GF(p)
    for H in (group_algebra(F, GroupTable.cyclic(2)), dual_group_algebra(F, GroupTable.cyclic(3))):
        pa = trivial_action(H, upper_triangular(F))
        expected = brute_h_stable_ideals(pa)
        assert as_vector_sets(p, 3, enumerate_h_stable_ideals(pa)) == expected
        assert len(expected) == 5  # 0, span(e12), span(e11, e12), span(e12, e22), T_2


def test_spins_run_once_per_distinct_operator(monkeypatch):
    # F_2C_2 acting trivially on F_2^3: the two group elements act as the identity,
    # and each right multiplication of the commutative F_2^3 repeats a left one
    pa = trivial_action(group_algebra(GF(2), GroupTable.cyclic(2)), product_of_fields(GF(2), 3))
    seen = []
    real = exactla._spin

    def recording(field, n, seeds, ops, known=None):
        seen.append(len(ops))
        return real(field, n, seeds, ops, known)

    monkeypatch.setattr(exactla, "_spin", recording)
    ideals = enumerate_h_stable_ideals(pa)
    assert set(seen) == {3}
    assert as_vector_sets(2, 3, ideals) == brute_h_stable_ideals(pa)


def padded(rng, p, n, ops):
    """ops with a repeat of each, the zero operator and every nonzero scalar appended, shuffled."""
    out = list(ops) + list(ops)
    out.append([[0] * n for _ in range(n)])
    out += [[[c * (i == j) for j in range(n)] for i in range(n)] for c in range(1, p)]
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("p, n", CASES)
def test_repeated_zero_and_scalar_operators_change_nothing(p, n):
    field = GF(p)
    subspaces = subspaces_of(p, n)
    rng = random.Random(1000 * p + n)
    pad = random.Random(p - n)
    for ops in random_operators(rng, p, n):
        expected = sorted(sorted(S) for S in subspaces if all(invariant(p, S, op, n) for op in ops))
        alone = enumerate_invariant_subspaces(field, n, [Matrix(field, op) for op in ops])
        with_extras = enumerate_invariant_subspaces(field, n, [Matrix(field, op) for op in padded(pad, p, n, ops)])
        assert with_extras == alone
        assert as_vector_sets(p, n, with_extras) == expected
