"""The join phase of the invariant-subspace enumeration.

A lattice of invariant subspaces is generated by the spins of single
vectors under joins.  The enumeration joins each unordered pair of the
subspaces it has found at most once, and never a pair where one contains
the other.  Two algebras acting trivially have an ideal that no single
element generates, so only a join reaches it: the augmentation ideal of
F_2[C_2 x C_2] and the maximal ideal (x, y) of F_3[x, y]/(x, y)^2.  Both
lattices are checked against brute force, and a spy on `Subspace.__add__`
checks which pairs are joined.
"""

import random

import pytest

from psl.algebra import Algebra, ideal_closure
from psl.exactla import GF, Matrix, Subspace, _projective_raw, enumerate_invariant_subspaces
from psl.hopf import GroupTable, group_algebra
from psl.paction import trivial_action
from psl.radicals import enumerate_h_stable_ideals
from psl.verify import lattice_instances
from helpers import dense_act, mult_matrix
from test_h_stable_oracle import as_vector_sets, brute_h_stable_ideals
from test_lattice_oracle import CASES, random_operators

F2, F3 = GF(2), GF(3)


def klein_group_algebra():
    """F_2[C_2 x C_2] with its augmentation ideal, spanned by 1 + g for g != 1."""
    klein = GroupTable([[i ^ j for j in range(4)] for i in range(4)])
    A = group_algebra(F2, klein).alg
    return A, Subspace.from_vectors(F2, 4, [(1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)])


def square_zero_plane():
    """F_3[x, y]/(x, y)^2 on the basis 1, x, y, with its maximal ideal (x, y)."""
    terms = ((((0, 1),), ((1, 1),), ((2, 1),)), (((1, 1),), (), ()), (((2, 1),), (), ()))
    A = Algebra._of_terms(F3, terms, (1, 0, 0), ["1", "x", "y"])
    return A, Subspace.from_vectors(F3, 3, [(0, 1, 0), (0, 0, 1)])


def trivially_acted(A):
    return trivial_action(group_algebra(A.field, GroupTable.cyclic(2)), A)


@pytest.mark.parametrize("build", [klein_group_algebra, square_zero_plane])
def test_an_ideal_only_a_join_reaches_is_enumerated(build):
    A, wanted = build()
    # no element generates the ideal: it is not the spin of any line
    assert all(ideal_closure(A, [v]) != wanted for v in _projective_raw(A.field.char, A.dim))
    pa = trivially_acted(A)
    ideals = enumerate_h_stable_ideals(pa)
    assert wanted in ideals
    assert as_vector_sets(A.field.char, A.dim, ideals) == brute_h_stable_ideals(pa)


def operator_sets():
    """(field, n, dense operators): the two algebras above, the lattice draws at seeds 0-3, random sets."""
    for build in (klein_group_algebra, square_zero_plane):
        A = build()[0]
        yield A.field, A.dim, [mult_matrix(A, A.basis_vector(b), left=True) for b in range(A.dim)]
    for seed in range(4):
        for _, pa in lattice_instances((2, 3), (), seed, 10, 6, 5, ()):
            A, n = pa.alg, pa.alg.dim
            basis = [A.basis_vector(b) for b in range(n)]
            ops = [mult_matrix(A, e, left) for left in (True, False) for e in basis]
            yield A.field, n, ops + [Matrix(A.field, dense_act(pa)[i]) for i in range(pa.hopf.dim)]
    for p, n in CASES:
        for ops in random_operators(random.Random(7000 + 10 * p + n), p, n):
            yield GF(p), n, [Matrix(GF(p), op) for op in ops]


def test_joins_are_of_incomparable_pairs_each_once(monkeypatch):
    real_add = Subspace.__add__
    joined = []

    def spy(a, b):
        joined.append((a, b))
        return real_add(a, b)

    monkeypatch.setattr(Subspace, "__add__", spy)
    total = 0
    for field, n, ops in operator_sets():
        joined.clear()
        lattice = enumerate_invariant_subspaces(field, n, ops)
        pairs = [frozenset((a.rows, b.rows)) for a, b in joined]
        assert len(pairs) == len(set(pairs)), "a pair was joined twice"
        assert not [(a, b) for a, b in joined if a <= b or b <= a], "a comparable pair was joined"
        assert all(a in lattice and b in lattice for a, b in joined)
        total += len(joined)
    assert total > 100
