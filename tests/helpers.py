"""Shared fixtures and seeded-random generators for the test suite."""

import random

from fractions import Fraction

from psl.exactla import Matrix, QQ, Subspace

from psl.algebra import product_of_fields
from psl.hopf import GroupTable, group_algebra
from psl.paction import c4_triple, dual_group_idempotent, trivial_action


def fix_a(field=QQ):
    """(kC2)* acting on e_N kC2 for N = C2 (one-dimensional carrier)."""
    return dual_group_idempotent(field, GroupTable.cyclic(2), [0, 1])


def fix_b(field=QQ):
    """kC4 shifting the idempotents of field^3."""
    return c4_triple(field)


def fix_c(field=QQ, hopf_order=2, alg_dim=3):
    """Trivial (global) action of a group algebra on a product of fields."""
    H = group_algebra(field, GroupTable.cyclic(hopf_order))
    return trivial_action(H, product_of_fields(field, alg_dim))


def fix_d():
    """F2C2 acting trivially on F2 (the non-semisimple negative control)."""
    from psl.exactla import GF

    F2 = GF(2)
    return trivial_action(group_algebra(F2, GroupTable.cyclic(2)), product_of_fields(F2, 1))


def rand_scalar(rng: random.Random, field):
    """A canonical scalar: a Fraction over Q, an int in [0, p) over F_p."""
    if field.char == 0:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return rng.randrange(field.char)


def rand_vec(rng: random.Random, field, n):
    return tuple(rand_scalar(rng, field) for _ in range(n))


def rand_matrix(rng: random.Random, field, m, n) -> Matrix:
    return Matrix(field, [rand_vec(rng, field, n) for _ in range(m)], ncols=n)


def rand_subspace(rng: random.Random, field, ambient, nvecs) -> Subspace:
    return Subspace.from_vectors(field, ambient, [rand_vec(rng, field, ambient) for _ in range(nvecs)])
