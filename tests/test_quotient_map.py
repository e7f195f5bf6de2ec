"""The quotient map A -> A/I of an H-stable ideal against the action and the regular module.

`quotient_algebra`, `quotient_action` and `quotient_module` all take their
rows to the cosets of I through one coset map.  On seeded draws over F_2, F_3
and Q, with the H-stable ideals of `random_h_stable_ideal` and, over F_p,
every enumerable H-stable ideal, the projection must be onto, multiplicative
and equivariant on every basis pair (h_i, e_j), the pivots of I included, and
the A-module A/I must be the regular module of A/I pulled back along it, on
both sides.
"""

import random

import pytest

from helpers import act_vec, module_act_vec
from psl.exactla import GF, QQ, unit_vec
from psl.paction import quotient_action
from psl.pmod import quotient_module, regular_module
from psl.radicals import enumerate_h_stable_ideals
from psl.verify import _Pool, random_h_stable_ideal, random_partial_action


def draws(field, seeds=range(30)):
    """(pa, I) for seeded random actions and their proper H-stable ideals."""
    pool = _Pool()
    for seed in seeds:
        rng = random.Random(seed)
        pa = random_partial_action(rng, field, max_carrier=12, pool=pool)
        ideals = [random_h_stable_ideal(rng, pa) for _ in range(4)]
        p = field.char
        if 0 < p <= 5 and pa.alg.dim <= 6:
            ideals += enumerate_h_stable_ideals(pa)
        for I in dict.fromkeys(ideals):
            if not I.is_full():
                yield pa, I


def check_quotient(pa, I):
    A, H, field = pa.alg, pa.hopf, pa.field
    qpa, proj = quotient_action(pa, I)
    Q = qpa.alg
    assert Q.dim == A.dim - I.dim
    assert proj.matrix.rank() == Q.dim  # onto
    assert proj.is_multiplicative()
    for i in range(H.dim):
        h = unit_vec(field, H.dim, i)
        for j in range(A.dim):
            e = A.basis_vector(j)
            assert act_vec(qpa, h, proj.apply(e)) == proj.apply(act_vec(pa, h, e)), (i, j)
    for side in ("left", "right"):
        pulled = quotient_module(A, I, side)
        regular = regular_module(Q, side)
        assert pulled.dim == regular.dim
        for i in range(A.dim):
            image = proj.apply(A.basis_vector(i))
            for j in range(Q.dim):
                w = unit_vec(field, Q.dim, j)
                assert module_act_vec(pulled, A.basis_vector(i), w) == module_act_vec(regular, image, w), (side, i, j)


@pytest.mark.parametrize("field", [GF(2), GF(3), QQ], ids=str)
def test_quotient_map_is_equivariant_multiplicative_and_onto(field):
    checked = 0
    for pa, I in draws(field):
        check_quotient(pa, I)
        checked += not I.is_zero()
    assert checked >= 5
