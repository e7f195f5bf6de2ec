"""The axiom checkers over Q on instances where no denominator clears to 1.

`check_partial_action` and `check_algebra` run over Q on ints, after
clearing the denominators of the action, of the constants of A and of
Delta, of the unit images and of the (h_q h_g) . e_k, and multiply each side
up to one total scale.  Every Hopf algebra psl builds has an integral Delta,
so a dropped or misplaced factor of Delta's scale would pass unseen on them.
Here every Hopf algebra and algebra is rescaled on a diagonal basis change,
b_i = lam_i h_i and a_j = mu_j e_j, so that Delta, the counit, the
structure constants of H and A, the unit of A and the action all carry
different denominators; both checkers must return exactly the failure
tuples of the boxed loops of `boxed_reference`, on the instance and on
copies with one corrupted entry.
"""

import random
from fractions import Fraction as F

import boxed_reference as ref
from helpers import dense_act, dense_comul, dense_mult
from psl.algebra import Algebra, check_algebra
from psl.exactla import QQ, Matrix
from psl.hopf import GroupTable, HopfAlgebra, check_hopf, dual_group_algebra, group_algebra, sweedler_h4
from psl.paction import PartialAction, c4_triple, check_partial_action, dual_group_idempotent, trivial_action
from psl.smash import build_partial_smash
from test_structure_kernel import corrupt, scaled_truncated_polynomial_algebra


def rescale_algebra(A, mu):
    """A on the basis a_j = mu_j e_j: a_j a_k = sum_l mu_j mu_k c_jkl / mu_l a_l."""
    n = A.dim
    mult = [[[mu[j] * mu[k] * dense_mult(A)[j][k][l] / mu[l] for l in range(n)] for k in range(n)] for j in range(n)]
    unit = None if A.unit is None else [A.unit[l] / mu[l] for l in range(n)]
    return Algebra(QQ, mult, unit=unit, labels=A.labels)


def rescale_hopf(H, lam):
    """H on the basis b_i = lam_i h_i; Delta(b_i) = sum lam_i c^i_pq / (lam_p lam_q) b_p (x) b_q."""
    m = H.dim
    comul = [[[lam[i] * dense_comul(H)[i][a][b] / (lam[a] * lam[b]) for b in range(m)] for a in range(m)] for i in range(m)]
    counit = [lam[i] * H.counit[i] for i in range(m)]
    antipode = Matrix(QQ, [[lam[i] * H.antipode.rows[i][k] / lam[k] for k in range(m)] for i in range(m)])
    return HopfAlgebra(rescale_algebra(H.alg, lam), comul, counit, antipode)


def rescale(pa, lam, mu):
    """pa on both rescaled bases: b_i . a_j = sum_k lam_i mu_j act_ijk / mu_k a_k."""
    m, n = pa.hopf.dim, pa.alg.dim
    act = [[[lam[i] * mu[j] * dense_act(pa)[i][j][k] / mu[k] for k in range(n)] for j in range(n)] for i in range(m)]
    return PartialAction(rescale_hopf(pa.hopf, lam), rescale_algebra(pa.alg, mu), act)


# scales with pairwise different denominators
LAM = [F(2, 3), F(3, 2), F(2, 5), F(7, 3), F(5, 4), F(1, 6), F(4, 7), F(9, 2)]
MU = [F(3, 7), F(5, 11), F(2, 13), F(4, 17)]


def instances():
    C2 = group_algebra(QQ, GroupTable.cyclic(2))
    yield c4_triple(QQ)
    yield dual_group_idempotent(QQ, GroupTable.cyclic(4), [0, 2])
    yield dual_group_idempotent(QQ, GroupTable.cyclic(6), [0, 3])
    yield trivial_action(C2, scaled_truncated_polynomial_algebra(QQ, 3))
    yield trivial_action(sweedler_h4(QQ), scaled_truncated_polynomial_algebra(QQ, 2))
    G = GroupTable.cyclic(3)
    yield trivial_action(dual_group_algebra(QQ, G), group_algebra(QQ, G).alg)


def corrupted_hopf(rng, H):
    return HopfAlgebra(H.alg, corrupt(rng, QQ, dense_comul(H)), H.counit, H.antipode)


def test_rescaled_instances_clear_no_scale_to_one():
    for pa in instances():
        m, n = pa.hopf.dim, pa.alg.dim
        spa = rescale(pa, LAM[:m], MU[:n])
        H, A = spa.hopf, spa.alg
        assert check_hopf(H).ok
        denominators = [
            {c.denominator for d in H._delta for *_, c in d},
            {c.denominator for row in A.terms for e in row for _, c in e},
            {c.denominator for row in spa._terms for v in row for _, c in v},
            {x.denominator for x in A.unit},
        ]
        assert all(max(d) > 1 for d in denominators), denominators


def test_checkers_match_boxed_loops_on_rescaled_instances():
    rng = random.Random(9500)
    passing = failing = 0
    for pa in instances():
        m, n = pa.hopf.dim, pa.alg.dim
        spa = rescale(pa, LAM[:m], MU[:n])
        H, A = spa.hopf, spa.alg
        actions = [spa, build_partial_smash(spa).dual_action]
        actions += [PartialAction(H, A, corrupt(rng, QQ, dense_act(spa))) for _ in range(3)]
        actions += [PartialAction(corrupted_hopf(rng, H), A, dense_act(spa)) for _ in range(3)]
        for act in actions:
            got = check_partial_action(act)
            assert got == ref.check_partial_action(act), act
            passing += got.ok
            failing += not got.ok
        algebras = [A, H.alg] + [Algebra(QQ, corrupt(rng, QQ, dense_mult(X)), unit=X.unit) for X in (A, H.alg)]
        for alg in algebras:
            got = check_algebra(alg)
            assert got == ref.check_algebra(alg), alg
            failing += not got.ok
    # the instances and their dual actions pass; most corrupted copies fail
    assert passing >= 12 and failing >= 30
