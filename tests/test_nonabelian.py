"""End-to-end checks on S_3: nothing may silently assume commutativity."""

from itertools import permutations

from helpers import dense_comul
from psl.exactla import GF, QQ, Subspace
from psl.hopf import (
    GroupTable,
    check_hopf,
    dual_group_algebra,
    dual_hopf,
    group_algebra,
    is_semisimple,
    left_integrals,
)
from psl.paction import (
    check_partial_action,
    colon_ideal,
    dual_group_idempotent,
    is_global,
)
from psl.radicals import enumerate_h_stable_ideals, h_jacobson_radical, jacobson_radical
from psl.smash import build_partial_smash, phi_ideal, psi_ideal
from psl.verify import THEOREMS, VerifyReport


def s3_table():
    """Cayley table of S_3 from actual permutation composition."""
    elems = sorted(permutations(range(3)))

    def compose(a, b):  # (a*b)(x) = a(b(x))
        return tuple(a[b[x]] for x in range(3))

    index = {g: i for i, g in enumerate(elems)}
    cayley = [[index[compose(a, b)] for b in elems] for a in elems]
    return GroupTable(cayley), elems, index


def a3_indices():
    table, elems, index = s3_table()
    evens = [index[g] for g in elems if _sign(g) == 1]
    return table, sorted(evens)


def _sign(perm):
    s = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                s = -s
    return s


def test_s3_group_algebra_is_hopf():
    G, _, _ = s3_table()
    H = group_algebra(QQ, G)
    assert check_hopf(H).ok
    assert is_semisimple(H)
    assert left_integrals(H) == Subspace.from_vectors(QQ, 6, [[1] * 6])


def test_s3_dual_is_hopf_and_noncommutative_coproduct():
    G, _, _ = s3_table()
    Hd = dual_group_algebra(QQ, G)
    assert check_hopf(Hd).ok
    assert dual_hopf(group_algebra(QQ, G)) == Hd
    # S_3 is non-abelian, so the dual coproduct is non-cocommutative:
    # some Delta(p_g) has p_u (x) p_v without p_v (x) p_u
    flipped = all(
        dense_comul(Hd)[i][u][v] == dense_comul(Hd)[i][v][u]
        for i in range(6)
        for u in range(6)
        for v in range(6)
    )
    assert not flipped


def test_s3_corner_action_and_radical_transfer():
    G, evens = a3_indices()
    pa = dual_group_idempotent(QQ, G, evens)
    assert pa.alg.dim == 2  # |S_3| / |A_3|
    assert check_partial_action(pa).ok
    assert not is_global(pa)
    report = VerifyReport("S3 corner")
    for theorem_id in ("T4.26", "T4.14"):
        THEOREMS[theorem_id].check(report, "S3/A3 corner", pa)
    assert [c.name for c in report.cases] == [
        "S3/A3 corner: J_H*(A#H) = J_H(A)#H",
        "S3/A3 corner: J_H(A) = J_H*(A#H) /\\ A",
        "S3/A3 corner: P_H*(A#H) = P_H(A)#H",
        "S3/A3 corner: P_H(A) = P_H*(A#H) /\\ A",
    ]
    assert report.ok, report.summary()


def test_s3_corner_over_f5_ideal_correspondence():
    G, evens = a3_indices()
    F5 = GF(5)
    pa = dual_group_idempotent(F5, G, evens)
    sp = build_partial_smash(pa)
    ideals = enumerate_h_stable_ideals(pa, dim_cap=6, field_cap=5)
    for I in ideals:
        assert psi_ideal(sp, phi_ideal(sp, I)) == I
    assert h_jacobson_radical(pa).is_zero()
    assert jacobson_radical(sp.carrier).radical.is_zero()


def test_s3_trivial_subgroup_recovers_global_action():
    G, _, _ = s3_table()
    pa = dual_group_idempotent(QQ, G, [G.identity])
    assert pa.alg.dim == 6
    assert is_global(pa)
    full = Subspace.full_space(QQ, 6)
    assert colon_ideal(pa, full) == full
