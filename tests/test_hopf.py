"""Hopf algebras: constructors, axiom checker, integrals, semisimplicity."""

import random

import pytest

from helpers import dense_comul, dense_mult
from psl.algebra import Algebra
from psl.exactla import GF, QQ, Matrix, Subspace, unit_vec, zero_vec
from psl.hopf import (
    BadCharacteristic,
    GroupTable,
    HopfAlgebra,
    InvalidGroupTable,
    check_hopf,
    dual_group_algebra,
    dual_hopf,
    group_algebra,
    is_semisimple,
    left_integrals,
    sweedler_h4,
)

F2 = GF(2)


def test_group_table_cyclic():
    G = GroupTable.cyclic(4)
    assert G.order == 4 and G.identity == 0
    assert G.inverses == (0, 3, 2, 1)
    assert G.is_subgroup([0, 2]) and G.is_normal([0, 2])
    assert not G.is_subgroup([0, 1])


def test_group_table_user_supplied_klein_four():
    table = [
        [0, 1, 2, 3],
        [1, 0, 3, 2],
        [2, 3, 0, 1],
        [3, 2, 1, 0],
    ]
    V4 = GroupTable(table, labels=["1", "a", "b", "ab"])
    assert V4.inverses == (0, 1, 2, 3)
    assert check_hopf(group_algebra(QQ, V4)).ok
    assert check_hopf(dual_group_algebra(GF(3), V4)).ok
    assert V4.is_normal([0, 1])


def test_group_table_rejects_garbage():
    with pytest.raises(InvalidGroupTable):
        GroupTable([[0, 1], [1, 1]])  # 1 has no inverse / not a group
    with pytest.raises(InvalidGroupTable):
        GroupTable([[0, 1], [0, 1]])  # no identity


def first_associativity_failure(tab):
    """The first (i, j, k) in lexicographic order with (ij)k != i(jk), by the n^3 loop, or None."""
    n = len(tab)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if tab[tab[i][j]][k] != tab[i][tab[j][k]]:
                    return i, j, k
    return None


def reduced_latin_squares(n, rng=None):
    """Latin squares on 0..n-1 with 0 as identity: all of them, or with rng one at random."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]

    def fill(cell):
        if cell == n * n:
            yield [row[:] for row in rows]
            return
        i, j = divmod(cell, n)
        if rows[i][j] is not None:
            yield from fill(cell + 1)
            return
        used = set(rows[i]) | {rows[r][j] for r in range(n)}
        candidates = [x for x in range(n) if x not in used]
        if rng is not None:
            rng.shuffle(candidates)
        for x in candidates:
            rows[i][j] = x
            yield from fill(cell + 1)
        rows[i][j] = None

    return fill(0)


def relabelled(tab, perm):
    """The table of the same loop with element a renamed perm[a]: its identity moves to perm[0]."""
    n = len(tab)
    out = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[tab[a][b]]
    return out


def test_associativity_check_reports_the_first_failing_triple():
    rng = random.Random(2801)
    squares = [sq for n in (3, 4, 5) for sq in reduced_latin_squares(n)]
    for n in (6, 7, 8):
        squares += [next(reduced_latin_squares(n, rng)) for _ in range(20)]
    failing = 0
    for sq in squares:
        perm = list(range(len(sq)))
        rng.shuffle(perm)
        tab = relabelled(sq, perm)
        triple = first_associativity_failure(tab)
        if triple is None:
            assert GroupTable(tab).identity == perm[0]
        else:
            with pytest.raises(InvalidGroupTable, match=rf"^associativity fails at \({triple[0]},{triple[1]},{triple[2]}\)$"):
                GroupTable(tab)
            failing += 1
    # 56 reduced squares of order 5, of which only the 6 labellings of C_5 are groups
    assert failing >= 50 + 50 and len(squares) - failing >= 8


def test_check_hopf_group_algebra():
    assert check_hopf(group_algebra(QQ, GroupTable.cyclic(4))).ok


def test_check_hopf_dual_group_algebra():
    # Delta(p_g) = sum_{uv=g} p_u (x) p_v checked by hand for C_2:
    # Delta(p_1) = p_1(x)p_1 + p_g(x)p_g, Delta(p_g) = p_1(x)p_g + p_g(x)p_1
    H = dual_group_algebra(QQ, GroupTable.cyclic(2))
    assert dense_comul(H)[0][0][0] == 1 and dense_comul(H)[0][1][1] == 1
    assert dense_comul(H)[1][0][1] == 1 and dense_comul(H)[1][1][0] == 1
    assert check_hopf(H).ok


def test_check_hopf_catches_corrupt_antipode():
    H = group_algebra(QQ, GroupTable.cyclic(4))
    bad = HopfAlgebra(H.alg, dense_comul(H), H.counit, Matrix.identity(QQ, 4))
    report = check_hopf(bad)
    assert not report.ok
    assert any("antipode" in f for f in report.failures)


def test_group_algebra_c1_is_base_field():
    H = group_algebra(QQ, GroupTable.cyclic(1))
    assert H.dim == 1 and check_hopf(H).ok


def test_group_algebra_sizes():
    assert group_algebra(QQ, GroupTable.cyclic(4)).dim == 4
    assert group_algebra(F2, GroupTable.cyclic(2)).dim == 2


def test_dual_of_group_algebra_matches_dual_constructor():
    for n in (2, 3, 4):
        G = GroupTable.cyclic(n)
        D1 = dual_hopf(group_algebra(QQ, G))
        D2 = dual_group_algebra(QQ, G)
        assert D1 == D2


def test_double_dual_is_identity_on_tensors():
    H = group_algebra(QQ, GroupTable.cyclic(4))
    assert dual_hopf(dual_hopf(H)) == H


def test_left_integrals_group_algebras():
    for n in (2, 3, 4, 5):
        H = group_algebra(QQ, GroupTable.cyclic(n))
        assert left_integrals(H) == Subspace.from_vectors(QQ, n, [[1] * n])


def test_left_integrals_dual_and_modular():
    Hd = dual_group_algebra(QQ, GroupTable.cyclic(2))
    assert left_integrals(Hd) == Subspace.from_vectors(QQ, 2, [[1, 0]])
    H2 = group_algebra(F2, GroupTable.cyclic(2))
    assert left_integrals(H2) == Subspace.from_vectors(F2, 2, [[1, 1]])


def test_integral_space_always_one_dimensional():
    hopfs = [
        group_algebra(QQ, GroupTable.cyclic(n)) for n in (1, 2, 3, 4, 5)
    ] + [
        dual_group_algebra(QQ, GroupTable.cyclic(n)) for n in (2, 3, 4)
    ] + [
        group_algebra(GF(3), GroupTable.cyclic(3)),
        sweedler_h4(QQ),
        sweedler_h4(GF(5)),
    ]
    for H in hopfs:
        assert left_integrals(H).dim == 1


def test_is_semisimple_examples():
    assert is_semisimple(group_algebra(QQ, GroupTable.cyclic(4)))
    assert not is_semisimple(group_algebra(F2, GroupTable.cyclic(2)))
    assert is_semisimple(dual_group_algebra(QQ, GroupTable.cyclic(2)))


def test_maschke_exhaustive_small_groups():
    for n in range(2, 7):
        for field in (F2, GF(3), GF(5), QQ):
            H = group_algebra(field, GroupTable.cyclic(n))
            expected = field.char == 0 or n % field.char != 0
            assert is_semisimple(H) == expected


def test_sweedler_h4():
    H = sweedler_h4(QQ)
    assert check_hopf(H).ok
    assert not is_semisimple(H)
    # S(x) = -gx, S^2(x) = -x, S^4 = id
    x = unit_vec(QQ, 4, 2)
    sx = H.antipode.apply(x)
    assert sx == (0, 0, 0, -1)
    s2 = H.antipode * H.antipode
    assert s2.apply(x) == (0, 0, -1, 0)
    assert s2 * s2 == Matrix.identity(QQ, 4)
    assert s2 != Matrix.identity(QQ, 4)


def test_sweedler_needs_odd_characteristic():
    with pytest.raises(BadCharacteristic):
        sweedler_h4(F2)


def test_convolution_identity_all_constructors():
    # sum S(h1) h2 = eps(h) 1 on every basis element, via the checker
    for H in (
        group_algebra(QQ, GroupTable.cyclic(3)),
        dual_group_algebra(QQ, GroupTable.cyclic(4)),
        sweedler_h4(GF(7)),
        dual_hopf(sweedler_h4(QQ)),
    ):
        assert check_hopf(H).ok


# ---------------------------------------------------------------------------
# the sparse builders against the public coercing constructors on dense tensors

def dense_group_algebra(field, G):
    n = G.order
    mult = [[unit_vec(field, n, G.cayley[i][j]) for j in range(n)] for i in range(n)]
    alg = Algebra(field, mult, unit=unit_vec(field, n, G.identity), labels=G.labels)
    comul = [[[field.one if i == j == k else field.zero for k in range(n)] for j in range(n)] for i in range(n)]
    antipode = Matrix(field, [unit_vec(field, n, G.inverses[i]) for i in range(n)], ncols=n)
    return HopfAlgebra(alg, comul, (field.one,) * n, antipode)


def dense_dual_group_algebra(field, G):
    n = G.order
    z = zero_vec(field, n)
    mult = [[unit_vec(field, n, i) if i == j else z for j in range(n)] for i in range(n)]
    alg = Algebra(field, mult, unit=(field.one,) * n, labels=[f"p({l})" for l in G.labels])
    comul = [
        [[field.one if G.cayley[u][v] == g else field.zero for v in range(n)] for u in range(n)]
        for g in range(n)
    ]
    antipode = Matrix(field, [unit_vec(field, n, G.inverses[i]) for i in range(n)], ncols=n)
    return HopfAlgebra(alg, comul, unit_vec(field, n, G.identity), antipode)


def dense_dual(H):
    """H* from the dense tensors of H: the product is Delta transposed, Delta the product transposed."""
    m = H.dim
    mult = [[[dense_comul(H)[k][i][j] for k in range(m)] for j in range(m)] for i in range(m)]
    alg = Algebra(H.field, mult, unit=H.counit, labels=[f"{l}*" for l in H.alg.labels])
    comul = [[[dense_mult(H.alg)[j][k][i] for k in range(m)] for j in range(m)] for i in range(m)]
    return HopfAlgebra(alg, comul, H.unit, Matrix(H.field, zip(*H.antipode.rows), ncols=m))


def dense_sweedler_h4(field):
    """Sweedler's H_4 on <1, g, x, gx> from dense tables: g^2 = 1, x^2 = 0, xg = -gx,
    Delta(x) = x (x) 1 + g (x) x, eps(x) = 0, S(x) = -gx."""
    e = [unit_vec(field, 4, i) for i in range(4)]
    z, neg = zero_vec(field, 4), field.of(-1)
    mult = [
        [e[0], e[1], e[2], e[3]],
        [e[1], e[0], e[3], e[2]],
        [e[2], (0, 0, 0, neg), z, z],
        [e[3], (0, 0, neg, 0), z, z],
    ]
    alg = Algebra(field, mult, unit=e[0], labels=("1", "g", "x", "gx"))
    comul = [[[field.zero] * 4 for _ in range(4)] for _ in range(4)]
    for i, j, k in ((0, 0, 0), (1, 1, 1), (2, 2, 0), (2, 1, 2), (3, 3, 1), (3, 0, 3)):
        comul[i][j][k] = field.one  # h_j (x) h_k in Delta(h_i)
    antipode = Matrix(field, [e[0], e[1], (0, 0, 0, neg), e[2]], ncols=4)
    return HopfAlgebra(alg, comul, (field.one, field.one, field.zero, field.zero), antipode)


def sparse_and_dense_twins():
    """A kernel-built Hopf algebra and its twin from the public constructors, for each case."""
    for field in (QQ, F2, GF(3), GF(5)):
        for n in range(1, 7):
            G = GroupTable.cyclic(n)
            for name, H, twin in (
                (f"kC{n}", group_algebra(field, G), dense_group_algebra(field, G)),
                (f"(kC{n})*", dual_group_algebra(field, G), dense_dual_group_algebra(field, G)),
            ):
                yield pytest.param(H, twin, id=f"{name}/{field}")
                yield pytest.param(dual_hopf(H), dense_dual(twin), id=f"dual {name}/{field}")
                yield pytest.param(
                    dual_hopf(dual_hopf(H)), dense_dual(dense_dual(twin)), id=f"double dual {name}/{field}"
                )
    for field in (QQ, GF(3), GF(5), GF(7)):
        yield pytest.param(sweedler_h4(field), dense_sweedler_h4(field), id=f"H4/{field}")
    H4 = sweedler_h4(QQ)
    yield pytest.param(dual_hopf(H4), dense_dual(H4), id="dual H4/QQ")
    yield pytest.param(dual_hopf(dual_hopf(H4)), dense_dual(dense_dual(H4)), id="double dual H4/QQ")


@pytest.mark.parametrize("H, twin", sparse_and_dense_twins())
def test_sparse_hopf_builders_match_the_public_constructors(H, twin):
    assert H == twin and hash(H) == hash(twin)
    # repr tells an int from a Fraction, so the stored rows are identical, not just equal
    assert repr(H._delta) == repr(twin._delta) and repr(H.alg.terms) == repr(twin.alg.terms)
    assert repr(dense_comul(H)) == repr(dense_comul(twin))
    assert repr(dense_mult(H.alg)) == repr(dense_mult(twin.alg))
    assert repr((H.unit, H.counit, H.antipode.rows)) == repr((twin.unit, twin.counit, twin.antipode.rows))
    assert H.alg.labels == twin.alg.labels
    assert check_hopf(H).ok
    assert dual_hopf(dual_hopf(H)) == H


def test_dual_and_semisimplicity_are_kept_on_the_hopf_algebra():
    H = group_algebra(F2, GroupTable.cyclic(2))
    assert dual_hopf(H) is dual_hopf(H)
    assert is_semisimple(H) is False and H._semisimple is False
