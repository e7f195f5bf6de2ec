"""Smash products: carrier construction, H*-action (built on first read), ideal correspondence."""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from psl import smash
from psl.algebra import (
    AlgebraMap,
    InvariantViolation,
    NotAnIdeal,
    _apply_raw,
    check_algebra,
    ideal_closure,
    span_products,
)
from psl.cli import main
from psl.exactla import GF, QQ, Matrix, Subspace, _nonzero, unit_vec, zero_vec
from psl.hopf import GroupTable, group_algebra
from psl.paction import (
    NotHStable,
    c4_triple,
    colon_ideal,
    invariant_subalgebra,
    is_global,
    is_h_stable,
    quotient_action,
    trivial_action,
)
from psl.radicals import jacobson_radical
from psl.smash import (
    build_full_smash,
    build_partial_smash,
    phi_ideal,
    psi_ideal,
    tensor_coords,
)
from psl.verify import THEOREMS
from psl.workspace import load_workspace
from helpers import act_vec, dense_comul, dense_mult, fix_a, fix_b, fix_c, fix_d, rand_vec

F2 = GF(2)
F3 = GF(3)
ROOT = Path(__file__).resolve().parent.parent


def expansion_oracle_dim(pa):
    """Brute oracle for the carrier dimension: span of all sum a(h1.1) # h2."""
    H, A = pa.hopf, pa.alg
    m, n = H.dim, A.dim
    vecs = []
    for j in range(n):
        for i in range(m):
            out = list(zero_vec(pa.field, n * m))
            for p in range(m):
                for q in range(m):
                    c = dense_comul(H)[i][p][q]
                    if not c:
                        continue
                    apart = A.multiply(A.basis_vector(j), pa.unit_image(p))
                    for t, xa in enumerate(apart):
                        if xa:
                            out[t * m + q] = out[t * m + q] + c * xa
            vecs.append(tuple(out))
    return Subspace.from_vectors(pa.field, n * m, vecs).dim


def test_full_smash_trivial_action_is_tensor_algebra():
    pa = fix_c()
    full = build_full_smash(pa)
    assert full.unit is not None  # global action: A # H is unital
    assert check_algebra(full).ok
    # (a#h)(b#g) = ab # hg for the trivial action
    m = pa.hopf.dim
    for j in range(3):
        for i in range(m):
            for k in range(3):
                for g in range(m):
                    got = dense_mult(full)[j * m + i][k * m + g]
                    expected = tensor_coords(
                        pa,
                        pa.alg.multiply(pa.alg.basis_vector(j), pa.alg.basis_vector(k)),
                        pa.hopf.alg.multiply(pa.hopf.alg.basis_vector(i), pa.hopf.alg.basis_vector(g)),
                    )
                    assert got == expected


def test_full_smash_fix_a_hand_expansion():
    # Delta(p_1) = p1 (x) p1 + pg (x) pg, so (e_N#p1)(e_N#p1) = (1/2) e_N#p1.
    # The RREF basis of e_N kC2 is 1+g, so e_N itself is the unit vector (1/2).
    pa = fix_a()
    full = build_full_smash(pa)
    assert full.unit is None  # not global: no identity element
    e_p1 = tensor_coords(pa, pa.alg.unit, unit_vec(QQ, 2, 0))
    e_pg = tensor_coords(pa, pa.alg.unit, unit_vec(QQ, 2, 1))
    half = tuple(Fraction(1, 2) * x for x in e_p1)
    assert full.multiply(e_p1, e_p1) == half
    assert full.multiply(e_p1, e_pg) == tuple(Fraction(1, 2) * x for x in e_pg)


def test_full_smash_fix_b_associative_all_triples():
    assert check_algebra(build_full_smash(fix_b())).ok


def test_partial_smash_dims_against_expansion_oracle():
    for pa, expected in ((fix_a(), 1), (fix_b(), 9), (fix_c(), 6), (fix_d(), 2)):
        sp = build_partial_smash(pa)
        assert sp.carrier.dim == expected
        assert expansion_oracle_dim(pa) == expected


def _count_products_span(monkeypatch):
    """Record the ambient size of every span of as many rows as its ambient has columns."""
    seen = []
    span = Subspace._span.__func__

    def counting(cls, field, ambient, rows):
        if len(rows) == ambient:
            seen.append(ambient)
        return span(cls, field, ambient, rows)

    monkeypatch.setattr(Subspace, "_span", classmethod(counting))
    return seen


def test_global_carrier_skips_the_products_span(monkeypatch):
    # A # H is unital, so the carrier is all of A (x) H: no N x N span of e_i (1 # 1)
    for pa in (fix_c(), fix_c(F2), fix_d()):
        full = build_full_smash(pa)
        assert full.unit is not None
        N = full.dim
        u = full.unit
        products = [full.multiply(full.basis_vector(i), u) for i in range(N)]
        seen = _count_products_span(monkeypatch)
        sp = build_partial_smash(pa)
        monkeypatch.undo()
        assert N not in seen
        # the same rows, scalars of the same types, as the span of the products
        spanned = Subspace._span(pa.field, N, products)
        assert sp.coords.rows == spanned.rows and sp.coords.pivots == spanned.pivots
        assert [type(x) for r in sp.coords.rows for x in r] == [type(x) for r in spanned.rows for x in r]


def test_non_unital_full_product_takes_the_span(monkeypatch):
    for pa in (fix_a(), fix_b()):
        N = pa.alg.dim * pa.hopf.dim
        assert build_full_smash(pa).unit is None
        seen = _count_products_span(monkeypatch)
        sp = build_partial_smash(pa)
        monkeypatch.undo()
        assert seen.count(N) == 1
        assert sp.carrier.dim < N


def _globality_actions():
    """T4.26's source at seeds 0-3, every action of the sample and pslbench workspaces."""
    for seed in range(4):
        yield from (pa for _tag, pa in THEOREMS["T4.26"].instances(seed, 100, 6, 5, ()))
    for path in [ROOT / "workspaces" / "sample.json", *sorted((ROOT / "pslbench" / "workspaces").glob("*.json"))]:
        ws = load_workspace(str(path))
        yield from (ws.actions[name] for name in ws.actions)


def _is_unit(full, u) -> bool:
    """Whether u is a two-sided unit of `full`, by the public product on every basis element."""
    return all(
        full.multiply(u, b) == b and full.multiply(b, u) == b
        for b in (full.basis_vector(i) for i in range(full.dim))
    )


def test_full_smash_unit_is_decided_by_globality():
    # A # H is unital, with unit 1_A # 1_H, exactly when the action is global
    seen = {True: 0, False: 0}
    for pa in _globality_actions():
        for action in (pa, build_partial_smash(pa).dual_action):
            full = build_full_smash(action)
            glob = is_global(action)
            u = tensor_coords(action, action.alg.unit, action.hopf.unit)
            assert (full.unit is not None) == glob == _is_unit(full, u)
            assert full.unit in (None, u)
            seen[glob] += 1
    assert seen[True] > 0 and seen[False] > 0


@pytest.mark.parametrize("field", [QQ, F2, F3], ids=repr)
def test_a_wrong_global_answer_fails_the_carrier_check(monkeypatch, field):
    # the unit 1_A # 1_H of a wrongly global A # H makes the carrier all of A (x) H,
    # where it is no right unit
    monkeypatch.setattr(smash, "is_global", lambda pa: True)
    with pytest.raises(InvariantViolation, match="right unit law"):
        build_partial_smash(c4_triple(field))


def test_partial_smash_fix_b_basis_structure():
    # carrier = span{e_j # 1} + {e1#g, e2#g, e1#g^2, e3#g^2, e2#g^3, e3#g^3}
    pa = fix_b()
    sp = build_partial_smash(pa)
    expected = []
    for j in range(3):
        expected.append(tensor_coords(pa, unit_vec(QQ, 3, j), pa.hopf.unit))
    for j, i in ((0, 1), (1, 1), (0, 2), (2, 2), (1, 3), (2, 3)):
        expected.append(tensor_coords(pa, unit_vec(QQ, 3, j), unit_vec(QQ, 4, i)))
    want = Subspace.from_vectors(QQ, 12, expected)
    got = Subspace.from_vectors(QQ, 12, sp.coords.rows)
    assert want == got


def test_carrier_unit_laws():
    for pa in (fix_a(), fix_b(), fix_d()):
        sp = build_partial_smash(pa)
        C = sp.carrier
        for i in range(C.dim):
            b = C.basis_vector(i)
            assert C.multiply(C.unit, b) == b
            assert C.multiply(b, C.unit) == b


def test_include_a_injective_multiplicative():
    for pa in (fix_a(), fix_b(), fix_c()):
        sp = build_partial_smash(pa)
        assert sp.include_A.is_injective()
        assert sp.include_A.is_multiplicative()


def test_dual_action_fix_c_group_like_formula():
    # H = QC2: p_g |> (a#g) = a#g and p_1 |> (a#g) = 0
    pa = fix_c()
    sp = build_partial_smash(pa)
    da = sp.dual_action
    a_g = sp.coords.coords_of(tensor_coords(pa, unit_vec(QQ, 3, 0), unit_vec(QQ, 2, 1)))
    assert da.act_basis(1, a_g) == a_g
    assert da.act_basis(0, a_g) == tuple(zero_vec(QQ, sp.carrier.dim))


def test_dual_action_counit_acts_as_identity():
    for pa in (fix_b(), fix_c()):
        sp = build_partial_smash(pa)
        da = sp.dual_action
        for i in range(sp.carrier.dim):
            b = sp.carrier.basis_vector(i)
            assert act_vec(da, da.hopf.unit, b) == b
        assert is_global(da)


def test_dual_action_invariants_equal_image_of_a():
    for pa in (fix_a(), fix_b(), fix_c()):
        sp = build_partial_smash(pa)
        inv = invariant_subalgebra(sp.dual_action)
        image = Subspace.from_vectors(sp.field, sp.carrier.dim, sp.include_A.matrix.rows)
        assert inv == image


def test_phi_psi_trivial_cases():
    pa = fix_b()
    sp = build_partial_smash(pa)
    z3 = Subspace.zero_space(QQ, 3)
    zc = Subspace.zero_space(QQ, sp.carrier.dim)
    assert phi_ideal(sp, z3).is_zero()
    assert psi_ideal(sp, zc).is_zero()
    assert phi_ideal(sp, Subspace.full_space(QQ, 3)).is_full()


def test_phi_psi_tensor_case():
    pa = fix_c()
    sp = build_partial_smash(pa)
    I = Subspace.from_vectors(QQ, 3, [[1, 0, 0]])
    phi = phi_ideal(sp, I)
    assert phi.dim == I.dim * pa.hopf.dim  # e1 (x) H
    assert psi_ideal(sp, phi) == I


def test_phi_requires_h_stable():
    pa = fix_b()
    sp = build_partial_smash(pa)
    with pytest.raises(NotHStable):
        phi_ideal(sp, Subspace.from_vectors(QQ, 3, [[1, 0, 0]]))
    with pytest.raises(NotAnIdeal):
        psi_ideal(sp, Subspace.from_vectors(QQ, sp.carrier.dim, [sp.carrier.basis_vector(1)]))


def test_phi_psi_roundtrip_random_h_stable_ideals():
    rng = random.Random(101)
    pa = fix_b(F3)
    sp = build_partial_smash(pa)
    for _ in range(10):
        I = colon_ideal(pa, ideal_closure(pa.alg, [rand_vec(rng, F3, 3)]))
        assert psi_ideal(sp, phi_ideal(sp, I)) == I


def test_phi_psi_roundtrip_random_dual_stable_ideals():
    # H*-stable ideals generated from random carrier elements satisfy phi(psi(J)) = J
    rng = random.Random(31)
    pa = fix_b(F3)
    sp = build_partial_smash(pa)
    for _ in range(8):
        vec = tuple(rng.randrange(3) for _ in range(sp.carrier.dim))
        J = colon_ideal(sp.dual_action, ideal_closure(sp.carrier, [vec]))
        assert phi_ideal(sp, psi_ideal(sp, J)) == J


def test_phi_lattice_preservation():
    rng = random.Random(55)
    pa = fix_c(F3, hopf_order=2, alg_dim=4)
    sp = build_partial_smash(pa)
    A = pa.alg
    for _ in range(8):
        I = colon_ideal(pa, ideal_closure(A, [rand_vec(rng, F3, 4)]))
        J = colon_ideal(pa, ideal_closure(A, [rand_vec(rng, F3, 4)]))
        assert phi_ideal(sp, I + J) == phi_ideal(sp, I) + phi_ideal(sp, J)
        assert phi_ideal(sp, I.intersect(J)) == phi_ideal(sp, I).intersect(phi_ideal(sp, J))
        prod = span_products(A, I, J)
        phi_prod = span_products(sp.carrier, phi_ideal(sp, I), phi_ideal(sp, J))
        assert phi_ideal(sp, prod) == phi_prod


def test_remark_jacobson_intersection():
    # J(A #_par H) intersect A <= J(A)
    for pa in (fix_b(), fix_c(), fix_d()):
        sp = build_partial_smash(pa)
        Jc = jacobson_radical(sp.carrier).radical
        JA = jacobson_radical(pa.alg).radical
        image_JA = Subspace.from_vectors(
            sp.field, sp.carrier.dim, [sp.include_a(r) for r in JA.rows]
        )
        image_A = Subspace.from_vectors(sp.field, sp.carrier.dim, sp.include_A.matrix.rows)
        assert Jc.intersect(image_A) <= image_JA


def smash_quotient_map(sp, I) -> AlgebraMap:
    """The carrier of A #_par H onto the carrier of (A/I) #_par H, for H-stable I."""
    pa = sp.pa
    qpa, proj = quotient_action(pa, I)
    sq = build_partial_smash(qpa)
    m = pa.hopf.dim
    # e_j (x) h_i |-> proj(e_j) (x) h_i on A (x) H
    images = [_nonzero(r) for r in proj.matrix.rows]
    lift = [tuple((t * m + i, x) for t, x in images[j]) for j in range(pa.alg.dim) for i in range(m)]
    N = qpa.alg.dim * m
    rows = [sq.coords.coords_of(_apply_raw(lift, _nonzero(r), N)) for r in sp.coords.rows]
    assert None not in rows, "an image lies outside the quotient's carrier"
    amap = AlgebraMap(sp.carrier, sq.carrier, Matrix._of_raw(sp.field, tuple(rows), sq.carrier.dim))
    assert amap.is_multiplicative()
    return amap


def test_smash_quotient_map_kernel_is_phi():
    pa = fix_b(F3)
    sp = build_partial_smash(pa)
    rng = random.Random(7)
    for _ in range(5):
        I = colon_ideal(pa, ideal_closure(pa.alg, [rand_vec(rng, F3, 3)]))
        if I.is_full():
            continue
        assert smash_quotient_map(sp, I).matrix.left_kernel() == phi_ideal(sp, I)


def test_subdirect_product_kernels():
    # H-stable ideals with I1 /\ I2 = 0 give carrier projections with trivial joint kernel
    pa = fix_c(F3, hopf_order=2, alg_dim=3)
    sp = build_partial_smash(pa)
    I1 = Subspace.from_vectors(F3, 3, [[1, 0, 0]])
    I2 = Subspace.from_vectors(F3, 3, [[0, 1, 0], [0, 0, 1]])
    assert I1.intersect(I2).is_zero()
    m1 = smash_quotient_map(sp, I1)
    m2 = smash_quotient_map(sp, I2)
    assert m1.matrix.left_kernel().intersect(m2.matrix.left_kernel()).is_zero()


# ---------------------------------------------------------------------------
# the dual H*-action is built, and its axioms checked, on first read only

BENCH_WORKSPACES = sorted((ROOT / "pslbench" / "workspaces").glob("*.json"))


def record_smash_builds(monkeypatch) -> tuple[list, list]:
    """The smash products built from now on, and the actions whose axioms smash.py checks, in order."""
    built, checked = [], []
    build, check = smash._build_partial_smash, smash.check_partial_action

    def recorded_build(pa):
        built.append(build(pa))
        return built[-1]

    def recorded_check(action):
        checked.append(action)
        return check(action)

    monkeypatch.setattr(smash, "_build_partial_smash", recorded_build)
    monkeypatch.setattr(smash, "check_partial_action", recorded_check)
    return built, checked


def test_building_a_smash_product_builds_no_dual_action(monkeypatch):
    built, checked = record_smash_builds(monkeypatch)
    for pa in (fix_a(), fix_b(), fix_c(), fix_d(), c4_triple(F3)):
        assert build_partial_smash(pa)._dual is None
    assert len(built) == 5 and checked == []


def run_command(argv: list) -> None:
    """Run a command, on every action of its workspace when it names one."""
    if "--workspace" in argv:
        for name in load_workspace(argv[-1]).actions:
            assert main([*argv, name, "--output", "json"]) == 0
    else:
        assert main([*argv, "--output", "json"]) == 0


def command_id(argv: list) -> str:
    return f"{argv[0]}:{Path(argv[-1]).name}"


@pytest.mark.parametrize(
    "argv",
    [["radicals", "--workspace", str(path)] for path in BENCH_WORKSPACES]
    + [["verify", theorem] for theorem in ("P4.20", "T5.1", "C5.7", "NEG-SS")],
    ids=command_id,
)
def test_commands_that_never_read_the_dual_action_build_none(monkeypatch, capsys, argv):
    built, checked = record_smash_builds(monkeypatch)
    run_command(argv)
    assert built and checked == []
    assert all(sp._dual is None for sp in built)


@pytest.mark.parametrize(
    "argv", [["verify", "T4.26"]] + [["smash", "--workspace", str(path)] for path in BENCH_WORKSPACES], ids=command_id
)
def test_reading_the_dual_action_builds_it_once_per_smash_product(monkeypatch, capsys, argv):
    built, checked = record_smash_builds(monkeypatch)
    run_command(argv)
    assert built and len(checked) == len(built)
    assert [sum(action is sp._dual for action in checked) for sp in built] == [1] * len(built)


def test_second_read_returns_the_kept_dual_action_unchecked(monkeypatch):
    _, checked = record_smash_builds(monkeypatch)
    sp = build_partial_smash(fix_b())
    first = sp.dual_action
    assert sp.dual_action is first and sp._dual is first
    assert checked == [first]
