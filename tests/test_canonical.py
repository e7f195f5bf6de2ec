"""Every scalar psl stores or returns is canonical, and every structure it stores is in kernel form.

A canonical scalar is a plain int (not a bool) in [0, p) over F_p, and over
Q a plain int or a Fraction with denominator > 1 (`helpers.is_canonical`).
The walk covers the vectors, matrices and subspaces of the fixtures, of
seeded random draws and of every workspace object, and the vectors the
public methods return, fed with inputs that are not canonical themselves
(ints outside [0, p); over Q halves, whose sums and products are often
integral Fractions).  The structure tensors are stored only as sparse rows,
whose constants are in kernel form (`helpers.assert_kernel_form`).
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import (
    act_vec,
    assert_kernel_form,
    dense_act,
    fix_a,
    fix_b,
    fix_c,
    fix_d,
    is_canonical,
    lift,
    module_act_vec,
    rho_of,
)
from psl.algebra import product_of_fields
from psl.exactla import GF, QQ, Matrix, Subspace, zero_vec
from psl.hopf import GroupTable, dual_hopf, group_algebra, sweedler_h4
from psl.paction import action_to_coaction
from psl.pmod import (
    extend_left_module,
    extend_right_module,
    from_smash_module,
    irreducible_extension,
    quotient_module,
    regular_module,
    to_smash_module,
)
from psl.smash import build_partial_smash, tensor_coords
from psl.verify import random_partial_action
from psl.workspace import load_workspace

ROOT = Path(__file__).resolve().parent.parent
WORKSPACES = [ROOT / "workspaces" / "sample.json"] + sorted((ROOT / "pslbench" / "workspaces").glob("*.json"))


def assert_canonical(field, value, what):
    """Every scalar in a nested tuple is canonical for the field."""
    if isinstance(value, tuple):
        for x in value:
            assert_canonical(field, x, what)
        return
    assert is_canonical(field, value), f"{what}: {value!r} over {field}"


def raw_input(rng, field, n):
    """A vector of inputs that are valid but not canonical: over Q halves, integral ones held as Fractions."""
    if field.char:
        return tuple(rng.randrange(-3 * field.char, 3 * field.char) for _ in range(n))
    return tuple(Fraction(rng.randint(-6, 6), 2) for _ in range(n))


def check_algebra_object(rng, A):
    f, n = A.field, A.dim
    assert_kernel_form(f, A.terms, "terms")
    if A.unit is not None:
        assert_canonical(f, A.unit, "unit")
    assert_canonical(f, A.multiply(raw_input(rng, f, n), raw_input(rng, f, n)), "multiply")
    assert_canonical(f, zero_vec(f, n) + A.basis_vector(n - 1) if n else (), "basis")


def check_hopf_object(rng, H):
    f, m = H.field, H.dim
    check_algebra_object(rng, H.alg)
    assert_kernel_form(f, H._delta, "_delta")
    assert_canonical(f, H.counit, "counit")
    assert_canonical(f, H.antipode.rows, "antipode")
    x = raw_input(rng, f, m)
    assert_canonical(f, (H.counit_of(x),), "counit_of")


def check_action_object(rng, pa):
    f, n, m = pa.field, pa.alg.dim, pa.hopf.dim
    check_hopf_object(rng, pa.hopf)
    check_algebra_object(rng, pa.alg)
    assert_kernel_form(f, pa._terms, "_terms")
    a, h = raw_input(rng, f, n), raw_input(rng, f, m)
    assert_canonical(f, act_vec(pa, h, a), "act_vec")
    assert_canonical(f, pa.act_basis(m - 1, a), "act_basis")
    assert_canonical(f, pa.unit_image(0), "unit_image")
    assert_canonical(f, Matrix(f, dense_act(pa)[0]).apply(a), "Matrix.apply")
    pc = action_to_coaction(pa)
    assert_kernel_form(f, pc._terms, "coaction _terms")
    assert_canonical(f, rho_of(pc, a), "rho_of")
    sp = build_partial_smash(pa)
    check_algebra_object(rng, sp.full)
    check_algebra_object(rng, sp.carrier)
    assert_kernel_form(f, sp.dual_action._terms, "dual _terms")
    assert_canonical(f, sp.unit_element, "smash unit")
    assert_canonical(f, sp.coords.rows, "carrier rows")
    member = lift(sp.coords, raw_input(rng, f, sp.coords.dim))
    assert_canonical(f, member, "_combine")
    assert_canonical(f, sp.coords.coords_of(member), "carrier coords_of")
    assert_canonical(f, sp.project(raw_input(rng, f, sp.full.dim)), "project")
    assert_canonical(f, sp.include_a(a), "include_a")
    assert_canonical(f, tensor_coords(pa, a, h), "tensor_coords")
    if sp.carrier.dim <= 6:
        for side in ("right", "left"):
            V = regular_module(sp.carrier, side)
            M = from_smash_module(sp, V)
            w = raw_input(rng, f, M.dim)
            assert_kernel_form(f, V._terms, "module _terms")
            assert_canonical(f, module_act_vec(V, raw_input(rng, f, V.algebra.dim), w), "module act_vec")
            assert_canonical(f, module_act_vec(V, V.algebra.basis_vector(0), w), "module act_vec on a basis element")
            assert_kernel_form(f, M._a_terms, "_a_terms")
            assert_kernel_form(f, M._h_terms, "_h_terms")
            assert_kernel_form(f, to_smash_module(M, sp)._terms, "smash module _terms")


FIXTURES = {
    "FIX-A": fix_a, "FIX-B": fix_b, "FIX-C": fix_c, "FIX-D": fix_d,
    "FIX-A(F3)": lambda: fix_a(GF(3)), "FIX-B(F2)": lambda: fix_b(GF(2)), "FIX-C(F5)": lambda: fix_c(GF(5)),
}


@pytest.mark.parametrize("name", FIXTURES)
def test_fixtures_are_canonical(name):
    check_action_object(random.Random(5), FIXTURES[name]())


@pytest.mark.parametrize("name", FIXTURES)
def test_module_builders_store_kernel_form(name):
    # the modules pmod builds skip the public constructors, so nothing else puts their rows in kernel form
    pa = FIXTURES[name]()
    f, A = pa.field, pa.alg
    # every fixture acts on a product of fields, where the span of e_1 .. e_{n-1} is an ideal
    I = Subspace.from_vectors(f, A.dim, [A.basis_vector(j) for j in range(1, A.dim)])
    V = {side: quotient_module(A, I, side) for side in ("right", "left")}
    extensions = [extend_right_module(pa, V["right"]).module, extend_left_module(pa, V["left"]).module]
    if f.char:
        extensions.append(irreducible_extension(pa, V["right"]).module)
    sp = build_partial_smash(pa)
    smash = [to_smash_module(M, sp) for M in extensions]
    for mod in [regular_module(A, side) for side in V] + list(V.values()) + smash:
        assert_kernel_form(f, mod._terms, f"{name} module _terms")
    for M in extensions + [from_smash_module(sp, mod) for mod in smash]:
        assert_kernel_form(f, M._a_terms + M._h_terms, f"{name} partial module terms")


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)], ids=repr)
def test_random_draws_are_canonical(field):
    rng = random.Random(9100 + field.char)
    for _ in range(12):
        pa = random_partial_action(rng, field, max_carrier=12)
        check_action_object(rng, pa)
        check_hopf_object(rng, dual_hopf(pa.hopf))
    if field.char != 2:
        check_hopf_object(rng, sweedler_h4(field))


@pytest.mark.parametrize("path", WORKSPACES, ids=lambda p: p.name)
def test_workspace_objects_are_canonical(path):
    rng = random.Random(11)
    ws = load_workspace(str(path))
    f = ws.field
    for H in ws.hopf_algebras.values():
        check_hopf_object(rng, H)
    for A in ws.algebras.values():
        check_algebra_object(rng, A)
    for pa in ws.actions.values():
        check_action_object(rng, pa)
    for I in ws.ideals.values():
        assert_canonical(f, I.rows, "ideal")
    for M in ws.modules.values():
        assert_kernel_form(f, M._a_terms + M._h_terms, "module")


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=repr)
def test_containers_store_canonical_rows(field):
    rng = random.Random(3)
    m = Matrix(field, [raw_input(rng, field, 3) for _ in range(2)] + [["7", True, -1]])
    assert_canonical(field, m.rows, "Matrix.rows")
    assert_canonical(field, m.apply(raw_input(rng, field, 3)), "Matrix.apply")
    S = Subspace.from_vectors(field, 3, [raw_input(rng, field, 3)])
    assert_canonical(field, S.rows, "Subspace.rows")
    assert_canonical(field, lift(S, raw_input(rng, field, S.dim)), "_combine")
    assert_canonical(field, S.reduce(raw_input(rng, field, 3)), "Subspace.reduce")
    assert_canonical(field, S.coords_of(S.rows[0]), "Subspace.coords_of")
    assert_canonical(field, (field.zero, field.one), "field")


def test_integral_results_of_fraction_inputs_are_ints():
    # 1/2 + 1/2, 3/2 - 1/2 and 2 * 1/2 are Fraction(1) until they are brought to the one form
    half, one = Fraction(1, 2), Fraction(2, 2)
    S = Subspace.from_vectors(QQ, 2, [[1, half]])
    H = group_algebra(QQ, GroupTable.cyclic(2))
    results = {
        "Subspace.reduce": (S.reduce((one, 3 * half)), (0, 1)),
        "Subspace.coords_of": (S.coords_of((2 * one, one)), (2,)),
        "Matrix.apply": (Matrix(QQ, [[1], [1]]).apply((half, half)), (1,)),
        "Algebra.multiply": (product_of_fields(QQ, 2).multiply((half, 3 * half), (2, 2)), (1, 3)),
        "counit_of": ((H.counit_of((half, half)),), (1,)),
    }
    for what, (got, expected) in results.items():
        assert got == expected, what
        assert_canonical(QQ, got, what)
