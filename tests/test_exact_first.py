"""The exact-integer shortcuts of the axiom checkers against their definitions.

Over F_p, `_vanishes` and `_differ` decide on the exact ints first (a list of
zeros vanishes, equal lists are equal) and reduce mod p only when that test
fails; hypothesis draws unreduced lists that mix exact zeros, nonzero
multiples of p and pairs that differ only by multiples of p, where the two
tests disagree and the mod-p scan must decide.  `is_global` runs on the
sparse action rows and must agree with the boxed definition
h_i . 1_A = eps(h_i) 1_A on the T4.26 source, the checked-in workspaces and
their dual actions, and read False once one h_i . 1_A entry is moved.
`check_partial_action` reads (h_q h_g) . e_k off the action where h_q h_g is
a basis element with coefficient 1 and computes it otherwise; Sweedler's H_4
over F_3 and F_5 (x g = -g x, coefficient p - 1) takes the computed branch,
acting trivially and by a g-derivation on field^2, and must give the boxed
loops' failure tuples on both and on corrupted copies.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

import boxed_reference as ref
from helpers import dense_act
from psl.algebra import _differ, _vanishes, product_of_fields
from psl.exactla import GF, QQ
from psl.hopf import GroupTable, group_algebra, sweedler_h4
from psl.paction import PartialAction, check_partial_action, is_global, trivial_action
from psl.smash import build_partial_smash
from psl.verify import THEOREMS
from psl.workspace import load_workspace
from test_structure_kernel import corrupt

ROOT = Path(__file__).resolve().parent.parent
SETTINGS = hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
PRIMES = (2, 3, 5, 7, 13)
WORKSPACES = [ROOT / "workspaces" / "sample.json"] + sorted((ROOT / "pslbench" / "workspaces").glob("*.json"))


def entries(p):
    """Unreduced ints: exact zeros, nonzero multiples of p (also negative), and any others."""
    return st.one_of(
        st.just(0),
        st.integers(-4, 4).filter(bool).map(lambda k: k * p),
        st.integers(-3 * p, 3 * p),
    )


@st.composite
def lists_mod_p(draw):
    p = draw(st.sampled_from(PRIMES))
    return p, draw(st.lists(entries(p), max_size=9))


@st.composite
def pairs_mod_p(draw):
    """(p, u, v) with v = u + delta, delta mixing zeros, multiples of p and others."""
    p, u = draw(lists_mod_p())
    delta = draw(st.lists(entries(p), min_size=len(u), max_size=len(u)))
    return p, u, [a + d for a, d in zip(u, delta)]


RATIONALS = st.one_of(st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4))


@hypothesis.given(lists_mod_p())
@SETTINGS
def test_vanishes_is_zero_mod_p(case):
    p, acc = case
    assert _vanishes(acc, p) == all(x % p == 0 for x in acc)


@hypothesis.given(pairs_mod_p())
@SETTINGS
def test_differ_is_unequal_mod_p(case):
    p, u, v = case
    assert _differ(u, v, p) == any((a - b) % p for a, b in zip(u, v))
    assert _differ(u, list(u), p) is False


@hypothesis.given(st.lists(RATIONALS, max_size=9))
@SETTINGS
def test_vanishes_over_q(acc):
    assert _vanishes(acc, 0) == all(x == 0 for x in acc)


@hypothesis.given(st.lists(st.tuples(RATIONALS, RATIONALS, st.booleans()), max_size=9))
@SETTINGS
def test_differ_over_q(triples):
    # an equal pair holds ints on one side and Fractions on the other
    u = [a for a, _, _ in triples]
    v = [Fraction(a) if same else b for a, b, same in triples]
    assert _differ(u, v, 0) == any(a != b for a, b in zip(u, v))


def test_exact_test_falls_through_to_the_mod_p_scan():
    assert _vanishes([3, -6, 0], 3) is True
    assert _vanishes([3, -6, 1], 3) is False
    assert _differ([1, 5], [1, 2], 3) is False
    assert _differ([1, 5], [1, 3], 3) is True


def boxed_is_global(pa):
    """h_i . 1_A == eps(h_i) 1_A for every basis h_i, through the boxed loops."""
    field, unit = pa.field, pa.alg.unit
    return all(
        ref.act_basis(pa, i, unit) == ref.unbox(tuple(ref.box(field, e) * u for u in ref.bvec(field, unit)))
        for i, e in enumerate(pa.hopf.counit)
    )


def moved_unit_image(rng, pa):
    """A copy of pa with one entry of some h_i . 1_A moved by a nonzero scalar.

    It moves act[i][j][k] by c / u_j for a coordinate u_j != 0 of 1_A, so
    h_i . 1_A moves by c at k and nothing else moves.
    """
    field, unit = pa.field, pa.alg.unit
    p = field.char
    act = [[list(v) for v in row] for row in dense_act(pa)]
    i = rng.randrange(pa.hopf.dim)
    j = rng.choice([t for t, u in enumerate(unit) if u])
    k = rng.randrange(pa.alg.dim)
    if p:
        act[i][j][k] += rng.randrange(1, p) * pow(unit[j], -1, p)
    else:
        act[i][j][k] += Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3)) / unit[j]
    return PartialAction(pa.hopf, pa.alg, act)


def global_check_actions():
    """Every action of the T4.26 source at seeds 0-3 and of the checked-in workspaces, then their dual actions."""
    actions = [pa for seed in range(4) for _, pa in THEOREMS["T4.26"].instances(seed, 100, 6, 5, ())]
    for path in WORKSPACES:
        ws = load_workspace(path)
        actions += [ws.actions[name] for name in ws.actions]
    return actions + [build_partial_smash(pa).dual_action for pa in actions]


def test_is_global_matches_the_boxed_definition():
    rng = random.Random(2026)
    actions = global_check_actions()
    verdicts = [is_global(pa) for pa in actions]
    assert verdicts == [boxed_is_global(pa) for pa in actions]
    moved = [moved_unit_image(rng, pa) for pa, ok in zip(actions, verdicts) if ok]
    assert not any(is_global(pa) for pa in moved)
    assert not any(boxed_is_global(pa) for pa in moved)
    # every dual action is global; the sources hold partial actions too
    half = len(actions) // 2
    assert all(verdicts[half:]) and not all(verdicts[:half])
    assert len(moved) >= 500


def test_group_algebra_products_are_basis_elements():
    """Every h_q h_g in kC_n is one h_r with coefficient 1, so PA4 reads the action's rows."""
    for field in (QQ, GF(2), GF(5)):
        for n in (2, 3, 4, 6):
            terms = group_algebra(field, GroupTable.cyclic(n)).alg.terms
            assert all(len(x) == 1 and x[0][1] == 1 for row in terms for x in row)


def sweedler_actions(field):
    """H_4 acting on field^2 trivially, and globally: g swaps the two factors, and x acts as
    the inner g-derivation a |-> c a - g(a) c for c = (1, -1), which gx repeats."""
    H = sweedler_h4(field)
    A = product_of_fields(field, 2)
    yield trivial_action(H, A)
    yield PartialAction(H, A, [[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 1], [-1, -1]], [[1, 1], [-1, -1]]])


@pytest.mark.parametrize("p", [3, 5])
def test_sweedler_products_take_the_computed_branch(p):
    field = GF(p)
    rng = random.Random(9600 + p)
    passing = failing = 0
    for pa in sweedler_actions(field):
        # x g = -g x: a basis element with coefficient p - 1
        assert pa.hopf.alg.terms[2][1] == ((3, p - 1),)
        actions = [pa] + [PartialAction(pa.hopf, pa.alg, corrupt(rng, field, dense_act(pa))) for _ in range(3)]
        for act in actions:
            got = check_partial_action(act)
            assert got == ref.check_partial_action(act), act
            passing += got.ok
            failing += not got.ok
    assert passing >= 2 and failing >= 3
