"""Subspace membership, residuals and coordinates against dense elimination.

`Subspace` answers these from the non-pivot entries of its RREF basis (its
tails).  The oracle here is the dense elimination they replaced: subtract
v_c times the basis row of pivot c for every pivot, walking every entry of
every row, then reduce.  hypothesis draws subspaces over F_2, F_3, F_5 and Q
(zero and full spaces included) and vectors that are members, non-members,
and over F_p unreduced, and every method must agree with the oracle.

`Subspace._coords` returns the coordinates in kernel form: the sparse
nonzero (s, c), each c canonical (`helpers.is_canonical`: reduced mod p,
and over Q an int where c is integral).  The public `coords_of` returns
the same scalars dense.
"""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from psl.exactla import GF, QQ, Subspace
from helpers import assert_kernel_form, is_canonical, lift

SETTINGS = hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
FIELDS = (GF(2), GF(3), GF(5), QQ)


def oracle_residual(space, vec):
    """vec minus v_c times the row of pivot c, for every pivot, over every entry of the row."""
    p = space.field.char
    v = list(vec)
    for row, c in zip(space.rows, space.pivots):
        f = v[c]
        if f:
            for j, x in enumerate(row):
                if x:
                    v[j] -= f * x
    return [x % p for x in v] if p else v


def oracle_coords(space, vec):
    if any(oracle_residual(space, vec)):
        return None
    p = space.field.char
    return tuple(vec[c] % p if p else Fraction(vec[c]) for c in space.pivots)


def kernel_form(coords):
    """The nonzero (s, c) of dense coordinates, or None for None."""
    if coords is None:
        return None
    return tuple((s, c) for s, c in enumerate(coords) if c)


def canonical(field, vec):
    return all(is_canonical(field, x) for x in vec)


def scalars(field, unreduced=False):
    if field.char:
        bound = 3 * field.char if unreduced else field.char - 1
        return st.integers(-bound if unreduced else 0, bound)
    values = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    # the kernel hands Q vectors whose integral entries are ints
    return st.one_of(values, st.integers(-3, 3)) if unreduced else values


@st.composite
def cases(draw):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(0, 7))
    kind = draw(st.sampled_from(("zero", "full", "span", "span")))
    if kind == "zero":
        space = Subspace.zero_space(field, n)
    elif kind == "full":
        space = Subspace.full_space(field, n)
    else:
        k = draw(st.integers(1, n + 1))
        space = Subspace.from_vectors(
            field, n, [draw(st.lists(scalars(field), min_size=n, max_size=n)) for _ in range(k)]
        )
    coeffs = draw(st.lists(scalars(field), min_size=space.dim, max_size=space.dim))
    member = list(lift(space, coeffs))
    other = draw(st.lists(scalars(field), min_size=n, max_size=n))
    raw = draw(st.lists(scalars(field, unreduced=True), min_size=n, max_size=n))
    # a member with unreduced entries: add a multiple of p, or over Q turn integral entries into ints
    shift = draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
    if field.char:
        raw_member = [x + field.char * s for x, s in zip(member, shift)]
    else:
        raw_member = [x.numerator if x.denominator == 1 else x for x in member]
    return space, member, other, raw, raw_member


@SETTINGS
@hypothesis.given(cases())
def test_internal_methods_agree_with_dense_elimination(case):
    space, *vectors = case
    for vec in vectors:
        expected = oracle_residual(space, vec)
        assert space._residual(vec) == expected
        assert space._holds(vec) == (not any(expected))
        coords = space._coords(vec)
        expected = oracle_coords(space, vec)
        assert coords == kernel_form(expected)
        if coords is not None:
            assert_kernel_form(space.field, coords, "_coords")
            assert list(lift(space, expected)) == [x % space.field.char if space.field.char else x for x in vec]


@SETTINGS
@hypothesis.given(cases())
def test_public_methods_agree_with_dense_elimination(case):
    space, member, other, _, _ = case
    assert space.contains(member) and space.coords_of(member) is not None
    for vec in (member, other):
        expected = oracle_residual(space, vec)
        reduced = space.reduce(vec)
        assert list(reduced) == expected and canonical(space.field, reduced)
        assert space.contains(vec) == (not any(expected))
        coords = space.coords_of(vec)
        assert coords == oracle_coords(space, vec)
        assert coords is None or canonical(space.field, coords)


@SETTINGS
@hypothesis.given(cases())
def test_internal_coordinates_are_the_kernel_form_of_the_public_ones(case):
    space, *vectors = case
    for vec in vectors:  # the raw vectors hold unreduced ints over F_p and ints over Q
        coords = space._coords(vec)
        assert (coords is None) == (not space._holds(vec))
        if coords is not None:
            public = space.coords_of(vec)
            assert canonical(space.field, public) and coords == kernel_form(public)
            assert_kernel_form(space.field, coords, "_coords")


@pytest.mark.parametrize("field", FIELDS)
def test_full_and_zero_spaces(field):
    full, zero = Subspace.full_space(field, 4), Subspace.zero_space(field, 4)
    vec = [field.of(x) for x in (1, 2, 0, 3)]
    assert full._tails() == ()
    assert full.coords_of(vec) == tuple(vec)
    assert full.reduce(vec) == (field.zero,) * 4
    assert [j for j, _ in zero._tails()] == [0, 1, 2, 3]
    assert zero.reduce(vec) == tuple(vec) and zero.coords_of(vec) is None
    assert zero.coords_of([0, 0, 0, 0]) == ()
