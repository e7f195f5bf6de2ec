"""The line walk of the invariant-subspace enumeration against a plain walk.

`exactla._line_closures` walks the lines of F_p^n latest lead first and
lets each spin take whole the closure of any line walked before it that the
spin meets as a new basis row.  The oracle here is the plain walk: every line
is spun from scratch by `_spin` with no map, and the lattice is closed under
joins by repeated pairwise sums.  `_invariant_lattice` must return the same
lattice, in canonical order, and `pmod._exhaustively_irreducible` must agree
with it, on seeded random sparse operator sets over F_2, F_3 and F_5 and on
the H*-stable ideals of the dim-9 carriers of the translation actions of
(F_2C_3)* and (F_3C_3)*, and on a dense irreducible pair over F_5.  A work count (`_Echelon.add` calls per line, no
clock) guards the reuse itself, and the enumeration budget must be refused
before any line is listed or spun.
"""

import random
from functools import partial

import pytest

from psl import exactla
from psl.algebra import _mult_operators
from psl.exactla import (
    GF,
    DimensionTooLarge,
    Subspace,
    _invariant_lattice,
    _projective_raw,
    _spin,
    enumerate_invariant_subspaces,
)
from psl.hopf import GroupTable
from psl.paction import dual_group_translation_action
from psl.pmod import _exhaustively_irreducible
from psl.smash import build_partial_smash


def plain_lattice(field, n, ops):
    """Every line spun from scratch with no map, then all joins, in canonical order."""
    zero = Subspace.zero_space(field, n)
    found = {zero.rows: zero}
    for v in _projective_raw(field.char, n):
        S = _spin(field, n, [v], ops)
        found.setdefault(S.rows, S)
    grown = True
    while grown:
        grown = False
        for a in list(found.values()):
            for b in list(found.values()):
                s = a + b
                if s.rows not in found:
                    found[s.rows] = s
                    grown = True
    return sorted(found.values(), key=Subspace.sort_key)


def sparse_operators(rng, p, n):
    """1-3 operators on F_p^n as sparse rows, each entry nonzero with a drawn density."""
    ops = []
    for _ in range(rng.randint(1, 3)):
        density = rng.choice((0.15, 0.3, 0.5))
        ops.append(tuple(
            tuple((k, rng.randrange(1, p)) for k in range(n) if rng.random() < density) for _ in range(n)
        ))
    return ops


def carrier_case(p):
    """(field, 9, operators) whose invariant subspaces are the H*-stable ideals of the carrier of the
    translation action of (F_pC_3)*: its two-sided multiplications and the H*-action on it."""
    dual = build_partial_smash(dual_group_translation_action(GF(p), GroupTable.cyclic(3))).dual_action
    return dual.field, dual.alg.dim, _mult_operators(dual.alg, "two_sided") + dual._terms


def dense_irreducible_pair():
    """Two seeded operators on F_5^6 with about 70% of their entries nonzero; they leave no proper
    subspace invariant.  Few of their raw images have first nonzero entry 1."""
    rng = random.Random(32)
    return GF(5), 6, [
        tuple(tuple((k, rng.randrange(1, 5)) for k in range(6) if rng.random() < 0.7) for _ in range(6))
        for _ in range(2)
    ]


@pytest.mark.parametrize("p, sizes", [(2, range(2, 7)), (3, range(2, 6)), (5, range(2, 5))])
def test_walk_matches_the_plain_walk_on_random_operator_sets(p, sizes):
    field = GF(p)
    rng = random.Random(3100 + p)
    irreducible = nested = 0
    for n in sizes:
        for _ in range(12):
            ops = sparse_operators(rng, p, n)
            expected = plain_lattice(field, n, ops)
            assert _invariant_lattice(field, n, ops) == expected, (p, n, ops)
            assert _exhaustively_irreducible(field, n, ops) == (len(expected) == 2), (p, n, ops)
            irreducible += len(expected) == 2
            nested += len(expected) >= 3
    # the draws reach both irreducible sets and lattices with proper nonzero members
    assert irreducible >= 5 and nested >= 20, (irreducible, nested)


IRREDUCIBLE = [partial(carrier_case, 2), partial(carrier_case, 3), dense_irreducible_pair]


@pytest.mark.parametrize("case", IRREDUCIBLE)
def test_walk_matches_the_plain_walk_on_irreducible_sets(case):
    field, n, ops = case()
    expected = plain_lattice(field, n, ops)
    assert [S.dim for S in expected] == [0, n]
    assert _invariant_lattice(field, n, ops) == expected
    assert _exhaustively_irreducible(field, n, ops) is True


@pytest.mark.parametrize("case", IRREDUCIBLE)
def test_walk_spins_at_most_three_vectors_per_line_on_irreducible_sets(case, monkeypatch):
    # spinning each line from scratch costs 23.9 (F_2C_3) and 16.3 (F_3C_3) adds per line on the
    # carriers; keying the map on the raw operator images in place of the echelon rows costs 5.1
    # on the dense pair
    field, n, ops = case()
    calls = [0]
    real = exactla._Echelon.add

    def counting(self, v):
        calls[0] += 1
        return real(self, v)

    monkeypatch.setattr(exactla._Echelon, "add", counting)
    lattice = _invariant_lattice(field, n, ops)
    p = field.char
    lines = (p ** n - 1) // (p - 1)
    assert len(lattice) == 2
    assert calls[0] <= 3 * lines, calls[0] / lines


def test_the_line_budget_is_refused_before_any_line_is_listed_or_spun(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the walk started")

    monkeypatch.setattr(exactla, "_spin", fail)
    monkeypatch.setattr(exactla, "_projective_raw", fail)
    field, n = GF(2), 18  # 2^18 - 1 lines, above ENUM_BUDGET = 2^17
    cycle = tuple((((l + 1) % n, 1),) for l in range(n))
    with pytest.raises(DimensionTooLarge):
        _invariant_lattice(field, n, [cycle])
    with pytest.raises(DimensionTooLarge):
        enumerate_invariant_subspaces(field, n, [])
    with pytest.raises(DimensionTooLarge):
        _exhaustively_irreducible(field, n, [cycle])
