"""Postconditions of the smash and partial-action layers raise InvariantViolation.

Each case breaks one helper with monkeypatch so that exactly one check fires;
the checks are real raises, so `python -O` keeps them.
"""

import pytest

import psl.paction as paction
import psl.smash as smash
from psl.algebra import AlgebraMap, InvariantViolation
from psl.exactla import QQ, Matrix, Subspace
from psl.hopf import GroupTable, group_algebra
from psl.paction import colon_ideal, dual_group_idempotent, invariant_subalgebra, trivial_action
from psl.smash import build_partial_smash, psi_ideal, smash_quotient_map
from psl.verify import truncated_polynomial_algebra
from helpers import fix_c


def full_ideal(sp):
    return Subspace.full_space(QQ, sp.carrier.dim)


def poly_action():
    """QC2 acting trivially on Q[x]/(x^3)."""
    return trivial_action(group_algebra(QQ, GroupTable.cyclic(2)), truncated_polynomial_algebra(QQ, 3))


def carrier_not_closed(monkeypatch):
    pa = fix_c()
    monkeypatch.setattr(Subspace, "coords_of", lambda self, vec: None)
    return lambda: build_partial_smash(pa)


def a_not_embedded(monkeypatch):
    pa = fix_c()
    monkeypatch.setattr(AlgebraMap, "is_injective", lambda self: False)
    return lambda: build_partial_smash(pa)


def a_map_not_multiplicative(monkeypatch):
    pa = fix_c()
    monkeypatch.setattr(AlgebraMap, "is_multiplicative", lambda self: False)
    return lambda: build_partial_smash(pa)


def dual_action_not_global(monkeypatch):
    pa = fix_c()
    monkeypatch.setattr(smash, "is_global", lambda pa: False)
    return lambda: build_partial_smash(pa)


def psi_escapes_a(monkeypatch):
    sp = build_partial_smash(fix_c())
    monkeypatch.setattr(Matrix, "solve_left", lambda self, vec: None)
    return lambda: psi_ideal(sp, full_ideal(sp))


def psi_not_h_stable(monkeypatch):
    sp = build_partial_smash(fix_c())
    monkeypatch.setattr(smash, "is_h_stable", lambda pa, I: False)
    return lambda: psi_ideal(sp, full_ideal(sp))


def quotient_map_not_multiplicative(monkeypatch):
    sp = build_partial_smash(fix_c())
    real = AlgebraMap.is_multiplicative
    # only the map out of sp's carrier fails; the quotient's own A -> A#H stays intact
    monkeypatch.setattr(AlgebraMap, "is_multiplicative", lambda self: self.source is not sp.carrier and real(self))
    return lambda: smash_quotient_map(sp, Subspace.from_vectors(QQ, 3, [[1, 0, 0]]))


def induced_product_escapes(monkeypatch):
    monkeypatch.setattr(Subspace, "coords_of", lambda self, vec: None)
    return lambda: dual_group_idempotent(QQ, GroupTable.cyclic(2), [0, 1])


def invariants_lose_unit(monkeypatch):
    pa = poly_action()
    monkeypatch.setattr(Matrix, "left_kernel", lambda self: Subspace.from_vectors(QQ, 3, [[0, 1, 0]]))
    return lambda: invariant_subalgebra(pa)


def invariants_not_closed(monkeypatch):
    pa = poly_action()
    span_1_x = Subspace.from_vectors(QQ, 3, [[1, 0, 0], [0, 1, 0]])
    monkeypatch.setattr(Matrix, "left_kernel", lambda self: span_1_x)
    return lambda: invariant_subalgebra(pa)


def colon_leaves_i(monkeypatch):
    pa = fix_c()
    monkeypatch.setattr(Subspace, "__le__", lambda self, other: False)
    return lambda: colon_ideal(pa, Subspace.full_space(QQ, 3))


def colon_not_h_stable(monkeypatch):
    pa = fix_c()
    monkeypatch.setattr(paction, "is_h_stable", lambda pa, I: False)
    return lambda: colon_ideal(pa, Subspace.full_space(QQ, 3))


@pytest.mark.parametrize("breakage, message", [
    (carrier_not_closed, "carrier is not multiplicatively closed"),
    (a_not_embedded, "A does not embed"),
    (a_map_not_multiplicative, "A -> A#H is not an algebra map"),
    (dual_action_not_global, "must be global"),
    (psi_escapes_a, "intersection escaped the image of A"),
    (psi_not_h_stable, "psi image must be an H-stable ideal"),
    (quotient_map_not_multiplicative, "smash quotient map is not an algebra map"),
    (induced_product_escapes, "product escaped the right ideal"),
    (invariants_lose_unit, "invariant subalgebra lost the unit"),
    (invariants_not_closed, "invariant subalgebra not closed"),
    (colon_leaves_i, "colon ideal is not inside I"),
    (colon_not_h_stable, "colon ideal is not H-stable"),
])
def test_broken_postcondition_raises(monkeypatch, breakage, message):
    call = breakage(monkeypatch)
    with pytest.raises(InvariantViolation, match=message):
        call()
