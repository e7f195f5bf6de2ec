"""Postconditions of the smash, partial-action, Hopf and module layers raise InvariantViolation.

Each case breaks one helper with monkeypatch so that exactly one check fires;
the checks are real raises, so `python -O` keeps them.
"""

from fractions import Fraction

import pytest

import psl.hopf as hopf
import psl.paction as paction
import psl.pmod as pmod
import psl.smash as smash
from psl.algebra import AlgebraMap, CheckReport, InvariantViolation
from psl.exactla import GF, QQ, Matrix, Subspace
from psl.hopf import GroupTable, HopfAlgebra, group_algebra, is_semisimple
from psl.paction import (
    c4_triple,
    colon_ideal,
    dual_group_idempotent,
    dual_group_translation_action,
    induce_from_ideal,
    invariant_subalgebra,
    quotient_action,
    trivial_action,
)
from psl.pmod import (
    annihilator,
    extend_left_module,
    extend_right_module,
    from_smash_module,
    irreducible_extension,
    quotient_module,
    regular_module,
)
from psl.smash import build_partial_smash, psi_ideal
from psl.verify import truncated_polynomial_algebra
from helpers import fix_b, fix_c

F5 = GF(5)
FAILED = CheckReport(False, ("broken on purpose",))


def full_ideal(sp):
    return Subspace.full_space(QQ, sp.carrier.dim)


def poly_action():
    """QC2 acting trivially on Q[x]/(x^3)."""
    return trivial_action(group_algebra(QQ, GroupTable.cyclic(2)), truncated_polynomial_algebra(QQ, 3))


def carrier_not_closed(monkeypatch):
    pa = fix_c()
    monkeypatch.setattr(Subspace, "_coords", lambda self, vec: None)
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
    return lambda: build_partial_smash(pa).dual_action


def psi_not_h_stable(monkeypatch):
    sp = build_partial_smash(fix_c())
    monkeypatch.setattr(smash, "is_h_stable", lambda pa, I: False)
    return lambda: psi_ideal(sp, full_ideal(sp))


def induced_product_escapes(monkeypatch):
    monkeypatch.setattr(Subspace, "_coords", lambda self, vec: None)
    return lambda: dual_group_idempotent(QQ, GroupTable.cyclic(2), [0, 1])


def invariants_lose_unit(monkeypatch):
    pa = poly_action()
    monkeypatch.setattr(paction, "_null_span", lambda *args: Subspace.from_vectors(QQ, 3, [[0, 1, 0]]))
    return lambda: invariant_subalgebra(pa)


def invariants_not_closed(monkeypatch):
    pa = poly_action()
    span_1_x = Subspace.from_vectors(QQ, 3, [[1, 0, 0], [0, 1, 0]])
    monkeypatch.setattr(paction, "_null_span", lambda *args: span_1_x)
    return lambda: invariant_subalgebra(pa)


def colon_leaves_i(monkeypatch):
    pa = fix_c()
    monkeypatch.setattr(Subspace, "__le__", lambda self, other: False)
    return lambda: colon_ideal(pa, Subspace.full_space(QQ, 3))


def colon_not_h_stable(monkeypatch):
    pa = fix_c()
    monkeypatch.setattr(paction, "is_h_stable", lambda pa, I: False)
    return lambda: colon_ideal(pa, Subspace.full_space(QQ, 3))


def fail_checks(monkeypatch, module, name):
    monkeypatch.setattr(module, name, lambda *args, **kwargs: FAILED)


def c4_triple_fails(monkeypatch):
    fail_checks(monkeypatch, paction, "check_partial_action")
    return lambda: c4_triple(QQ)


def translation_action_fails(monkeypatch):
    fail_checks(monkeypatch, paction, "check_partial_action")
    return lambda: dual_group_translation_action(QQ, GroupTable.cyclic(2))


def induced_action_fails(monkeypatch):
    glob = dual_group_translation_action(QQ, GroupTable.cyclic(2))
    fail_checks(monkeypatch, paction, "check_partial_action")
    half = Fraction(1, 2)
    return lambda: induce_from_ideal(glob, (half, half))


def quotient_action_fails(monkeypatch):
    pa = fix_c()
    fail_checks(monkeypatch, paction, "check_partial_action")
    return lambda: quotient_action(pa, Subspace.from_vectors(QQ, 3, [[1, 0, 0]]))


def carrier_fails_axioms(monkeypatch):
    pa = fix_c()
    fail_checks(monkeypatch, smash, "check_algebra")
    return lambda: build_partial_smash(pa)


def dual_action_fails_axioms(monkeypatch):
    pa = fix_c()
    fail_checks(monkeypatch, smash, "check_partial_action")
    return lambda: build_partial_smash(pa).dual_action


def integrals_not_one_dimensional(monkeypatch):
    H = group_algebra(QQ, GroupTable.cyclic(2))
    monkeypatch.setattr(hopf, "left_integrals", lambda H: Subspace.zero_space(QQ, 2))
    return lambda: is_semisimple(H)


def right_v():
    """F5^3 under C2 acting trivially, and its simple right module A/(e2, e3)."""
    pa = fix_c(F5)
    return pa, quotient_module(pa.alg, Subspace.from_vectors(F5, 3, [[0, 1, 0], [0, 0, 1]]), "right")


def left_v():
    pa = fix_c(F5)
    return pa, quotient_module(pa.alg, Subspace.from_vectors(F5, 3, [[0, 1, 0], [0, 0, 1]]), "left")


def after(monkeypatch, module, name, flag):
    """Wrap module.name so that `flag` is set once it has returned."""
    real = getattr(module, name)

    def wrapped(*args, **kwargs):
        result = real(*args, **kwargs)
        flag.append(True)
        return result

    monkeypatch.setattr(module, name, wrapped)


def coords_fail_after(monkeypatch, module, name):
    """Subspace._coords finds nothing once module.name has returned."""
    flag = []
    after(monkeypatch, module, name, flag)
    real = Subspace._coords
    monkeypatch.setattr(Subspace, "_coords", lambda self, vec: None if flag else real(self, vec))


def extension_not_invariant(monkeypatch):
    pa, V = right_v()
    monkeypatch.setattr(Subspace, "_coords", lambda self, vec: None)
    return lambda: extend_right_module(pa, V)


def right_extension_fails_axioms(monkeypatch):
    pa, V = right_v()
    fail_checks(monkeypatch, pmod, "check_partial_module")
    return lambda: extend_right_module(pa, V)


def v_not_in_right_extension(monkeypatch):
    pa, V = right_v()
    coords_fail_after(monkeypatch, pmod, "check_partial_module")
    return lambda: extend_right_module(pa, V)


def left_extension_fails_axioms(monkeypatch):
    pa, V = left_v()
    fail_checks(monkeypatch, pmod, "check_partial_module")
    return lambda: extend_left_module(pa, V)


def dual_integrals_not_one_dimensional(monkeypatch):
    pa, V = left_v()
    monkeypatch.setattr(pmod, "left_integrals", lambda K: Subspace.zero_space(F5, K.dim))
    return lambda: extend_left_module(pa, V)


def v_not_in_left_extension(monkeypatch):
    pa, V = left_v()
    coords_fail_after(monkeypatch, pmod, "check_partial_module")
    return lambda: extend_left_module(pa, V)


def regular_partial_module(pa):
    sp = build_partial_smash(pa)
    return from_smash_module(sp, regular_module(sp.carrier, "right"))


def annihilator_not_ideal(monkeypatch):
    M = regular_partial_module(fix_c())
    monkeypatch.setattr(pmod, "is_ideal", lambda A, I: False)
    return lambda: annihilator(M)


def annihilator_not_h_stable(monkeypatch):
    M = regular_partial_module(fix_c())
    monkeypatch.setattr(pmod, "is_h_stable", lambda pa, I: False)
    return lambda: annihilator(M)


def irreducible_setup(monkeypatch):
    """FIX-B over F5 with V = A/(e2, e3); the extension is built before any patch."""
    pa = fix_b(F5)
    V = quotient_module(pa.alg, Subspace.from_vectors(F5, 3, [[0, 1, 0], [0, 0, 1]]), "right")
    ext = extend_right_module(pa, V)
    monkeypatch.setattr(pmod, "extend_right_module", lambda pa, V: ext)
    return pa, V


def irreducible_extension_fails_axioms(monkeypatch):
    pa, V = irreducible_setup(monkeypatch)
    fail_checks(monkeypatch, pmod, "check_partial_module")
    return lambda: irreducible_extension(pa, V)


def quotient_not_irreducible(monkeypatch):
    pa, V = irreducible_setup(monkeypatch)
    monkeypatch.setattr(pmod, "is_irreducible", lambda M: False)
    return lambda: irreducible_extension(pa, V)


def v_does_not_survive(monkeypatch):
    pa, V = irreducible_setup(monkeypatch)
    flag = []
    after(monkeypatch, pmod, "is_irreducible", flag)
    real = Matrix.rank
    monkeypatch.setattr(Matrix, "rank", lambda self: -1 if flag else real(self))
    return lambda: irreducible_extension(pa, V)


def dimension_bound_broken(monkeypatch):
    pa, V = irreducible_setup(monkeypatch)
    flag = []
    after(monkeypatch, pmod, "is_irreducible", flag)
    real = HopfAlgebra.dim
    monkeypatch.setattr(HopfAlgebra, "dim", property(lambda self: 0 if flag else real.fget(self)))
    return lambda: irreducible_extension(pa, V)


def annihilators_disagree(monkeypatch):
    pa, V = irreducible_setup(monkeypatch)
    monkeypatch.setattr(pmod, "annihilator", lambda M: Subspace.full_space(F5, 3))
    return lambda: irreducible_extension(pa, V)


@pytest.mark.parametrize("breakage, message", [
    (carrier_not_closed, "carrier is not multiplicatively closed"),
    (a_not_embedded, "A does not embed"),
    (a_map_not_multiplicative, "A -> A#H is not an algebra map"),
    (dual_action_not_global, "must be global"),
    (psi_not_h_stable, "psi image must be an H-stable ideal"),
    (induced_product_escapes, "product escaped the right ideal"),
    (invariants_lose_unit, "invariant subalgebra lost the unit"),
    (invariants_not_closed, "invariant subalgebra not closed"),
    (colon_leaves_i, "colon ideal is not inside I"),
    (colon_not_h_stable, "colon ideal is not H-stable"),
    (c4_triple_fails, "c4_triple axioms failed"),
    (translation_action_fails, "dual group translation axioms failed"),
    (induced_action_fails, "induced partial action axioms failed"),
    (quotient_action_fails, "quotient action axioms failed"),
    (carrier_fails_axioms, "partial smash carrier axioms failed"),
    (dual_action_fails_axioms, "dual Hopf action axioms failed"),
    (integrals_not_one_dimensional, "integral space has dimension 0"),
    (extension_not_invariant, "extension space is not invariant"),
    (right_extension_fails_axioms, "extended right module axioms failed"),
    (v_not_in_right_extension, "V \\(x\\) 1_H does not sit inside W"),
    (left_extension_fails_axioms, "extended left module axioms failed"),
    (dual_integrals_not_one_dimensional, "integral space of H\\* must be one-dimensional"),
    (v_not_in_left_extension, "V \\(x\\) lambda does not sit inside W"),
    (annihilator_not_ideal, "annihilator is not an ideal"),
    (annihilator_not_h_stable, "annihilator is not H-stable"),
    (irreducible_extension_fails_axioms, "irreducible extension axioms failed"),
    (quotient_not_irreducible, "quotient is not irreducible"),
    (v_does_not_survive, "V does not survive into M"),
    (dimension_bound_broken, "dimension bound violated"),
    (annihilators_disagree, "ann\\(M\\) != \\(ann\\(V\\):H\\)"),
])
def test_broken_postcondition_raises(monkeypatch, breakage, message):
    call = breakage(monkeypatch)
    with pytest.raises(InvariantViolation, match=message):
        call()
