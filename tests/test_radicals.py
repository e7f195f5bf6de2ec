"""Radical engine: trace form vs brute force, H-radicals, predicates."""

import random

import pytest

import psl.paction as paction
import psl.radicals as radicals
from psl.algebra import (
    InvariantViolation,
    direct_product,
    ideal_closure,
    nilpotency_index,
    product_of_fields,
    quotient_algebra,
)
from psl.exactla import GF, QQ, Subspace
from psl.hopf import GroupTable, group_algebra, is_semisimple, sweedler_h4
from psl.paction import (
    PartialAction,
    c4_triple,
    colon_ideal,
    dual_group_translation_action,
    quotient_action,
    trivial_action,
)
from psl.radicals import (
    DimensionTooLarge,
    FieldNotFinite,
    enumerate_h_stable_ideals,
    h_jacobson_radical,
    h_prime_radical,
    h_radical_of_ideal,
    is_h_prime,
    is_h_semiprime,
    is_h_semiprimitive,
    is_semiprime,
    is_semiprimitive,
    jacobson_radical,
    prime_radical,
)
from psl.smash import build_partial_smash, psi_ideal
from psl.verify import (
    THEOREMS,
    lattice_instances,
    random_algebra,
    random_h_stable_ideal,
    random_partial_action,
    truncated_polynomial_algebra,
)
from helpers import fix_a, fix_b, fix_c, fix_d
from radical_oracle import UnsupportedCharacteristic, brute_nilpotent_radical, quotient_route_h_radical

F2 = GF(2)
F3 = GF(3)
F5 = GF(5)
F7 = GF(7)


def test_jacobson_examples():
    assert jacobson_radical(product_of_fields(QQ, 3)).radical.is_zero()
    rep = jacobson_radical(group_algebra(F2, GroupTable.cyclic(2)).alg)
    assert rep.radical == Subspace.from_vectors(F2, 2, [[1, 1]])
    assert rep.nilpotency_index == 2
    assert rep.method == "cohen-ivanyos-wales"
    rep4 = jacobson_radical(sweedler_h4(QQ).alg)
    assert rep4.method == "trace-form"
    assert rep4.radical == Subspace.from_vectors(QQ, 4, [[0, 0, 1, 0], [0, 0, 0, 1]])


def test_prime_equals_jacobson():
    for A in (product_of_fields(QQ, 3), sweedler_h4(QQ).alg, group_algebra(F2, GroupTable.cyclic(2)).alg):
        assert prime_radical(A) == jacobson_radical(A).radical


def test_fix_b_smash_radical_zero():
    sp = build_partial_smash(fix_b())
    assert prime_radical(sp.carrier).is_zero()


def test_h_radicals_fixtures():
    assert h_jacobson_radical(fix_b()).is_zero()
    assert h_prime_radical(fix_b()).is_zero()
    assert h_jacobson_radical(fix_d()).is_zero()
    H2 = group_algebra(F2, GroupTable.cyclic(2))
    pa = trivial_action(H2, H2.alg)
    jh = h_jacobson_radical(pa)
    assert jh == Subspace.from_vectors(F2, 2, [[1, 1]])


def test_h_radical_of_ideal_zero_is_prime_radical():
    for pa in (fix_b(), fix_c(), fix_d()):
        z = Subspace.zero_space(pa.field, pa.alg.dim)
        assert h_radical_of_ideal(pa, z) == h_prime_radical(pa)


def test_h_prime_radical_is_the_kept_colon_of_the_radical():
    # P_H(A) = (P(A):H) with P = J: h_prime_radical returns the J_H(A) kept on the action,
    # which must equal the colon ideal of J(A) computed afresh
    actions = [fix_a(), fix_b(), fix_c(), fix_d()]
    for field in (F2, F3, QQ):
        rng = random.Random(3100 + field.char)
        actions += [random_partial_action(rng, field) for _ in range(10)]
        H2 = group_algebra(field, GroupTable.cyclic(2))
        actions += [trivial_action(H2, H2.alg), trivial_action(H2, truncated_polynomial_algebra(field, 3))]
    nonzero = 0
    for pa in actions:
        oracle = colon_ideal(pa, jacobson_radical(pa.alg).radical)
        got = h_prime_radical(pa)
        assert got == oracle, pa
        assert got is h_jacobson_radical(pa)
        nonzero += not got.is_zero()
    assert nonzero >= 3


def test_h_radical_of_ideal_semiprime_quotient():
    pa = fix_c()
    I = Subspace.from_vectors(QQ, 3, [[1, 0, 0], [0, 1, 0]])
    assert h_radical_of_ideal(pa, I) == I


def test_h_radical_of_ideal_nonzero_preimage():
    # trivial action of F2C2 on itself: Hrz(0) = span{1+g} and is idempotent
    H2 = group_algebra(F2, GroupTable.cyclic(2))
    pa = trivial_action(H2, H2.alg)
    rad = Subspace.from_vectors(F2, 2, [[1, 1]])
    assert h_radical_of_ideal(pa, Subspace.zero_space(F2, 2)) == rad
    assert h_radical_of_ideal(pa, rad) == rad


def test_h_radical_idempotent_random_f3():
    rng = random.Random(6)
    pa = fix_b(F3)
    for _ in range(12):
        I = random_h_stable_ideal(rng, pa)
        if I.is_full():
            continue
        hrz = h_radical_of_ideal(pa, I)
        assert h_radical_of_ideal(pa, hrz) == hrz
        assert I <= hrz


def translation_actions() -> dict:
    """The global translation actions of (F_2C_2)*, (F_2C_4)* and (F_3C_3)* on F_pC_n, by tag.

    Their only proper H-stable ideal is 0, J_H(A) = 0, and J(A) has dim 1, 3 and 2: sqrt(0) = J(A)
    is not H-stable, so Hrz(0) = (sqrt(0):H) = 0 tells the colon from its argument.
    """
    return {
        f"(F{p}C{n})*": dual_group_translation_action(GF(p), GroupTable.cyclic(n)) for p, n in ((2, 2), (2, 4), (3, 3))
    }


def test_h_radical_of_ideal_takes_the_colon_of_the_radical():
    actions = translation_actions()
    assert [jacobson_radical(pa.alg).radical.dim for pa in actions.values()] == [1, 3, 2]
    assert all(h_jacobson_radical(pa).is_zero() for pa in actions.values())
    report = THEOREMS["C4.13"].run(trials=0, workspace=actions.items())
    hrz = {c.name: c for c in report.cases if "Hrz(" in c.name}
    assert sorted(hrz) == sorted(f"{tag}: Hrz(ideal dim 0)" for tag in actions)
    assert all(c.ok and c.detail.startswith("quotient route dim 0,") for c in hrz.values()), hrz
    assert report.ok, report.summary()


def test_h_radical_of_ideal_is_the_quotient_route_without_an_action(monkeypatch):
    # every proper H-stable ideal of the C4.13 lattice draws at seeds 0-3 and of the translation actions
    actions = [pa for seed in range(4) for _, pa in lattice_instances((2, 3), (), seed, 10, 6, 5, ())]
    actions += translation_actions().values()
    pairs = [(pa, I) for pa in actions for I in enumerate_h_stable_ideals(pa) if not I.is_full()]
    expected = [quotient_route_h_radical(pa, I) for pa, I in pairs]
    # enough of the ideals are not their own H-radical for the comparison to bite
    larger = sum(want != I for (_, I), want in zip(pairs, expected))
    assert len(pairs) >= 60 and larger >= 5, (len(pairs), larger)

    def refuse(*args, **kwargs):
        raise AssertionError("h_radical_of_ideal built or checked a partial action")

    monkeypatch.setattr(PartialAction, "_of_terms", classmethod(refuse))
    monkeypatch.setattr(paction, "check_partial_action", refuse)
    asked = []
    stable = paction.is_h_stable

    def counted(pa, J):
        asked.append(J)
        return stable(pa, J)

    monkeypatch.setattr(paction, "is_h_stable", counted)
    monkeypatch.setattr(radicals, "is_h_stable", counted)
    for (pa, I), want in zip(pairs, expected):
        asked.clear()
        assert h_radical_of_ideal(pa, I) == want, (pa, I)
        assert sum(J is I for J in asked) == 1  # the input check, once


def test_predicates_fix_b():
    pa = fix_b()
    assert is_semiprime(pa.alg) and is_semiprimitive(pa.alg)
    assert is_h_semiprime(pa) and is_h_semiprimitive(pa)


def test_predicates_fix_d_negative_control():
    pa = fix_d()
    assert is_semiprimitive(pa.alg)
    assert is_h_semiprimitive(pa)
    sp = build_partial_smash(pa)
    assert not is_semiprime(sp.carrier)


def test_trivial_action_radical_carries_over():
    H2 = group_algebra(F2, GroupTable.cyclic(2))
    pa = trivial_action(H2, H2.alg)
    assert not is_semiprime(pa.alg)
    assert not is_h_semiprime(pa)


def test_enumeration_componentwise():
    H2 = group_algebra(F2, GroupTable.cyclic(2))
    pa = trivial_action(H2, product_of_fields(F2, 2))
    ideals = enumerate_h_stable_ideals(pa)
    assert sorted(i.dim for i in ideals) == [0, 1, 1, 2]
    assert is_h_prime(pa, Subspace.from_vectors(F2, 2, [[1, 0]]))
    assert not is_h_prime(pa, Subspace.zero_space(F2, 2))


def test_enumeration_caps_and_fields():
    with pytest.raises(FieldNotFinite):
        enumerate_h_stable_ideals(fix_b())
    pa = trivial_action(group_algebra(F7, GroupTable.cyclic(2)), product_of_fields(F7, 2))
    with pytest.raises(DimensionTooLarge):
        enumerate_h_stable_ideals(pa)  # field cap default 5
    # the caps are compared on every call, a kept lattice included; the line budget in the walk
    pa = trivial_action(group_algebra(F2, GroupTable.cyclic(2)), product_of_fields(F2, 3))
    assert len(enumerate_h_stable_ideals(pa)) == 8
    with pytest.raises(DimensionTooLarge, match=r"^dim 3 exceeds cap 2$"):
        enumerate_h_stable_ideals(pa, dim_cap=2)
    with pytest.raises(DimensionTooLarge, match=r"^field size 2 exceeds cap 1$"):
        enumerate_h_stable_ideals(pa, field_cap=1)
    big = trivial_action(group_algebra(F2, GroupTable.cyclic(1)), product_of_fields(F2, 18))
    with pytest.raises(DimensionTooLarge, match=r"^projective space too large \(262143 > 131072\)$"):
        enumerate_h_stable_ideals(big, dim_cap=18)


def test_brute_requires_finite_field():
    with pytest.raises(UnsupportedCharacteristic):
        brute_nilpotent_radical(product_of_fields(QQ, 2))


def test_brute_budget_exceeded():
    # F2C4: char 2 <= dim 4 and the trace form vanishes, so the search space
    # is the whole algebra; a tiny budget must be refused, a real one works
    A = group_algebra(F2, GroupTable.cyclic(4)).alg
    with pytest.raises(UnsupportedCharacteristic):
        brute_nilpotent_radical(A, budget=3)
    rep = jacobson_radical(A)
    assert rep.radical.dim == 3  # augmentation ideal of F_2 C_4


def test_cohen_ivanyos_wales_matches_brute_oracle():
    # small characteristic (p <= dim): the polynomial radical against the
    # exhaustive search, as subspaces
    rng = random.Random(2024)
    algebras = []
    # F_p C_n with p | n, kept to orders whose search stays small
    orders = {F2: (2, 4, 6, 8), F3: (3, 6), F5: (5,)}
    for field in (F2, F3, F5):
        algebras += [random_algebra(rng, field, max_dim=6) for _ in range(40)]
        for _ in range(6):
            pa = random_partial_action(rng, field, max_carrier=10)
            algebras += [pa.alg, build_partial_smash(pa).carrier]
        algebras += [group_algebra(field, GroupTable.cyclic(n)).alg for n in orders[field]]
    # semisimple, but its whole 9-dim carrier is the trace-form kernel (9841 candidates)
    algebras.append(build_partial_smash(c4_triple(F3)).carrier)
    distinct = {A for A in algebras if A.field.char <= A.dim}
    assert len(distinct) >= 30, len(distinct)
    for A in distinct:
        rep = jacobson_radical(A)
        assert rep.method == "cohen-ivanyos-wales"
        assert rep.radical == brute_nilpotent_radical(A), A


def test_cohen_ivanyos_wales_group_algebra_dims():
    # J(F_p C_n) for n = p^a m, p not dividing m, has dimension n - m and
    # nilpotency index p^a; an oracle for sizes where the search is slow or
    # over its budget
    for p, n in ((2, 8), (2, 12), (3, 9), (3, 12), (5, 10)):
        m = n
        while m % p == 0:
            m //= p
        rep = jacobson_radical(group_algebra(GF(p), GroupTable.cyclic(n)).alg)
        assert rep.radical.dim == n - m
        assert rep.nilpotency_index == n // m


def test_radical_postconditions_raise(monkeypatch):
    # the checks on the computed radical are real exceptions, not asserts
    import psl.radicals as radicals

    A = group_algebra(QQ, GroupTable.cyclic(2)).alg
    monkeypatch.setattr(radicals, "trace_form_kernel", lambda A: Subspace.from_vectors(QQ, 2, [[1, 0]]))
    with pytest.raises(InvariantViolation, match="not a two-sided ideal"):
        jacobson_radical(A)
    monkeypatch.setattr(radicals, "trace_form_kernel", lambda A: Subspace.full_space(QQ, 2))
    with pytest.raises(InvariantViolation, match="not nilpotent"):
        jacobson_radical(A)


def test_trace_vs_brute_cross_validation():
    # char > dim so that both routes are valid, on semisimple and non-semisimple inputs
    rng = random.Random(91)
    algebras = [
        group_algebra(F5, GroupTable.cyclic(2)).alg,
        group_algebra(F5, GroupTable.cyclic(4)).alg,
        group_algebra(F7, GroupTable.cyclic(6)).alg,
        truncated_polynomial_algebra(F5, 3),
        truncated_polynomial_algebra(F7, 2),
        direct_product(truncated_polynomial_algebra(F7, 2), group_algebra(F7, GroupTable.cyclic(2)).alg),
    ]
    for n in (3, 4, 5):
        # quotient by the ideal generated by 1 - g: collapses the group
        A = group_algebra(F7, GroupTable.cyclic(n)).alg
        gen = [1] + [0] * (n - 1)
        gen[1] = -1
        I = ideal_closure(A, [tuple(gen)])
        assert not I.is_full()
        algebras.append(quotient_algebra(A, I)[0])
    for _ in range(6):
        A = group_algebra(F7, GroupTable.cyclic(rng.randint(2, 5))).alg
        I = ideal_closure(A, [tuple(rng.randrange(7) for _ in range(A.dim))])
        if not I.is_full():
            algebras.append(quotient_algebra(A, I)[0])
    checked = 0
    for A in algebras:
        if A.dim == 0 or A.field.char <= A.dim:
            continue
        rep = jacobson_radical(A)
        assert rep.method == "trace-form"
        assert brute_nilpotent_radical(A) == rep.radical
        checked += 1
    assert checked >= 8


def test_quotient_by_radical_is_semiprimitive():
    for A in (
        sweedler_h4(QQ).alg,
        group_algebra(F2, GroupTable.cyclic(2)).alg,
        truncated_polynomial_algebra(F5, 3),
        direct_product(truncated_polynomial_algebra(QQ, 2), product_of_fields(QQ, 2)),
    ):
        J = jacobson_radical(A).radical
        Q, _ = quotient_algebra(A, J)
        assert jacobson_radical(Q).radical.is_zero()


def test_h_prime_radical_quotient_is_h_semiprime():
    # A / P_H(A) is H-semiprime
    H2 = group_algebra(F2, GroupTable.cyclic(2))
    pa = trivial_action(H2, H2.alg)
    ph = h_prime_radical(pa)
    qpa, _ = quotient_action(pa, ph)
    assert h_prime_radical(qpa).is_zero()


def test_h_semiprime_iff_no_nilpotent_h_stable_ideal():
    # H-semiprime iff no nonzero nilpotent H-stable ideal (exhaustive)
    rng = random.Random(17)
    for _ in range(8):
        p = rng.choice([2, 3])
        pa = random_partial_action(rng, GF(p), max_carrier=8)
        if pa.alg.dim > 6:
            continue
        ideals = enumerate_h_stable_ideals(pa)
        has_nilpotent = any(
            not I.is_zero() and nilpotency_index(pa.alg, I) is not None for I in ideals
        )
        assert is_h_semiprime(pa) == (not has_nilpotent)


def test_h_semiprime_iff_radical_hides_no_stable_ideal():
    # H-semiprime iff P(A) contains no nonzero H-stable ideal
    rng = random.Random(23)
    for _ in range(8):
        p = rng.choice([2, 3])
        pa = random_partial_action(rng, GF(p), max_carrier=8)
        if pa.alg.dim > 6:
            continue
        P = prime_radical(pa.alg)
        ideals = enumerate_h_stable_ideals(pa)
        hidden = [I for I in ideals if not I.is_zero() and I <= P]
        assert is_h_semiprime(pa) == (not hidden)


def test_jh_equals_smash_radical_intersection():
    # two routes to J_H(A): the colon ideal and J(A#H) /\ A
    for pa in (fix_b(), fix_c(), fix_d()):
        sp = build_partial_smash(pa)
        lhs = h_jacobson_radical(pa)
        rhs = psi_ideal(sp, jacobson_radical(sp.carrier).radical)
        assert lhs == rhs


def test_maschke_cross_check_with_radical():
    # is_semisimple(H) agrees with J(H.alg) = 0 on every constructor output
    hopfs = [
        group_algebra(QQ, GroupTable.cyclic(4)),
        group_algebra(F2, GroupTable.cyclic(2)),
        group_algebra(F3, GroupTable.cyclic(3)),
        group_algebra(F5, GroupTable.cyclic(4)),
        sweedler_h4(QQ),
        sweedler_h4(F5),
    ]
    for H in hopfs:
        assert is_semisimple(H) == jacobson_radical(H.alg).radical.is_zero()
