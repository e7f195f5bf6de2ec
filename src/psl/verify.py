"""Named theorem-verification suites and the seeded instance generator.

Each suite checks one structural statement on the built-in fixtures plus
randomized instances.  Random partial actions are produced only through
soundness-preserving constructors (trivial actions, induced actions on
idempotent ideals of group algebras, quotients by H-stable ideals):
rejection-sampling raw tensors would find nothing.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field

from psl.algebra import (
    Algebra,
    direct_product,
    ideal_closure,
    is_ideal,
    is_nilpotent_subspace,
    product_of_fields,
    quotient_algebra,
    span_products,
)
from psl.exactla import GF, QQ, Field, Fp, Subspace, unit_vec, zero_vec
from psl.hopf import (
    GroupTable,
    HopfAlgebra,
    dual_group_algebra,
    group_algebra,
    is_semisimple,
    sweedler_h4,
)
from psl.paction import (
    PartialAction,
    colon_ideal,
    dual_group_idempotent,
    is_h_stable,
    quotient_action,
    trivial_action,
)
from psl.radicals import (
    UnsupportedCharacteristic,
    enumerate_h_stable_ideals,
    h_jacobson_radical,
    h_prime_radical,
    h_radical_of_ideal,
    is_h_prime,
    is_h_semiprimitive,
    jacobson_radical,
    prime_radical,
    trace_form_kernel,
)
from psl.smash import build_partial_smash, phi_ideal, psi_ideal


@dataclass(frozen=True)
class VerifyCase:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class VerifyReport:
    theorem: str
    cases: list[VerifyCase] = dc_field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.cases.append(VerifyCase(name, ok, detail))

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [f"{self.theorem}: {status} ({len(self.cases)} checks)"]
        for c in self.cases:
            if not c.ok:
                lines.append(f"  FAIL {c.name}: {c.detail}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# fixtures

def fixture_actions() -> list[tuple[str, PartialAction]]:
    F2 = GF(2)
    return [
        ("FIX-A", dual_group_idempotent(QQ, GroupTable.cyclic(2), [0, 1])),
        ("FIX-B", _c4_triple(QQ)),
        ("FIX-C", trivial_action(group_algebra(QQ, GroupTable.cyclic(2)), product_of_fields(QQ, 3))),
        ("FIX-D", trivial_action(group_algebra(F2, GroupTable.cyclic(2)), product_of_fields(F2, 1))),
    ]


def _c4_triple(field):
    from psl.paction import c4_triple

    return c4_triple(field)


# ---------------------------------------------------------------------------
# random instances

def truncated_polynomial_algebra(field: Field, k: int) -> Algebra:
    """field[x] / (x^k) on the basis 1, x, ..., x^{k-1}."""
    z = zero_vec(field, k)
    mult = [
        [unit_vec(field, k, i + j) if i + j < k else z for j in range(k)]
        for i in range(k)
    ]
    labels = ["1"] + [f"x^{i}" if i > 1 else "x" for i in range(1, k)]
    return Algebra(field, mult, unit=unit_vec(field, k, 0), labels=labels)


def random_algebra(rng: random.Random, field: Field, max_dim: int = 4) -> Algebra:
    kind = rng.randrange(5)
    if kind == 0:
        return product_of_fields(field, rng.randint(1, max_dim))
    if kind == 1:
        n = rng.randint(1, max_dim)
        return group_algebra(field, GroupTable.cyclic(n)).alg
    if kind == 2:
        return truncated_polynomial_algebra(field, rng.randint(1, min(3, max_dim)))
    if kind == 3:
        a = product_of_fields(field, rng.randint(1, 2))
        b = group_algebra(field, GroupTable.cyclic(rng.randint(1, 2))).alg
        prod = direct_product(a, b)
        return prod if prod.dim <= max_dim else a
    A = group_algebra(field, GroupTable.cyclic(rng.randint(2, max_dim))).alg
    vec = tuple(field.of(rng.randrange(field.char) if field.char else rng.randint(-2, 2)) for _ in range(A.dim))
    I = ideal_closure(A, [vec])
    if I.is_full():
        return A
    return quotient_algebra(A, I)[0]


def _radical_tractable(A: Algebra, cap: int = 700) -> bool:
    p = A.field.char
    if p == 0 or p > A.dim:
        return True
    K = trace_form_kernel(A)
    if K.is_zero() or (is_ideal(A, K) and is_nilpotent_subspace(A, K)):
        return True
    return (p ** K.dim - 1) // (p - 1) <= cap


def random_partial_action(
    rng: random.Random,
    field: Field,
    *,
    max_carrier: int = 10,
    semisimple_hopf: bool | None = None,
    tries: int = 60,
) -> PartialAction:
    """A random checked partial action with tractable radicals on both levels."""
    p = field.char
    for _ in range(tries):
        kind = rng.randrange(4)
        try:
            if kind == 0:
                order = rng.randint(1, 4)
                if rng.random() < 0.5:
                    H = group_algebra(field, GroupTable.cyclic(order))
                else:
                    H = dual_group_algebra(field, GroupTable.cyclic(order))
                if p == 2 and rng.random() < 0.3:
                    H = group_algebra(field, GroupTable.cyclic(2))
                A = random_algebra(rng, field, max_dim=max(1, max_carrier // H.dim))
                pa = trivial_action(H, A)
            elif kind == 1:
                if max_carrier < 12:
                    continue
                pa = _c4_triple(field)
            elif kind == 2:
                n = rng.choice([2, 3, 4, 6])
                divisors = [d for d in range(1, n + 1) if n % d == 0 and d > 1]
                d = rng.choice(divisors)
                if p and d % p == 0:
                    continue
                N = [i for i in range(n) if i % (n // d) == 0]
                if n * (n // d) > max_carrier:
                    continue
                pa = dual_group_idempotent(field, GroupTable.cyclic(n), N)
            else:
                base = random_partial_action(
                    rng, field, max_carrier=max_carrier, semisimple_hopf=semisimple_hopf,
                    tries=10,
                )
                vec = tuple(
                    field.of(rng.randrange(p) if p else rng.randint(-2, 2))
                    for _ in range(base.alg.dim)
                )
                I = colon_ideal(base, ideal_closure(base.alg, [vec]))
                if I.is_full() or I.is_zero():
                    pa = base
                else:
                    pa = quotient_action(base, I)[0]
        except (ValueError, UnsupportedCharacteristic):
            continue
        if pa.alg.dim * pa.hopf.dim > max_carrier:
            continue
        if semisimple_hopf is not None and is_semisimple(pa.hopf) != semisimple_hopf:
            continue
        if not _radical_tractable(pa.alg):
            continue
        sp = build_partial_smash(pa)
        if not _radical_tractable(sp.carrier):
            continue
        return pa
    raise RuntimeError("could not generate a tractable random partial action")


def random_h_stable_ideal(rng: random.Random, pa: PartialAction) -> Subspace:
    vec = tuple(
        pa.field.of(rng.randrange(pa.field.char) if pa.field.char else rng.randint(-2, 2))
        for _ in range(pa.alg.dim)
    )
    return colon_ideal(pa, ideal_closure(pa.alg, [vec]))


# ---------------------------------------------------------------------------
# the dual-route radical comparisons (AC-4 / AC-7 cores)

def check_equivariant_radical_transfer(pa: PartialAction, report: VerifyReport, tag: str, kind: str) -> None:
    """kind='J': J_{H*}(A#H) = J_H(A)#H; kind='P': same for the prime radical."""
    sp = build_partial_smash(pa)
    if kind == "J":
        rad_a = jacobson_radical(pa.alg).radical
        rad_c = jacobson_radical(sp.carrier).radical
    else:
        rad_a = prime_radical(pa.alg)
        rad_c = prime_radical(sp.carrier)
    side_a = colon_ideal(pa, rad_a)
    side_c = colon_ideal(sp.dual_action, rad_c)
    transferred = phi_ideal(sp, side_a)
    report.add(
        f"{tag}: {kind}_H*(A#H) = {kind}_H(A)#H",
        side_c == transferred,
        f"dual-side dim {side_c.dim}, phi-side dim {transferred.dim}",
    )
    pulled = psi_ideal(sp, side_c)
    report.add(
        f"{tag}: {kind}_H(A) = {kind}_H*(A#H) /\\ A",
        pulled == side_a,
        f"psi dim {pulled.dim}, colon dim {side_a.dim}",
    )


def check_radical_intersection(pa: PartialAction, report: VerifyReport, tag: str, kind: str) -> None:
    """(rad(A):H) = rad(A#H) /\\ A computed through independent routes."""
    sp = build_partial_smash(pa)
    if kind == "J":
        rad_a = jacobson_radical(pa.alg).radical
        rad_c = jacobson_radical(sp.carrier).radical
    else:
        rad_a = prime_radical(pa.alg)
        rad_c = prime_radical(sp.carrier)
    lhs = colon_ideal(pa, rad_a)
    rhs = psi_ideal(sp, rad_c)
    report.add(
        f"{tag}: ({kind}(A):H) = {kind}(A#H) /\\ A",
        lhs == rhs,
        f"colon dim {lhs.dim}, psi dim {rhs.dim}",
    )


# ---------------------------------------------------------------------------
# theorem suites

def _finite_instances(seed: int, trials: int, max_carrier: int = 10):
    rng = random.Random(seed)
    primes = [2, 3, 5, 7, 11, 13]
    out = []
    for t in range(trials):
        p = primes[t % len(primes)]
        cap = max_carrier if p in (11, 13) else (8 if p == 2 else (7 if p == 3 else 6))
        out.append((f"random-{t}(F{p})", random_partial_action(rng, GF(p), max_carrier=cap)))
    return out


def verify_T4_26(seed: int = 0, trials: int = 100, **_) -> VerifyReport:
    report = VerifyReport("T4.26 J_{H*}(A#H) = J_H(A)#H")
    for tag, pa in fixture_actions():
        check_equivariant_radical_transfer(pa, report, tag, "J")
    for tag, pa in _finite_instances(seed, trials):
        check_equivariant_radical_transfer(pa, report, tag, "J")
    return report


def verify_T4_14(seed: int = 0, trials: int = 100, **_) -> VerifyReport:
    report = VerifyReport("T4.14 P_{H*}(A#H) = P_H(A)#H")
    for tag, pa in fixture_actions():
        check_equivariant_radical_transfer(pa, report, tag, "P")
    for tag, pa in _finite_instances(seed, trials):
        check_equivariant_radical_transfer(pa, report, tag, "P")
    return report


def verify_P4_20(seed: int = 0, trials: int = 40, **_) -> VerifyReport:
    report = VerifyReport("P4.20 (J(A):H) = J(A#H) /\\ A")
    for tag, pa in fixture_actions():
        check_radical_intersection(pa, report, tag, "J")
    for tag, pa in _finite_instances(seed, trials):
        check_radical_intersection(pa, report, tag, "J")
    return report


def verify_C4_13_intersection(seed: int = 0, trials: int = 40, **_) -> VerifyReport:
    report = VerifyReport("C4.13 (P(A):H) = P(A#H) /\\ A")
    for tag, pa in fixture_actions():
        check_radical_intersection(pa, report, tag, "P")
    for tag, pa in _finite_instances(seed, trials):
        check_radical_intersection(pa, report, tag, "P")
    return report


def verify_P4_22(seed: int = 0, trials: int = 12, dim_cap: int = 6, field_cap: int = 5, **_) -> VerifyReport:
    """J_H = (J(A):H) and: A H-semiprimitive iff J(A) hides no H-stable ideal."""
    report = VerifyReport("P4.22 J_H(A) = (J(A):H)")
    rng = random.Random(seed)
    cases = [(t, p) for t, p in fixture_actions() if p.field.char and p.alg.dim <= dim_cap]
    for t in range(trials):
        p = rng.choice([2, 3, 5])
        try:
            pa = random_partial_action(rng, GF(p), max_carrier=min(8, dim_cap * 2))
        except RuntimeError:
            continue
        if pa.alg.dim <= dim_cap and pa.field.char <= field_cap:
            cases.append((f"random-{t}(F{p})", pa))
    for tag, pa in cases:
        jh = h_jacobson_radical(pa)
        ja = jacobson_radical(pa.alg).radical
        ideals = enumerate_h_stable_ideals(pa, dim_cap=dim_cap, field_cap=field_cap)
        inside = [I for I in ideals if not I.is_zero() and I <= ja]
        report.add(
            f"{tag}: semiprimitivity criterion",
            jh.is_zero() == (not inside),
            f"J_H dim {jh.dim}, {len(inside)} nonzero H-stable ideals inside J(A)",
        )
        biggest = Subspace.zero_space(pa.field, pa.alg.dim)
        for I in inside:
            biggest = biggest + I
        report.add(
            f"{tag}: J_H is the largest H-stable ideal inside J(A)",
            jh == biggest if inside else jh.is_zero(),
            f"J_H dim {jh.dim}",
        )
    return report


def verify_C4_13(seed: int = 0, trials: int = 10, dim_cap: int = 5, field_cap: int = 5, **_) -> VerifyReport:
    """Hrz(I) = (sqrt(I):H): quotient route vs enumeration of H-prime ideals."""
    report = VerifyReport("C4.13 Hrz(I) = intersection of H-primes over I")
    rng = random.Random(seed)
    cases = []
    for t in range(trials):
        p = rng.choice([2, 3])
        try:
            pa = random_partial_action(rng, GF(p), max_carrier=8)
        except RuntimeError:
            continue
        if pa.alg.dim <= dim_cap:
            cases.append((f"random-{t}(F{p})", pa))
    for tag, pa in cases:
        ideals = enumerate_h_stable_ideals(pa, dim_cap=dim_cap, field_cap=field_cap)
        primes = [I for I in ideals if not I.is_full() and is_h_prime(pa, I, dim_cap=dim_cap, field_cap=field_cap)]
        for I in ideals:
            if I.is_full():
                continue
            hrz = h_radical_of_ideal(pa, I)
            over = [P for P in primes if I <= P]
            inter = Subspace.full_space(pa.field, pa.alg.dim)
            for P in over:
                inter = inter.intersect(P)
            report.add(
                f"{tag}: Hrz(ideal dim {I.dim})",
                hrz == inter,
                f"quotient route dim {hrz.dim}, enumeration dim {inter.dim}",
            )
            report.add(
                f"{tag}: idempotence at dim {I.dim}",
                h_radical_of_ideal(pa, hrz) == hrz,
                "",
            )
    return report


def verify_T3_6(seed: int = 0, trials: int = 8, dim_cap: int = 6, field_cap: int = 5, **_) -> VerifyReport:
    """Phi/Psi round trips and lattice preservation on enumerated H-stable ideals."""
    report = VerifyReport("T3.6 ideal correspondence")
    rng = random.Random(seed)
    cases = [("FIX-D", fixture_actions()[3][1]), ("FIX-B(F2)", _c4_triple(GF(2)))]
    for t in range(trials):
        p = rng.choice([2, 3, 5])
        try:
            pa = random_partial_action(rng, GF(p), max_carrier=8)
        except RuntimeError:
            continue
        if pa.alg.dim <= dim_cap and pa.field.char <= field_cap:
            cases.append((f"random-{t}(F{p})", pa))
    for tag, pa in cases:
        sp = build_partial_smash(pa)
        ideals = enumerate_h_stable_ideals(pa, dim_cap=dim_cap, field_cap=field_cap)
        images = []
        for I in ideals:
            phi = phi_ideal(sp, I)
            images.append(phi)
            report.add(f"{tag}: psi(phi(I)) = I at dim {I.dim}", psi_ideal(sp, phi) == I, "")
        report.add(
            f"{tag}: phi is injective",
            len({im.rows for im in images}) == len(ideals),
            f"{len(ideals)} ideals",
        )
        for i, I in enumerate(ideals):
            for j, J in enumerate(ideals):
                if j < i:
                    continue
                ok_sum = phi_ideal(sp, I + J) == images[i] + images[j]
                ok_int = phi_ideal(sp, I.intersect(J)) == images[i].intersect(images[j])
                prod = span_products(pa.alg, I, J)
                ok_prod = phi_ideal(sp, prod) == span_products(sp.carrier, images[i], images[j])
                if not (ok_sum and ok_int and ok_prod):
                    report.add(
                        f"{tag}: lattice ops at pair ({i},{j})", False,
                        f"sum {ok_sum}, intersection {ok_int}, product {ok_prod}",
                    )
        report.add(f"{tag}: lattice ops on all pairs", True, f"{len(ideals)}^2 pairs")
    return report


def verify_C3_7(seed: int = 0, trials: int = 6, dim_cap: int = 6, field_cap: int = 5, **_) -> VerifyReport:
    """H*-stable ideals of A#H correspond bijectively to H-stable ideals of A."""
    report = VerifyReport("C3.7 H*-stable ideals of A#H")
    rng = random.Random(seed)
    cases = [("FIX-D", fixture_actions()[3][1])]
    for t in range(trials):
        p = rng.choice([2, 3])
        try:
            pa = random_partial_action(rng, GF(p), max_carrier=8)
        except RuntimeError:
            continue
        if pa.alg.dim <= dim_cap and pa.field.char <= field_cap:
            cases.append((f"random-{t}(F{p})", pa))
    for tag, pa in cases:
        sp = build_partial_smash(pa)
        ideals = enumerate_h_stable_ideals(pa, dim_cap=dim_cap, field_cap=field_cap)
        dual_ideals = enumerate_h_stable_ideals(
            sp.dual_action, dim_cap=max(dim_cap, sp.carrier.dim), field_cap=field_cap
        )
        report.add(
            f"{tag}: same count on both sides",
            len(ideals) == len(dual_ideals),
            f"{len(ideals)} vs {len(dual_ideals)}",
        )
        for J in dual_ideals:
            back = psi_ideal(sp, J)
            report.add(
                f"{tag}: phi(psi(J)) = J at dim {J.dim}",
                phi_ideal(sp, back) == J and any(back == I for I in ideals),
                "",
            )
    return report


def verify_T5_1(seed: int = 0, trials: int = 30, **_) -> VerifyReport:
    """Semisimple H + H-semiprimitive A => semiprimitive A#H (f.d. instances)."""
    report = VerifyReport("T5.1/T5.6 semiprimitivity of A#H")
    cases = [(t, p) for t, p in fixture_actions()]
    rng = random.Random(seed)
    primes = [2, 3, 5, 7, 11, 13]
    for t in range(trials):
        p = primes[t % len(primes)]
        cap = 10 if p in (11, 13) else (8 if p == 2 else (7 if p == 3 else 6))
        try:
            cases.append((f"random-{t}(F{p})", random_partial_action(rng, GF(p), max_carrier=cap, semisimple_hopf=True)))
        except RuntimeError:
            continue
    applied = 0
    for tag, pa in cases:
        if not is_semisimple(pa.hopf) or not is_h_semiprimitive(pa):
            continue
        applied += 1
        sp = build_partial_smash(pa)
        J = jacobson_radical(sp.carrier).radical
        report.add(f"{tag}: J(A#H) = 0", J.is_zero(), f"J dim {J.dim}")
    report.add("hypotheses applied at least 10 times", applied >= 10, f"{applied} instances")
    return report


def verify_C5_7(seed: int = 0, trials: int = 30, **_) -> VerifyReport:
    """Semisimple H: J(A#H) = J_H(A)#H."""
    report = VerifyReport("C5.7 J(A#H) = J_H(A)#H")
    cases = [(t, p) for t, p in fixture_actions() if is_semisimple(p.hopf)]
    rng = random.Random(seed)
    primes = [2, 3, 5, 7, 11, 13]
    for t in range(trials):
        p = primes[t % len(primes)]
        cap = 10 if p in (11, 13) else (8 if p == 2 else (7 if p == 3 else 6))
        try:
            cases.append((f"random-{t}(F{p})", random_partial_action(rng, GF(p), max_carrier=cap, semisimple_hopf=True)))
        except RuntimeError:
            continue
    for tag, pa in cases:
        sp = build_partial_smash(pa)
        lhs = jacobson_radical(sp.carrier).radical
        rhs = phi_ideal(sp, h_jacobson_radical(pa))
        report.add(f"{tag}", lhs == rhs, f"J(A#H) dim {lhs.dim}, phi(J_H) dim {rhs.dim}")
    return report


def verify_T5_8(seed: int = 0, trials: int = 30, **_) -> VerifyReport:
    """Semisimple H + H-semiprime A => semiprime A#H."""
    report = VerifyReport("T5.8 semiprimality of A#H")
    cases = [(t, p) for t, p in fixture_actions()]
    rng = random.Random(seed)
    primes = [2, 3, 5, 7, 11, 13]
    for t in range(trials):
        p = primes[t % len(primes)]
        cap = 10 if p in (11, 13) else (8 if p == 2 else (7 if p == 3 else 6))
        try:
            cases.append((f"random-{t}(F{p})", random_partial_action(rng, GF(p), max_carrier=cap, semisimple_hopf=True)))
        except RuntimeError:
            continue
    applied = 0
    for tag, pa in cases:
        if not is_semisimple(pa.hopf) or not h_prime_radical(pa).is_zero():
            continue
        applied += 1
        sp = build_partial_smash(pa)
        P = prime_radical(sp.carrier)
        report.add(f"{tag}: P(A#H) = 0", P.is_zero(), f"P dim {P.dim}")
    report.add("hypotheses applied at least 10 times", applied >= 10, f"{applied} instances")
    return report


def verify_C5_9(seed: int = 0, trials: int = 30, **_) -> VerifyReport:
    """Semisimple H: P(A#H) = P_H(A)#H."""
    report = VerifyReport("C5.9 P(A#H) = P_H(A)#H")
    cases = [(t, p) for t, p in fixture_actions() if is_semisimple(p.hopf)]
    rng = random.Random(seed)
    primes = [2, 3, 5, 7, 11, 13]
    for t in range(trials):
        p = primes[t % len(primes)]
        cap = 10 if p in (11, 13) else (8 if p == 2 else (7 if p == 3 else 6))
        try:
            cases.append((f"random-{t}(F{p})", random_partial_action(rng, GF(p), max_carrier=cap, semisimple_hopf=True)))
        except RuntimeError:
            continue
    for tag, pa in cases:
        sp = build_partial_smash(pa)
        lhs = prime_radical(sp.carrier)
        rhs = phi_ideal(sp, h_prime_radical(pa))
        report.add(f"{tag}", lhs == rhs, f"P(A#H) dim {lhs.dim}, phi(P_H) dim {rhs.dim}")
    return report


def verify_NEG_SS(**_) -> VerifyReport:
    """Non-semisimple H forces a radical in A (x) H under the trivial action."""
    report = VerifyReport("NEG-SS necessity of semisimplicity")
    F2 = GF(2)
    pa_d = trivial_action(group_algebra(F2, GroupTable.cyclic(2)), product_of_fields(F2, 1))
    sp_d = build_partial_smash(pa_d)
    rep = jacobson_radical(sp_d.carrier)
    report.add(
        "FIX-D: J(F2 # F2C2) has dimension 1",
        rep.radical.dim == 1 and not is_semisimple(pa_d.hopf),
        f"dim {rep.radical.dim}",
    )
    pa_s = trivial_action(sweedler_h4(QQ), product_of_fields(QQ, 1))
    sp_s = build_partial_smash(pa_s)
    rep_s = jacobson_radical(sp_s.carrier)
    report.add(
        "Sweedler H4 over Q: 2-dimensional radical in A (x) H",
        rep_s.radical.dim == 2 and not is_semisimple(pa_s.hopf),
        f"dim {rep_s.radical.dim}",
    )
    pa_m = trivial_action(group_algebra(GF(3), GroupTable.cyclic(3)), product_of_fields(GF(3), 2))
    sp_m = build_partial_smash(pa_m)
    rep_m = jacobson_radical(sp_m.carrier)
    report.add(
        "F3C3 trivial on F3^2: radical is nonzero",
        rep_m.radical.dim > 0,
        f"dim {rep_m.radical.dim}",
    )
    return report


THEOREM_SUITES = {
    "T3.6": verify_T3_6,
    "C3.7": verify_C3_7,
    "P4.20": verify_P4_20,
    "P4.22": verify_P4_22,
    "C4.13": verify_C4_13,
    "C4.13-INT": verify_C4_13_intersection,
    "T4.14": verify_T4_14,
    "T4.26": verify_T4_26,
    "T5.1": verify_T5_1,
    "T5.6": verify_T5_1,
    "C5.7": verify_C5_7,
    "T5.8": verify_T5_8,
    "C5.9": verify_C5_9,
    "NEG-SS": verify_NEG_SS,
}


def run_theorem(theorem_id: str, seed: int = 0, trials: int | None = None,
                dim_cap: int = 6, field_cap: int = 5) -> VerifyReport:
    if theorem_id not in THEOREM_SUITES:
        raise KeyError(f"unknown theorem id {theorem_id!r}; known: {sorted(THEOREM_SUITES)}")
    kwargs = {"seed": seed, "dim_cap": dim_cap, "field_cap": field_cap}
    if trials is not None:
        kwargs["trials"] = trials
    return THEOREM_SUITES[theorem_id](**kwargs)


def apply_theorem_to_instance(
    theorem_id: str,
    tag: str,
    pa: PartialAction,
    report: VerifyReport,
    dim_cap: int = 6,
    field_cap: int = 5,
    seed: int = 0,
) -> None:
    """Run one theorem's per-instance check on a workspace-supplied action."""
    finite_small = (
        0 < pa.field.char <= field_cap and pa.alg.dim <= dim_cap
    )
    if theorem_id == "T4.26":
        check_equivariant_radical_transfer(pa, report, tag, "J")
    elif theorem_id == "T4.14":
        check_equivariant_radical_transfer(pa, report, tag, "P")
    elif theorem_id == "P4.20":
        check_radical_intersection(pa, report, tag, "J")
    elif theorem_id in ("C4.13", "C4.13-INT"):
        check_radical_intersection(pa, report, tag, "P")
    elif theorem_id == "P4.22":
        jh = h_jacobson_radical(pa)
        ja = jacobson_radical(pa.alg).radical
        report.add(f"{tag}: J_H <= J(A) and H-stable", jh <= ja and is_h_stable(pa, jh), "")
        check_radical_intersection(pa, report, tag, "J")
    elif theorem_id in ("T3.6", "C3.7"):
        sp = build_partial_smash(pa)
        if finite_small:
            ideals = enumerate_h_stable_ideals(pa, dim_cap=dim_cap, field_cap=field_cap)
        else:
            rng = random.Random(seed)
            ideals = {random_h_stable_ideal(rng, pa).rows for _ in range(6)}
            ideals = [Subspace(pa.field, pa.alg.dim, rows, tuple(
                next(i for i, x in enumerate(r) if x) for r in rows
            )) for rows in ideals]
        for I in ideals:
            report.add(
                f"{tag}: psi(phi(I)) = I at dim {I.dim}",
                psi_ideal(sp, phi_ideal(sp, I)) == I,
                "",
            )
    elif theorem_id in ("T5.1", "T5.6"):
        if is_semisimple(pa.hopf) and is_h_semiprimitive(pa):
            sp = build_partial_smash(pa)
            J = jacobson_radical(sp.carrier).radical
            report.add(f"{tag}: J(A#H) = 0", J.is_zero(), f"dim {J.dim}")
        else:
            report.add(f"{tag}: hypotheses not satisfied, skipped", True, "")
    elif theorem_id == "C5.7":
        if is_semisimple(pa.hopf):
            sp = build_partial_smash(pa)
            lhs = jacobson_radical(sp.carrier).radical
            rhs = phi_ideal(sp, h_jacobson_radical(pa))
            report.add(f"{tag}: J(A#H) = J_H(A)#H", lhs == rhs, "")
        else:
            report.add(f"{tag}: H not semisimple, skipped", True, "")
    elif theorem_id == "T5.8":
        if is_semisimple(pa.hopf) and h_prime_radical(pa).is_zero():
            sp = build_partial_smash(pa)
            P = prime_radical(sp.carrier)
            report.add(f"{tag}: P(A#H) = 0", P.is_zero(), f"dim {P.dim}")
        else:
            report.add(f"{tag}: hypotheses not satisfied, skipped", True, "")
    elif theorem_id == "C5.9":
        if is_semisimple(pa.hopf):
            sp = build_partial_smash(pa)
            lhs = prime_radical(sp.carrier)
            rhs = phi_ideal(sp, h_prime_radical(pa))
            report.add(f"{tag}: P(A#H) = P_H(A)#H", lhs == rhs, "")
        else:
            report.add(f"{tag}: H not semisimple, skipped", True, "")
    elif theorem_id == "NEG-SS":
        from psl.paction import is_global, trivial_action as _ta

        trivial = pa.act == _ta(pa.hopf, pa.alg).act
        if not is_semisimple(pa.hopf) and trivial and jacobson_radical(pa.alg).radical.is_zero():
            sp = build_partial_smash(pa)
            J = jacobson_radical(sp.carrier).radical
            report.add(f"{tag}: J(A (x) H) != 0", not J.is_zero(), f"dim {J.dim}")
        else:
            report.add(f"{tag}: hypotheses not satisfied, skipped", True, "")
    else:
        raise KeyError(f"unknown theorem id {theorem_id!r}")
