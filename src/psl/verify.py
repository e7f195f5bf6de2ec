"""The theorem table of `psl verify` and its seeded instance generator.

Each theorem in THEOREMS runs one per-instance `check` alike on built-in
fixtures, seeded random instances and workspace actions.  Random partial
actions come only from soundness-preserving constructors (trivial actions,
induced actions on idempotent ideals of group algebras, quotients by H-stable
ideals): rejection-sampling raw tensors would find nothing.  Each call of an
instance source draws from one pool, which builds every group, Hopf algebra and
builder action once and hands equal draws the first of them; nothing in the
pool outlives the call, so each object is still built and checked in every run.
"""

from __future__ import annotations

import random
from functools import partial, reduce
from itertools import chain, combinations_with_replacement
from typing import Callable, Iterable, NamedTuple

from psl.algebra import (
    Algebra,
    direct_product,
    ideal_closure,
    product_of_fields,
    quotient_algebra,
    span_products,
)
from psl.exactla import GF, QQ, Field, Subspace, line_refusal, unit_vec
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
    _translation_action,
    c4_triple,
    colon_ideal,
    dual_group_idempotent,
    quotient_action,
    trivial_action,
)
from psl.radicals import (
    _is_h_prime_among,
    enumerate_h_stable_ideals,
    enumeration_refusal,
    h_jacobson_radical,
    h_radical_of_ideal,
    jacobson_radical,
)
from psl.smash import build_partial_smash, phi_ideal, psi_ideal

# max dim A * dim H of the ideal-lattice draws, and of the carriers C3.7 enumerates
ENUM_CARRIER_CAP = 8


class VerifyCase(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


class VerifyReport:
    """The cases one theorem run has checked, in order."""

    def __init__(self, theorem: str):
        self.theorem = theorem
        self.cases: list[VerifyCase] = []

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.cases.append(VerifyCase(name, ok, detail))

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [f"{self.theorem}: {status} ({len(self.cases)} checks)"]
        lines += [f"  FAIL {c.name}: {c.detail}" for c in self.cases if not c.ok]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# fixtures and random instances

class _Pool:
    """What one instance-source call builds, each once: the cyclic groups, kC_n and (kC_n)*,
    the C4-triple and the dual-group idempotent actions, and the first of each set of equal
    accepted draws.  A pool lives for one call, so every object it holds was built, and
    axiom-checked, within that call."""

    def __init__(self):
        self._built = {}
        self._draws = {}

    def _once(self, key, build):
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def cyclic(self, n: int) -> GroupTable:
        return self._once(("C", n), lambda: GroupTable.cyclic(n))

    def group_algebra(self, field: Field, n: int) -> HopfAlgebra:
        return self._once(("kC", field, n), lambda: group_algebra(field, self.cyclic(n)))

    def dual_group_algebra(self, field: Field, n: int) -> HopfAlgebra:
        return self._once(("kC*", field, n), lambda: dual_group_algebra(field, self.cyclic(n)))

    def c4_triple(self, field: Field) -> PartialAction:
        return self._once(("C4-triple", field), lambda: c4_triple(field))

    def dual_group_idempotent(self, field: Field, n: int, N: tuple[int, ...]) -> PartialAction:
        translation = self._once(
            ("translation", field, n),
            lambda: _translation_action(self.dual_group_algebra(field, n), self.group_algebra(field, n).alg),
        )
        return self._once(
            ("idempotent", field, n, N),
            lambda: dual_group_idempotent(field, self.cyclic(n), N, translation=translation),
        )

    def first(self, pa: PartialAction) -> PartialAction:
        """The first draw equal to `pa`, labels included, so that equal draws share one smash product."""
        return self._draws.setdefault((pa, pa.alg.labels, pa.hopf.alg.labels), pa)


def fixture_d(*, pool: _Pool | None = None) -> PartialAction:
    """F2C2 acting trivially on F2: the non-semisimple negative control."""
    F2 = GF(2)
    return trivial_action((pool or _Pool()).group_algebra(F2, 2), product_of_fields(F2, 1))


def truncated_polynomial_algebra(field: Field, k: int) -> Algebra:
    """field[x] / (x^k) on the basis 1, x, ..., x^{k-1}."""
    terms = tuple(tuple(((i + j, 1),) if i + j < k else () for j in range(k)) for i in range(k))
    labels = ["1"] + [f"x^{i}" if i > 1 else "x" for i in range(1, k)]
    return Algebra._of_terms(field, terms, unit_vec(field, k, 0), labels)


def _random_vec(rng: random.Random, field: Field, n: int) -> tuple:
    return tuple(field.of(rng.randrange(field.char) if field.char else rng.randint(-2, 2)) for _ in range(n))


def random_algebra(rng: random.Random, field: Field, max_dim: int = 4, *, pool: _Pool | None = None) -> Algebra:
    """A random unital algebra of dimension at most max(`max_dim`, 2); group algebras come from `pool`.

    At `max_dim` 1 kinds 3 and 4 may still return dimension 2; the caller's
    carrier cap decides.
    """
    pool = pool or _Pool()
    kind = rng.randrange(5)
    if kind == 0:
        return product_of_fields(field, rng.randint(1, max_dim))
    if kind == 1:
        n = rng.randint(1, max_dim)
        return pool.group_algebra(field, n).alg
    if kind == 2:
        return truncated_polynomial_algebra(field, rng.randint(1, min(3, max_dim)))
    if kind == 3:
        a = product_of_fields(field, rng.randint(1, 2))
        b = pool.group_algebra(field, rng.randint(1, 2)).alg
        prod = direct_product(a, b)
        return prod if prod.dim <= max_dim else a
    A = pool.group_algebra(field, rng.randint(2, max(2, max_dim))).alg
    I = ideal_closure(A, [_random_vec(rng, field, A.dim)])
    if I.is_full():
        return A
    return quotient_algebra(A, I)[0]


def random_partial_action(
    rng: random.Random,
    field: Field,
    *,
    max_carrier: int = 10,
    semisimple_hopf: bool | None = None,
    tries: int = 60,
    pool: _Pool | None = None,
) -> PartialAction:
    """A random checked partial action whose carrier has dim A * dim H <= `max_carrier`.

    The carrier cap, and the Hopf filter when `semisimple_hopf` is set, are
    the only acceptance rule; an error raised inside a draw propagates.
    Groups, Hopf algebras and builder actions come from `pool` (a fresh one
    when none is passed), and an accepted draw equal to one the pool has seen,
    labels included, is replaced by that one, so equal draws share one smash
    product.
    """
    pool = pool or _Pool()
    p = field.char
    for _ in range(tries):
        kind = rng.randrange(4)
        if kind == 0:
            order = rng.randint(1, 4)
            H = (pool.group_algebra if rng.random() < 0.5 else pool.dual_group_algebra)(field, order)
            if p == 2 and rng.random() < 0.3:
                H = pool.group_algebra(field, 2)
            A = random_algebra(rng, field, max_dim=max(1, max_carrier // H.dim), pool=pool)
            pa = trivial_action(H, A)
        elif kind == 1:
            if max_carrier < 12:
                continue
            pa = pool.c4_triple(field)
        elif kind == 2:
            n = rng.choice([2, 3, 4, 6])
            d = rng.choice([d for d in range(2, n + 1) if n % d == 0])
            if p and d % p == 0:
                continue
            N = tuple(i for i in range(n) if i % (n // d) == 0)
            if n * (n // d) > max_carrier:
                continue
            pa = pool.dual_group_idempotent(field, n, N)
        else:
            base = random_partial_action(
                rng, field, max_carrier=max_carrier, semisimple_hopf=semisimple_hopf,
                tries=10, pool=pool,
            )
            I = random_h_stable_ideal(rng, base)
            if I.is_full() or I.is_zero():
                pa = base
            else:
                pa = quotient_action(base, I)[0]
        if pa.alg.dim * pa.hopf.dim > max_carrier:
            continue
        if semisimple_hopf is not None and is_semisimple(pa.hopf) != semisimple_hopf:
            continue
        return pool.first(pa)
    raise RuntimeError(f"no random partial action with dim A * dim H <= {max_carrier} in {tries} tries")


def random_h_stable_ideal(rng: random.Random, pa: PartialAction) -> Subspace:
    return colon_ideal(pa, ideal_closure(pa.alg, [_random_vec(rng, pa.field, pa.alg.dim)]))


# ---------------------------------------------------------------------------
# per-instance checks
#
# A check adds the cases of one instance to the report and returns whether the
# theorem's hypotheses held on it (the sources of the semisimple-H theorems yield
# only semisimple H).  In finite dimension P(A) = J(A), so the P theorems run the
# J code path and `kind` only labels their cases.

def _enumerable(pa: PartialAction, dim_cap: int, field_cap: int) -> bool:
    """Whether the H-stable ideals of A can be enumerated within the caps and the budget."""
    p = pa.field.char
    return p > 0 and enumeration_refusal(p, pa.alg.dim, dim_cap, field_cap) is None


def check_transfer(kind: str, report: VerifyReport, tag: str, pa: PartialAction, **_) -> bool:
    """T4.26 / T4.14: kind_{H*}(A#H) = kind_H(A)#H, and back through Psi."""
    sp = build_partial_smash(pa)
    side_a = h_jacobson_radical(pa)
    side_c = h_jacobson_radical(sp.dual_action)
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
    return True


def check_intersection(kind: str, report: VerifyReport, tag: str, pa: PartialAction, **_) -> bool:
    """P4.20 / C4.13-INT: (kind(A):H) = kind(A#H) /\\ A through independent routes."""
    sp = build_partial_smash(pa)
    lhs = h_jacobson_radical(pa)
    rhs = psi_ideal(sp, jacobson_radical(sp.carrier).radical)
    report.add(
        f"{tag}: ({kind}(A):H) = {kind}(A#H) /\\ A",
        lhs == rhs,
        f"colon dim {lhs.dim}, psi dim {rhs.dim}",
    )
    return True


def _once_per_ideal(derive: Callable[[Subspace], Subspace]) -> Callable[[Subspace], Subspace]:
    """`derive` run once per ideal of one instance, its images looked up by `Subspace.rows`.

    The ideals of one instance share a field and an ambient space, so their
    RREF rows name them; a miss runs `derive`, its preconditions included.
    """
    images: dict[tuple, Subspace] = {}

    def image(I: Subspace) -> Subspace:
        if I.rows not in images:
            images[I.rows] = derive(I)
        return images[I.rows]

    return image


def check_largest_h_ideal(report: VerifyReport, tag: str, pa: PartialAction, *,
                          dim_cap: int, field_cap: int, **_) -> bool:
    """P4.22: J_H = (J(A):H) is the largest H-stable ideal inside J(A)."""
    if not _enumerable(pa, dim_cap, field_cap):
        return check_intersection("J", report, tag, pa)
    ja = jacobson_radical(pa.alg).radical
    jh = colon_ideal(pa, ja)
    ideals = enumerate_h_stable_ideals(pa, dim_cap=dim_cap, field_cap=field_cap)
    inside = [I for I in ideals if not I.is_zero() and I <= ja]
    report.add(
        f"{tag}: semiprimitivity criterion",
        jh.is_zero() == (not inside),
        f"J_H dim {jh.dim}, {len(inside)} nonzero H-stable ideals inside J(A)",
    )
    biggest = sum(inside, Subspace.zero_space(pa.field, pa.alg.dim))
    report.add(f"{tag}: J_H is the largest H-stable ideal inside J(A)", jh == biggest, f"J_H dim {jh.dim}")
    return True


def check_h_radicals(report: VerifyReport, tag: str, pa: PartialAction, *,
                     dim_cap: int, field_cap: int, **_) -> bool:
    """C4.13: Hrz(I) = (sqrt(I):H), quotient route against the H-primes over I."""
    if not _enumerable(pa, dim_cap, field_cap):
        return check_intersection("P", report, tag, pa)
    ideals = enumerate_h_stable_ideals(pa, dim_cap=dim_cap, field_cap=field_cap)
    proper = [I for I in ideals if not I.is_full()]
    primes = [I for I in proper if _is_h_prime_among(pa.alg, I, ideals)]
    radical = _once_per_ideal(partial(h_radical_of_ideal, pa))
    for I in proper:
        hrz = radical(I)
        inter = reduce(Subspace.intersect, [P for P in primes if I <= P], Subspace.full_space(pa.field, pa.alg.dim))
        report.add(
            f"{tag}: Hrz(ideal dim {I.dim})",
            hrz == inter,
            f"quotient route dim {hrz.dim}, enumeration dim {inter.dim}",
        )
        report.add(f"{tag}: idempotence at dim {I.dim}", radical(hrz) == hrz, "")
    return True


def check_ideal_correspondence(report: VerifyReport, tag: str, pa: PartialAction, *,
                               seed: int, dim_cap: int, field_cap: int) -> bool:
    """T3.6: Phi/Psi round trips and lattice preservation on the H-stable ideals.

    On a nested pair I <= J, I+J = J and I/\\J = I, so Phi preserves both
    exactly when Phi(I) <= Phi(J); only the other pairs are eliminated.
    """
    sp = build_partial_smash(pa)
    if _enumerable(pa, dim_cap, field_cap):
        ideals = enumerate_h_stable_ideals(pa, dim_cap=dim_cap, field_cap=field_cap)
    else:  # beyond the caps, up to six random H-stable ideals
        rng = random.Random(seed)
        ideals = list({I.rows: I for I in (random_h_stable_ideal(rng, pa) for _ in range(6))}.values())
    phi = _once_per_ideal(partial(phi_ideal, sp))
    images = [phi(I) for I in ideals]
    for I, im in zip(ideals, images):
        report.add(f"{tag}: psi(phi(I)) = I at dim {I.dim}", psi_ideal(sp, im) == I, "")
    report.add(
        f"{tag}: phi is injective",
        len({im.rows for im in images}) == len(ideals),
        f"{len(ideals)} ideals",
    )
    for i, j in combinations_with_replacement(range(len(ideals)), 2):
        I, J = ideals[i], ideals[j]
        small, big = (i, j) if I.dim <= J.dim else (j, i)
        if ideals[small] <= ideals[big]:  # nested: both checks read Phi(small) <= Phi(big)
            ok_sum = ok_int = images[small] <= images[big]
        else:
            ok_sum = phi(I + J) == images[i] + images[j]
            ok_int = phi(I.intersect(J)) == images[i].intersect(images[j])
        prod = span_products(pa.alg, I, J)
        ok_prod = phi(prod) == span_products(sp.carrier, images[i], images[j])
        if not (ok_sum and ok_int and ok_prod):
            report.add(
                f"{tag}: lattice ops at pair ({i},{j})", False,
                f"sum {ok_sum}, intersection {ok_int}, product {ok_prod}",
            )
    report.add(f"{tag}: lattice ops on all pairs", True, f"{len(ideals)}^2 pairs")
    return True


def check_dual_ideals(report: VerifyReport, tag: str, pa: PartialAction, *,
                      seed: int, dim_cap: int, field_cap: int) -> bool:
    """C3.7: H*-stable ideals of A#H correspond bijectively to H-stable ideals of A."""
    carrier_cap = pa.alg.dim * pa.hopf.dim  # the carrier has at most this dimension
    if not (
        _enumerable(pa, dim_cap, field_cap)
        and carrier_cap <= ENUM_CARRIER_CAP
        and line_refusal(pa.field.char, carrier_cap) is None
    ):
        return check_ideal_correspondence(report, tag, pa, seed=seed, dim_cap=dim_cap, field_cap=field_cap)
    sp = build_partial_smash(pa)
    ideals = enumerate_h_stable_ideals(pa, dim_cap=dim_cap, field_cap=field_cap)
    dual_ideals = enumerate_h_stable_ideals(sp.dual_action, dim_cap=max(dim_cap, sp.carrier.dim), field_cap=field_cap)
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
    return True


def check_radical_vanishes(kind: str, report: VerifyReport, tag: str, pa: PartialAction, **_) -> bool:
    """T5.1 / T5.8: semisimple H and H-semiprimitive A give kind(A#H) = 0."""
    if not h_jacobson_radical(pa).is_zero():
        return False
    J = jacobson_radical(build_partial_smash(pa).carrier).radical
    report.add(f"{tag}: {kind}(A#H) = 0", J.is_zero(), f"{kind} dim {J.dim}")
    return True


def check_semisimple_transfer(kind: str, report: VerifyReport, tag: str, pa: PartialAction, **_) -> bool:
    """C5.7 / C5.9: for semisimple H, kind(A#H) = kind_H(A)#H."""
    sp = build_partial_smash(pa)
    lhs = jacobson_radical(sp.carrier).radical
    rhs = phi_ideal(sp, h_jacobson_radical(pa))
    report.add(tag, lhs == rhs, f"{kind}(A#H) dim {lhs.dim}, phi({kind}_H) dim {rhs.dim}")
    return True


def check_non_semisimple(report: VerifyReport, tag: str, pa: PartialAction, **_) -> bool:
    """NEG-SS: non-semisimple H acting trivially gives J(A (x) H) >= A (x) J(H) != 0; see NEGATIVE_CONTROLS."""
    want = NEGATIVE_CONTROLS[tag][1] if tag in NEGATIVE_CONTROLS else None
    if is_semisimple(pa.hopf) or pa != trivial_action(pa.hopf, pa.alg):
        if want:
            report.add(f"{tag}: hypotheses hold", False, "H is semisimple or acts nontrivially")
        return False
    J = jacobson_radical(build_partial_smash(pa).carrier).radical
    ok = J.dim == want if want else J.dim > 0
    report.add(f"{tag}: J(A (x) H) has dimension {want or '> 0'}", ok, f"dim {J.dim}")
    return True


# ---------------------------------------------------------------------------
# instance sources: (seed, trials, dim_cap, field_cap, workspace) -> (tag, action) pairs,
# drawn lazily so that each action and its smash product die after its check

def seeded_instances(semisimple_hopf: bool | None, seed: int, trials: int, dim_cap: int, field_cap: int, workspace):
    """Fixtures, draw t over the t-th of the primes 2, 3, 5, 7, 11, 13 cyclically, then the workspace."""
    pool = _Pool()
    yield "FIX-A", pool.dual_group_idempotent(QQ, 2, (0, 1))
    yield "FIX-B", pool.c4_triple(QQ)
    yield "FIX-C", trivial_action(pool.group_algebra(QQ, 2), product_of_fields(QQ, 3))
    if not semisimple_hopf:  # F2C2 is not semisimple
        yield "FIX-D", pool.first(fixture_d(pool=pool))
    rng = random.Random(seed)
    for t in range(trials):
        p = (2, 3, 5, 7, 11, 13)[t % 6]
        cap = 10 if p in (11, 13) else (8 if p == 2 else (7 if p == 3 else 6))
        try:
            pa = random_partial_action(rng, GF(p), max_carrier=cap, semisimple_hopf=semisimple_hopf, pool=pool)
        except RuntimeError:
            continue
        yield f"random-{t}(F{p})", pa
    yield from (item for item in workspace if not semisimple_hopf or is_semisimple(item[1].hopf))


def lattice_instances(primes: tuple[int, ...], fixtures: tuple, seed: int, trials: int, dim_cap: int, field_cap: int,
                      workspace):
    """(tag, builder) fixtures, seeded draws over `primes` whose ideals can be enumerated, the workspace actions."""
    for tag, build in fixtures:
        yield tag, build()
    pool = _Pool()
    rng = random.Random(seed)
    for t in range(trials):
        p = rng.choice(primes)
        try:
            pa = random_partial_action(rng, GF(p), max_carrier=ENUM_CARRIER_CAP, pool=pool)
        except RuntimeError:
            continue
        if _enumerable(pa, dim_cap, field_cap):
            yield f"random-{t}(F{p})", pa
    yield from workspace


# the built-in controls of NEG-SS: tag -> (builder, dimension of J(A (x) H) it must have)
NEGATIVE_CONTROLS = {
    "FIX-D": (fixture_d, 1),
    "Sweedler H4 over Q": (lambda: trivial_action(sweedler_h4(QQ), product_of_fields(QQ, 1)), 2),
    "F3C3 trivial on F3^2": (
        lambda: trivial_action(group_algebra(GF(3), GroupTable.cyclic(3)), product_of_fields(GF(3), 2)), 4
    ),
}


def negative_controls(seed: int, trials: int, dim_cap: int, field_cap: int, workspace):
    return chain(((tag, build()) for tag, (build, _dim) in NEGATIVE_CONTROLS.items()), workspace)


# ---------------------------------------------------------------------------
# the theorem table

class Theorem(NamedTuple):
    """One theorem: its instance source, the one check all instances get, the default
    number of random draws, and how often (at most `trials`) its hypotheses must apply."""

    title: str
    instances: Callable[..., Iterable[tuple[str, PartialAction]]]
    check: Callable[..., bool]
    trials: int = 0
    floor: int = 0

    def run(self, seed: int = 0, trials: int | None = None, dim_cap: int = 6, field_cap: int = 5,
            workspace: Iterable[tuple[str, PartialAction]] = ()) -> VerifyReport:
        """Check the seeded instances, then the (tag, action) pairs of `workspace` the source admits."""
        trials = self.trials if trials is None else trials
        report = VerifyReport(self.title)
        applied = 0
        for tag, pa in self.instances(seed, trials, dim_cap, field_cap, workspace):
            applied += self.check(report, tag, pa, seed=seed, dim_cap=dim_cap, field_cap=field_cap)
        if self.floor:
            need = min(self.floor, trials)
            report.add(f"hypotheses applied at least {need} times", applied >= need, f"{applied} instances")
        return report


_SEEDED = partial(seeded_instances, None)
_SEMISIMPLE = partial(seeded_instances, True)
_FIX_D = ("FIX-D", fixture_d)

THEOREMS = {
    "T3.6": Theorem(
        "T3.6 ideal correspondence",
        partial(lattice_instances, (2, 3, 5), (_FIX_D, ("FIX-B(F2)", partial(c4_triple, GF(2))))),
        check_ideal_correspondence, 8,
    ),
    "C3.7": Theorem(
        "C3.7 H*-stable ideals of A#H", partial(lattice_instances, (2, 3), (_FIX_D,)), check_dual_ideals, 6
    ),
    "P4.20": Theorem("P4.20 (J(A):H) = J(A#H) /\\ A", _SEEDED, partial(check_intersection, "J"), 40),
    "P4.22": Theorem(
        "P4.22 J_H(A) = (J(A):H)", partial(lattice_instances, (2, 3, 5), (_FIX_D,)), check_largest_h_ideal, 12
    ),
    "C4.13": Theorem(
        "C4.13 Hrz(I) = intersection of H-primes over I", partial(lattice_instances, (2, 3), ()), check_h_radicals, 10
    ),
    "C4.13-INT": Theorem("C4.13 (P(A):H) = P(A#H) /\\ A", _SEEDED, partial(check_intersection, "P"), 40),
    "T4.14": Theorem("T4.14 P_{H*}(A#H) = P_H(A)#H", _SEEDED, partial(check_transfer, "P"), 100),
    "T4.26": Theorem("T4.26 J_{H*}(A#H) = J_H(A)#H", _SEEDED, partial(check_transfer, "J"), 100),
    "T5.1": Theorem("T5.1/T5.6 semiprimitivity of A#H", _SEMISIMPLE, partial(check_radical_vanishes, "J"), 30, 10),
    "C5.7": Theorem("C5.7 J(A#H) = J_H(A)#H", _SEMISIMPLE, partial(check_semisimple_transfer, "J"), 30),
    "T5.8": Theorem("T5.8 semiprimality of A#H", _SEMISIMPLE, partial(check_radical_vanishes, "P"), 30, 10),
    "C5.9": Theorem("C5.9 P(A#H) = P_H(A)#H", _SEMISIMPLE, partial(check_semisimple_transfer, "P"), 30),
    "NEG-SS": Theorem("NEG-SS necessity of semisimplicity", negative_controls, check_non_semisimple),
}
THEOREMS["T5.6"] = THEOREMS["T5.1"]
