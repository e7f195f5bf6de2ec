"""Psi, irreducibility over Q and the maximal submodule of an extension, each
against the longer route it replaced.

- `psi_ideal` takes the preimage of J under a |-> a # 1_H.  The oracle
  intersects J with the image of A and solves for each basis row of the
  intersection.  J runs over J(A #_par H), its H*-colon ideal, seeded
  two-sided ideals and, over F_p, every enumerable H*-stable ideal.
- The unital algebra the operators of a module generate is one spin of the
  identity matrix under right multiplication by each operator.  The oracle
  closes the span of the operator matrices under products of pairs
  (`boxed_reference.operator_image_algebra`); both must have one dimension,
  over Q and over F_p.
- Over Q, `is_irreducible` answers True when the operators span M_d(Q)
  (Burnside).  The oracle answers True when the operator image algebra is
  semisimple and the commutant (the dense loop of `boxed_reference`) is Q.
- `irreducible_extension` grows U in one pass over the lines of W.  The
  oracle is the lattice of invariant subspaces of W: U meets V in 0 and no
  member of the lattice that meets V in 0 strictly contains U.
"""

import random

import pytest

import boxed_reference as ref
from helpers import dense_a_act, dense_h_act, dense_module_act, fix_a, fix_b, fix_c, matrix_algebra, mult_matrix, rand_scalar, solve_left
from psl.algebra import direct_product, ideal_closure, product_of_fields
from psl.exactla import GF, QQ, Subspace, _projective_raw, _spin, enumerate_invariant_subspaces
from psl.hopf import GroupTable, dual_group_algebra, group_algebra, sweedler_h4
from psl.paction import c4_triple, colon_ideal, dual_group_idempotent, quotient_action, trivial_action
from psl.pmod import (
    _generated_span,
    from_smash_module,
    irreducible_extension,
    is_irreducible,
    quotient_module,
    regular_module,
)
from psl.radicals import enumerate_h_stable_ideals, enumeration_refusal, jacobson_radical
from psl.smash import build_partial_smash, psi_ideal
from psl.verify import random_partial_action, truncated_polynomial_algebra
from test_structure_kernel import module_draws


def sparse_vec(rng, field, n):
    """Each entry zero with probability 1/2, so that it often generates a proper ideal."""
    return tuple(rand_scalar(rng, field) if rng.random() < 0.5 else field.zero for _ in range(n))


# ---------------------------------------------------------------------------
# Psi


def psi_by_intersection(sp, J):
    """J intersect (A # 1_H), each basis row solved back to A."""
    incl = sp.include_A.matrix
    inter = J.intersect(Subspace.from_vectors(sp.field, sp.carrier.dim, incl.rows))
    back = [solve_left(incl, w) for w in inter.rows]
    assert None not in back
    return Subspace.from_vectors(sp.field, sp.pa.alg.dim, back)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)], ids=repr)
def test_psi_is_the_preimage_of_j(field):
    rng = random.Random(15000 + field.char)
    checked = proper = 0
    for _ in range(20):
        sp = build_partial_smash(random_partial_action(rng, field, max_carrier=8))
        J = jacobson_radical(sp.carrier).radical
        ideals = [J, colon_ideal(sp.dual_action, J)]
        ideals += [ideal_closure(sp.carrier, [sparse_vec(rng, field, sp.carrier.dim)]) for _ in range(3)]
        if field.char and enumeration_refusal(field.char, sp.carrier.dim, 6, 5) is None:
            ideals += enumerate_h_stable_ideals(sp.dual_action)
        for I in ideals:
            got = psi_ideal(sp, I)
            assert got == psi_by_intersection(sp, I)
            checked += 1
            proper += not (got.is_zero() or got.is_full())
    assert checked >= 100 and proper >= 10, (checked, proper)


# ---------------------------------------------------------------------------
# irreducibility over Q


def q_irreducible_by_commutant(M):
    """The earlier answer: False when a basis vector spins a proper submodule, True when
    the image algebra is semisimple and the commutant is Q, None otherwise."""
    d = M.dim
    if d == 1:
        return True
    ops = ref.operator_matrices(M)
    if any(ref.closure_under_operators(QQ, d, [e], ops).dim != d for e in Subspace.full_space(QQ, d).rows):
        return False
    if ref.commutant_dimension(M) == 1 and jacobson_radical(ref.operator_image_algebra(M)).radical.is_zero():
        return True
    return None


def q_actions():
    yield fix_a()
    yield fix_b()
    yield fix_c()
    yield fix_c(hopf_order=4, alg_dim=1)
    yield fix_c(hopf_order=3, alg_dim=2)
    yield dual_group_idempotent(QQ, GroupTable.cyclic(4), [0, 2])
    yield dual_group_idempotent(QQ, GroupTable.cyclic(6), [0, 3])
    rng = random.Random(15001)
    for _ in range(15):
        yield random_partial_action(rng, QQ, max_carrier=8)


def q_modules():
    """Distinct partial modules of dim <= 6: from the regular carrier modules and 25 quotients
    by seeded one-sided ideals per side, for each of 22 actions."""
    rng = random.Random(15002)
    seen = set()
    for pa in q_actions():
        sp = build_partial_smash(pa)
        C = sp.carrier
        for side in ("right", "left"):
            mods = [regular_module(C, side)]
            for _ in range(25):
                I = ideal_closure(C, [sparse_vec(rng, QQ, C.dim)], side)
                if not I.is_full():
                    mods.append(quotient_module(C, I, side))
            for mod in mods:
                M = from_smash_module(sp, mod)
                key = (pa, side, dense_a_act(M), dense_h_act(M))
                if M.dim <= 6 and key not in seen:
                    seen.add(key)
                    yield M


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)], ids=repr)
def test_generated_span_has_the_dimension_of_the_operator_image_algebra(field):
    """On the Q modules above, and over F_p on the partial modules of the structure-kernel draws."""
    modules = list(q_modules()) if field == QQ else [M for *_, M in module_draws(field)]
    proper = 0  # d > 1 and the operators generate less than M_d
    for M in modules:
        got = _generated_span(field, M.dim, M._a_terms + M._h_terms)
        assert got.dim == ref.operator_image_algebra(M).dim, (M.pa, M.side, dense_a_act(M), dense_h_act(M))
        proper += M.dim > 1 and not got.is_full()
    assert len(modules) >= (150 if field == QQ else 20) and proper >= 10, (len(modules), proper)


def test_q_irreducibility_by_burnside_matches_the_commutant_route():
    answers = {False: 0, True: 0, None: 0}
    wide_true = 0
    for M in q_modules():
        got = is_irreducible(M)
        assert got is q_irreducible_by_commutant(M), (M.pa, M.side, dense_a_act(M), dense_h_act(M))
        answers[got] += 1
        wide_true += got is True and M.dim > 1
    assert sum(answers.values()) >= 150 and min(answers.values()) >= 5 and wide_true >= 10, (answers, wide_true)


# ---------------------------------------------------------------------------
# the maximal submodule of an extension

# the most lines of W whose lattice the test enumerates
LATTICE_LINES = 400


def fp_actions(F):
    """Trivial actions of kC_n, (kC_n)* and H_4 on small algebras, then dual-group idempotent
    actions, the C4-triple and their quotients by H-stable ideals."""
    p = F.char
    hopfs = [group_algebra(F, GroupTable.cyclic(n)) for n in range(1, 5)]
    hopfs += [dual_group_algebra(F, GroupTable.cyclic(n)) for n in range(2, 5)]
    if p != 2:
        hopfs.append(sweedler_h4(F))
    algebras = [product_of_fields(F, k) for k in range(1, 5)]
    algebras += [truncated_polynomial_algebra(F, k) for k in range(2, 5)]
    algebras += [group_algebra(F, GroupTable.cyclic(n)).alg for n in range(2, 5)]
    algebras += [matrix_algebra(F, 2), direct_product(product_of_fields(F, 1), truncated_polynomial_algebra(F, 2))]
    for H in hopfs:
        for A in algebras:
            yield trivial_action(H, A)
    partial = [
        dual_group_idempotent(F, GroupTable.cyclic(n), [i for i in range(n) if i % (n // d) == 0])
        for n in (2, 3, 4, 6) for d in range(2, n + 1) if n % d == 0 and d % p
    ]
    for pa in partial + [c4_triple(F)]:
        yield pa
        if pa.alg.dim <= 6:
            for I in enumerate_h_stable_ideals(pa):
                if not (I.is_zero() or I.is_full()):
                    yield quotient_action(pa, I)[0]


def simple_right_modules(A):
    """A/m for every maximal right ideal m."""
    right = [mult_matrix(A, A.basis_vector(i), left=False) for i in range(A.dim)]
    proper = [I for I in enumerate_invariant_subspaces(A.field, A.dim, right) if not I.is_full()]
    for m in proper:
        if not any(m != I and m <= I for I in proper):
            yield quotient_module(A, m, "right")


def first_absorbed(F, W, v_image):
    """The spin of the first line of W whose spin meets V in 0, or None."""
    ops = W._a_terms + W._h_terms
    spins = (_spin(F, W.dim, [v], ops) for v in _projective_raw(F.char, W.dim))
    return next((c for c in spins if c.intersect(v_image).is_zero()), None)


def test_one_pass_submodule_is_maximal_among_those_meeting_v_in_zero():
    seen = set()
    multi = 0
    for F in (GF(2), GF(3), GF(5)):
        for pa in fp_actions(F):
            for V in simple_right_modules(pa.alg):
                d = V.dim * pa.hopf.dim
                key = (pa, pa.alg.labels, pa.hopf.alg.labels, dense_module_act(V))
                if (F.char ** d - 1) // (F.char - 1) > LATTICE_LINES or key in seen:
                    continue
                seen.add(key)
                res = irreducible_extension(pa, V)
                W, U = res.extension.module, res.killed
                v_image = Subspace.from_vectors(F, W.dim, res.extension.embedding.rows)
                assert U.intersect(v_image).is_zero()
                for T in enumerate_invariant_subspaces(F, W.dim, ref.operator_matrices(W)):
                    assert not (U <= T and T != U and T.intersect(v_image).is_zero()), (pa, dense_module_act(V), U, T)
                # more than one line was absorbed unless U is the spin of the first
                first = first_absorbed(F, W, v_image)
                multi += first is not None and first != U
    assert len(seen) >= 500 and multi >= 100, (len(seen), multi)
