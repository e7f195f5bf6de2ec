"""Invariant-subspace enumeration and spin closure against exhaustive search.

Every subspace of F_2^n (n <= 4) and of F_3^n (n <= 3) is listed by brute
force as the set of its vectors, with plain integer arithmetic mod p and no
`psl` code; the ones invariant under a seeded random operator set (the empty
set and the identity included) must be exactly what
`enumerate_invariant_subspaces` returns.  The spin closure (`_spin` on the
operators' sparse rows from `_operator_terms`) must agree with the
round-by-round closure it replaced on random vectors.
"""

import itertools
import random

import pytest

import boxed_reference as ref
from psl.exactla import GF, Matrix, Subspace, _operator_terms, _spin, enumerate_invariant_subspaces

CASES = [(2, n) for n in range(1, 5)] + [(3, n) for n in range(1, 4)]


def span_set(p, vecs, n):
    """All vectors of span(vecs) in F_p^n, as a frozenset of int tuples."""
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(vecs)):
        out.add(tuple(sum(c * v[j] for c, v in zip(coeffs, vecs)) % p for j in range(n)))
    return frozenset(out) if vecs else frozenset({(0,) * n})


def all_subspaces(p, n):
    """Every subspace of F_p^n: spans of at most n vectors, deduplicated."""
    vectors = list(itertools.product(range(p), repeat=n))
    found = set()
    for k in range(n + 1):
        for vecs in itertools.combinations(vectors, k):
            found.add(span_set(p, vecs, n))
    return found


def invariant(p, space, op_rows, n):
    """v @ op stays in the space for every vector v of it."""
    return all(
        tuple(sum(v[i] * op_rows[i][j] for i in range(n)) % p for j in range(n)) in space
        for v in space
    )


def random_operators(rng, p, n):
    """Seeded operator sets: none, the identity, then dense, triangular and diagonal draws."""
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    yield []
    yield [identity]
    for _ in range(6):
        ops = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(3)
            if kind == 0:
                ops.append([[rng.randrange(p) for _ in range(n)] for _ in range(n)])
            elif kind == 1:
                ops.append([[rng.randrange(p) if j >= i else 0 for j in range(n)] for i in range(n)])
            else:
                ops.append([[rng.randrange(p) if i == j else 0 for j in range(n)] for i in range(n)])
        yield ops


@pytest.mark.parametrize("p, n", CASES)
def test_enumeration_matches_exhaustive_lattice(p, n):
    field = GF(p)
    subspaces = all_subspaces(p, n)
    rng = random.Random(1000 * p + n)
    sizes = set()
    for ops in random_operators(rng, p, n):
        expected = sorted(sorted(S) for S in subspaces if all(invariant(p, S, op, n) for op in ops))
        got = enumerate_invariant_subspaces(field, n, [Matrix(field, op) for op in ops])
        assert got == sorted(got, key=Subspace.sort_key)
        assert sorted(sorted(span_set(p, [list(r) for r in S.rows], n)) for S in got) == expected
        sizes.add(len(expected))
    # the empty set keeps every subspace; from n = 2 on the draws must also cut the lattice down
    assert max(sizes) == len(subspaces) and (n == 1 or len(sizes) > 2)


@pytest.mark.parametrize("p, n", CASES + [(5, 3), (2, 6)])
def test_spin_closure_matches_round_by_round_closure(p, n):
    field = GF(p)
    rng = random.Random(77 * p + n)
    for ops in random_operators(rng, p, n):
        mats = [Matrix(field, op) for op in ops]
        for k in range(3):
            vecs = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
            got = _spin(field, n, [list(v) for v in vecs], _operator_terms(field, n, mats))  # _spin consumes its seeds
            assert got == ref.closure_under_operators(field, n, vecs, mats)
