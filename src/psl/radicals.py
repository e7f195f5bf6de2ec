"""Jacobson and prime radicals, their H-equivariant versions, and
H-(semi)primality predicates.

For a finite-dimensional algebra the Jacobson radical is the largest
nilpotent ideal and coincides with the prime radical, so one engine
serves both.  Over characteristic 0 (or p > dim) the radical is the
kernel of the trace form (x, y) |-> tr(L_{xy}).  In small positive
characteristic (p <= dim) the trace-form kernel only contains the
radical, and the Cohen-Ivanyos-Wales algorithm cuts it down to J(A) in
floor(log_p dim) further linear steps.  Every radical is checked to be
a nilpotent two-sided ideal before it is returned.  The H-radical of an
H-stable ideal I is Hrz(I) = (sqrt(I):H), sqrt(I) the preimage of J(A/I)
under the quotient algebra map.

The only heavy step of Cohen-Ivanyos-Wales is tr(L^e) mod q for q = p^(i+1).
Products mod q run on packed rows (Kronecker substitution, with the
reduction delayed to one per entry): each row of the right factor is one
Python int with slots of w = (n (q-1)^2).bit_length() bits, wide enough
that a row sum of n products of entries in [0, q) never carries out of its
slot.  Square-and-multiply never forms its last product, only its trace.
"""

from __future__ import annotations

from operator import itemgetter, lshift, mul
from typing import NamedTuple, Sequence

from psl.algebra import (
    Algebra,
    InvariantViolation,
    _mult_operators,
    is_ideal,
    nilpotency_index,
    quotient_algebra,
    span_products,
)
from psl.exactla import (
    DimensionTooLarge,
    Matrix,
    Subspace,
    _canon,
    _invariant_lattice,
    _null_span,
    preimage_under,
)
from psl.paction import (
    NotHStable,
    PartialAction,
    colon_ideal,
    is_h_stable,
)


class FieldNotFinite(ValueError):
    """Operation needs a finite field."""


class RadicalReport(NamedTuple):
    radical: Subspace
    method: str  # "trace-form" | "cohen-ivanyos-wales"
    nilpotency_index: int


def trace_form_kernel(A: Algebra) -> Subspace:
    """Kernel of the bilinear form (x, y) |-> tr(L_{xy}); always contains J(A).

    tr(L_x) is linear in x, so with t_m = tr(L_{e_m}) the Gram matrix is
    gram[i][j] = sum_m c_ij^m t_m: O(n^3) scalar operations.
    """
    n, p, terms = A.dim, A.field.char, A.terms
    t = [sum(c for j in range(n) for k, c in terms[m][j] if k == j) for m in range(n)]
    gram = tuple(_canon([sum(c * t[k] for k, c in terms[i][j]) for j in range(n)], p) for i in range(n))
    return Matrix._of_raw(A.field, gram, n).left_kernel()


def _lifted_power_trace(L: list[list[int]], e: int, q: int) -> int:
    """tr(L^e) mod q for an integer matrix L and e >= 1.

    Square-and-multiply on L mod q, with the last product never formed:
    L^e = R B for B the top square, and tr(R B) is summed in n^2 steps
    (tr(B B) when e is a power of two), so tr(L^2) needs no product at all.
    """
    base = [[x % q for x in row] for row in L]
    result = None
    while e > 1:
        if e & 1:
            result = base if result is None else _packed_product(result, base, q)
        e >>= 1
        if e == 1 and result is None:
            return _trace_of_product(base, base, q)
        base = _packed_product(base, base, q)
    if result is None:
        return sum(row[i] for i, row in enumerate(base)) % q
    return _trace_of_product(result, base, q)


def _packed_product(X: list[list[int]], Y: list[list[int]], q: int) -> list[list[int]]:
    """X Y mod q for square matrices with entries in [0, q), one packed int per row of Y.

    Row k of Y is packed into P_k = sum_j Y_kj 2^(w j).  A row of X Y is then
    sum_k X_ik P_k, n big-int multiply-adds, and slot j of that sum holds the
    unreduced sum_k X_ik Y_kj <= n (q-1)^2 < 2^w, so no slot carries into the
    next; each entry is read back with a shift, a mask and one reduction mod q.
    """
    w = (len(Y) * (q - 1) ** 2).bit_length()
    mask = (1 << w) - 1
    shifts = range(0, w * len(Y), w)
    packed = [sum(map(lshift, row, shifts)) for row in Y]
    out = []
    for row in X:
        acc = 0
        for x, P in zip(row, packed):
            if x:
                acc += x * P
        out.append([(acc >> s & mask) % q for s in shifts])
    return out


def _trace_of_product(X: list[list[int]], Y: list[list[int]], q: int) -> int:
    """tr(X Y) = sum_ij X_ij Y_ji mod q, without forming X Y."""
    return sum(sum(map(mul, row, col)) for row, col in zip(X, zip(*Y))) % q


def _cohen_ivanyos_wales_radical(A: Algebra) -> Subspace:
    """J(A) over F_p by Cohen-Ivanyos-Wales on the left regular representation.

    Cohen, Ivanyos, Wales, "Finding the radical of an algebra of linear
    transformations", JPAA 117/118 (1997).  With L~_x an integer lift of
    L_x (the value does not depend on which) and
    g_i(x) = (tr(L~_x^(p^i)) mod p^(i+1)) / p^i, set I_0 = the
    trace-form kernel and I_i = {a in I_{i-1} : g_i(ab) = 0 for all b in A};
    then J(A) = I_l for l = floor(log_p dim A).  g_i is linear on the ideal
    I_{i-1}, so g_i(a e_b) = sum_s coord_s(a e_b) g_i(a_s) over the RREF
    basis a_s of I_{i-1}, and each step is one `_null_span` over F_p of the
    rows [g_i(a_r e_b) for b | a_r], which gives I_i in RREF.  All
    arithmetic is on plain ints.  The traces tr(L~^(p^i)) mod p^(i+1)
    multiply packed rows (slot bound n (q-1)^2 < 2^w, see the module
    docstring) and only trace their last product, so the first step forms
    no product for p = 2 and one for p = 3.
    """
    p, n = A.field.char, A.dim
    I = trace_form_kernel(A)
    # mult[m][j] = nonzero (k, c_mj^k): row j of L_{e_m}
    mult = A.terms
    pi = p
    while I.rows and pi <= n:
        q = pi * p
        lifts, g = [], []
        for a in I.rows:
            L = [[0] * n for _ in range(n)]
            for m, am in enumerate(a):
                if am:
                    for Lj, cells in zip(L, mult[m]):
                        for k, c in cells:
                            Lj[k] += am * c
            # a = a*1 in I_{i-1} gives tr(L~^(p^(i-1))) = 0 mod p^i, and
            # tr(M^(p^i)) = tr(M^(p^(i-1))) mod p^i for every integer matrix M
            tr = _lifted_power_trace(L, pi, q)
            if tr % pi:
                raise InvariantViolation(f"tr(L^{pi}) = {tr} mod {q} is not divisible by {pi}")
            lifts.append(L)
            g.append(tr // pi)
        # g-block entry b of row r: sum_s L_r[b][pivots[s]] g_s, one C-level dot product
        # (itemgetter of a single index returns the entry, not a 1-tuple)
        pick = itemgetter(*I.pivots) if len(I.pivots) > 1 else lambda row, c=I.pivots[0]: (row[c],)
        blocks = [[sum(map(mul, pick(Lb), g)) % p for Lb in L] for L in lifts]
        I = _null_span(A.field, blocks, I.rows, n, n)
        pi = q
    return I


def _check_radical(A: Algebra, J: Subspace) -> int:
    """Nilpotency index of J, after checking that J is a nilpotent two-sided ideal."""
    if not is_ideal(A, J):
        raise InvariantViolation("radical is not a two-sided ideal")
    idx = nilpotency_index(A, J)
    if idx is None:
        raise InvariantViolation("radical is not nilpotent")
    return idx


def jacobson_radical(A: Algebra) -> RadicalReport:
    """J(A) for a unital finite-dimensional algebra, computed and checked once and kept on A."""
    if A.unit is None:
        raise ValueError("jacobson_radical expects a unital algebra")
    if A._radical is None:  # dim 0 takes the trace form, whose kernel is the zero space
        p = A.field.char
        if p == 0 or p > A.dim:
            J, method = trace_form_kernel(A), "trace-form"
        else:
            J, method = _cohen_ivanyos_wales_radical(A), "cohen-ivanyos-wales"
        A._radical = RadicalReport(J, method, _check_radical(A, J))
    return A._radical


def prime_radical(A: Algebra) -> Subspace:
    """P(A) = J(A) for finite-dimensional algebras (J is nilpotent and P <= J)."""
    return jacobson_radical(A).radical


def h_jacobson_radical(pa: PartialAction) -> Subspace:
    """J_H(A) = (J(A):H), computed once and kept on pa."""
    if pa._h_radical is None:
        pa._h_radical = colon_ideal(pa, jacobson_radical(pa.alg).radical)
    return pa._h_radical


def h_prime_radical(pa: PartialAction) -> Subspace:
    """P_H(A) = (P(A):H), which is J_H(A) since P(A) = J(A): the kept h_jacobson_radical(pa)."""
    return h_jacobson_radical(pa)


def h_radical_of_ideal(pa: PartialAction, I: Subspace) -> Subspace:
    """Hrz(I) = (sqrt(I):H), the smallest H-semiprime ideal containing the H-stable ideal I.

    sqrt(I) is the preimage of J(A/I) under A -> A/I; no action on A/I is built.
    """
    if not is_h_stable(pa, I):
        raise NotHStable("h_radical_of_ideal needs an H-stable ideal")
    if I.is_full():
        raise ValueError("the improper ideal has no H-radical")
    Q, proj = quotient_algebra(pa.alg, I)
    return colon_ideal(pa, preimage_under(proj.matrix, jacobson_radical(Q).radical))


def is_semiprime(A: Algebra) -> bool:
    return prime_radical(A).is_zero()


def is_semiprimitive(A: Algebra) -> bool:
    return jacobson_radical(A).radical.is_zero()


def is_h_semiprime(pa: PartialAction) -> bool:
    return h_prime_radical(pa).is_zero()


def is_h_semiprimitive(pa: PartialAction) -> bool:
    return h_jacobson_radical(pa).is_zero()


def enumerate_h_stable_ideals(
    pa: PartialAction, dim_cap: int = 6, field_cap: int = 5
) -> tuple[Subspace, ...]:
    """All H-stable two-sided ideals of A (finite fields, capped dimensions).

    These are exactly the subspaces invariant under left and right
    multiplications and under the action of every basis element of H.  The
    operators go to the enumeration as sparse rows, and it drops the
    repeated and scalar ones: 1_H, where it is a basis element, acts as the
    identity, and each right multiplication of a commutative A repeats a
    left one.  The caps are checked here, on every call, and the line
    budget in the walk (`exactla._line_closures`); each refusal raises
    FieldNotFinite or DimensionTooLarge before any line is spun.  The ideals
    are enumerated once per action and kept on it, as a tuple in canonical
    order.
    """
    A = pa.alg
    p = A.field.char
    if p == 0:
        raise FieldNotFinite("H-stable ideal enumeration needs a finite field")
    if A.dim > dim_cap:
        raise DimensionTooLarge(f"dim {A.dim} exceeds cap {dim_cap}")
    if p > field_cap:
        raise DimensionTooLarge(f"field size {p} exceeds cap {field_cap}")
    if pa._ideals is None:
        pa._ideals = tuple(_invariant_lattice(A.field, A.dim, _mult_operators(A, "two_sided") + pa._terms))
    return pa._ideals


def is_h_prime(
    pa: PartialAction, prime: Subspace, dim_cap: int = 6, field_cap: int = 5
) -> bool:
    """H-primality of a proper H-stable ideal, by exhausting H-stable ideal pairs."""
    A = pa.alg
    if prime.is_full():
        raise ValueError("an H-prime ideal must be proper")
    if not is_ideal(A, prime) or not is_h_stable(pa, prime):
        raise NotHStable("is_h_prime needs a proper H-stable ideal")
    return _is_h_prime_among(A, prime, enumerate_h_stable_ideals(pa, dim_cap=dim_cap, field_cap=field_cap))


def _is_h_prime_among(A: Algebra, prime: Subspace, ideals: Sequence[Subspace]) -> bool:
    """No pair of the H-stable `ideals` outside `prime` has its product inside it."""
    outside = [I for I in ideals if not I <= prime]
    for I in outside:
        for J in outside:
            if span_products(A, I, J) <= prime:
                return False
    return True
