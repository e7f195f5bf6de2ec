"""The brute-force radical over F_p, kept as an independent test oracle.

`brute_nilpotent_radical` exhausts the principal ideals inside the
trace-form kernel and keeps the nilpotent ones; the radical is their sum.
It is exponential in the kernel's dimension and shares nothing with the
Cohen-Ivanyos-Wales steps of `psl.radicals` beyond the trace-form kernel,
so tests compare the two.  Its ideal closures and nilpotency tests are the
boxed loops of `boxed_reference`, not psl's structure-constant kernel.
"""

from boxed_reference import ideal_closure, is_ideal, is_nilpotent_subspace
from helpers import dense_mult
from psl.algebra import Algebra
from psl.exactla import Subspace
from psl.radicals import trace_form_kernel


class UnsupportedCharacteristic(ValueError):
    """Brute-force radical not computable: no finite field, or over budget."""


# candidate cap ((p^k - 1)/(p - 1) lines of a k-dim kernel)
BRUTE_BUDGET = 1 << 17


def _left_op_nilpotent(w, mult, n, p):
    L = [
        [
            sum(w[i] * mult[(i * n + j) * n + c] for i in range(n) if w[i]) % p
            for c in range(n)
        ]
        for j in range(n)
    ]
    M = L
    steps = 1
    while steps < 2 * n and any(any(row) for row in M):
        M = [
            [sum(M[r][j] * M[j][c] for j in range(n) if M[r][j]) % p for c in range(n)]
            for r in range(n)
        ]
        steps *= 2
    return not any(any(row) for row in M)


def nilpotent_lifts_fp(kbasis, mult_flat, n, p):
    """Vectors v in the row space of kbasis that could lie in the radical,
    one per scalar line, in base-p enumeration order.

    Keeps v when the left-multiplication operators of v and of all basis
    products v*e_i and e_i*v are nilpotent (a necessary condition: the
    radical is an ideal of nilpotent elements).
    """
    k = len(kbasis)
    if k == 0:
        return []
    base = [[x % p for x in row] for row in kbasis]
    mult = [x % p for x in mult_flat]
    out = []
    for code in range(1, p ** k):
        rem = code
        coords = []
        lead = -1
        for t in range(k):
            coords.append(rem % p)
            rem //= p
            if coords[t] and lead < 0:
                lead = t
        if coords[lead] != 1:
            continue
        v = [0] * n
        for t, ct in enumerate(coords):
            if ct:
                brow = base[t]
                for j in range(n):
                    v[j] += ct * brow[j]
        v = [x % p for x in v]
        keep = _left_op_nilpotent(v, mult, n, p)
        if keep:
            for i in range(n):
                right = [
                    sum(v[t] * mult[(t * n + i) * n + j] for t in range(n) if v[t]) % p
                    for j in range(n)
                ]
                if not _left_op_nilpotent(right, mult, n, p):
                    keep = False
                    break
                left = [
                    sum(v[t] * mult[(i * n + t) * n + j] for t in range(n) if v[t]) % p
                    for j in range(n)
                ]
                if not _left_op_nilpotent(left, mult, n, p):
                    keep = False
                    break
        if keep:
            out.append(list(v))
    return out


def brute_nilpotent_radical(A: Algebra, budget: int = BRUTE_BUDGET) -> Subspace:
    """Largest nilpotent ideal by exhausting principal ideals (finite fields).

    The search space is the trace-form kernel, which contains the radical:
    the radical is the sum of the nilpotent principal ideals it contains.
    """
    if A.field.char == 0:
        raise UnsupportedCharacteristic("brute-force radical needs a finite field")
    K = trace_form_kernel(A)
    if K.is_zero():
        return K
    # frequent fast path: the kernel itself is already a nilpotent ideal
    if is_ideal(A, K) and is_nilpotent_subspace(A, K):
        return K
    p = A.field.char
    candidates = (p ** K.dim - 1) // (p - 1)
    if candidates > budget:
        raise UnsupportedCharacteristic(
            f"char {p} trace kernel of dim {K.dim} needs {candidates} candidates (> {budget})"
        )
    # prefilter by nilpotency of the left-multiplication operator, a
    # necessary condition for membership in the radical
    kbasis = [list(row) for row in K.rows]
    mult_flat = [x for plane in dense_mult(A) for row in plane for x in row]
    survivors = nilpotent_lifts_fp(kbasis, mult_flat, A.dim, p)
    J = Subspace.zero_space(A.field, A.dim)
    for raw in survivors:
        v = tuple(raw)
        if J.contains(v):
            continue
        closure = ideal_closure(A, [v])
        if is_nilpotent_subspace(A, closure):
            J = J + closure
            if J == K:
                break
    return J
