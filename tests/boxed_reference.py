"""The boxed loops that the unboxed kernel replaced, kept as a test oracle.

These walk the dense tensors of boxed field elements (`Fp` or `Fraction`)
coordinate by coordinate, skipping zeros, exactly as `Algebra.multiply`,
`check_algebra`, `check_partial_action` and `build_full_smash` did before
they ran on sparse unboxed structure constants.  The subspace products,
ideal closures, carrier of the partial smash product and algebra-map check
below multiply through `multiply` here and close subspaces round by round,
re-reducing the whole span each round, as `psl` did before it spun
closures on unboxed rows.  Nothing here calls the kernel, so tests can
compare the two.
"""

import random

from psl.algebra import Algebra, CheckReport
from psl.exactla import Subspace, zero_vec
from psl.smash import tensor_coords


def multiply(A, x, y):
    x = A.coerce(x)
    y = A.coerce(y)
    out = list(A.zero())
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = A.mult[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = xi * yj
            for k, m in enumerate(row[j]):
                if m:
                    out[k] = out[k] + c * m
    return tuple(out)


def act_basis(pa, i, avec):
    v = pa.alg.coerce(avec)
    out = list(zero_vec(pa.field, pa.alg.dim))
    for j, c in enumerate(v):
        if not c:
            continue
        for k, x in enumerate(pa.act[i][j]):
            if x:
                out[k] = out[k] + c * x
    return tuple(out)


def act_vec(pa, hvec, avec):
    h = pa.hopf.alg.coerce(hvec)
    out = list(zero_vec(pa.field, pa.alg.dim))
    for i, c in enumerate(h):
        if not c:
            continue
        for k, x in enumerate(act_basis(pa, i, avec)):
            if x:
                out[k] = out[k] + c * x
    return tuple(out)


def check_algebra(A):
    failures = []
    n = A.dim
    basis = [A.basis_vector(i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            ij = A.mult[i][j]
            for k in range(n):
                lhs = multiply(A, ij, basis[k])
                rhs = multiply(A, basis[i], A.mult[j][k])
                if lhs != rhs:
                    failures.append(f"associativity fails at basis triple ({i},{j},{k})")
    if A.unit is not None:
        for i in range(n):
            if multiply(A, A.unit, basis[i]) != basis[i]:
                failures.append(f"left unit law fails at basis {i}")
            if multiply(A, basis[i], A.unit) != basis[i]:
                failures.append(f"right unit law fails at basis {i}")
    return CheckReport(not failures, tuple(failures))


def _comul_sum(pa, i, product):
    """sum over Delta(h_i) = sum c h_p (x) h_q of c * product(p, q)."""
    H = pa.hopf
    m = H.dim
    rhs = list(zero_vec(pa.field, pa.alg.dim))
    for p in range(m):
        for q in range(m):
            c = H.comul[i][p][q]
            if not c:
                continue
            for t, x in enumerate(product(p, q)):
                if x:
                    rhs[t] = rhs[t] + c * x
    return tuple(rhs)


def check_partial_action(pa, samples=4):
    failures = []
    H, A = pa.hopf, pa.alg
    m, n = H.dim, A.dim
    basis_a = [A.basis_vector(j) for j in range(n)]

    for j in range(n):
        if act_vec(pa, H.unit, basis_a[j]) != basis_a[j]:
            failures.append(f"PA1 fails: 1_H . a != a at basis a={A.labels[j]}")

    for i in range(m):
        for j in range(n):
            for k in range(n):
                lhs = act_basis(pa, i, A.mult[j][k])
                rhs = _comul_sum(pa, i, lambda p, q: multiply(
                    A, act_basis(pa, p, basis_a[j]), act_basis(pa, q, basis_a[k])))
                if lhs != rhs:
                    failures.append(f"PA3 fails at (h{i}, {A.labels[j]}, {A.labels[k]})")

    unit_images = [act_basis(pa, p, A.unit) for p in range(m)]
    for i in range(m):
        for g in range(m):
            for k in range(n):
                lhs = act_basis(pa, i, act_basis(pa, g, basis_a[k]))
                rhs = _comul_sum(pa, i, lambda p, q: multiply(
                    A, unit_images[p], act_vec(pa, H.alg.mult[q][g], basis_a[k])))
                if lhs != rhs:
                    failures.append(f"PA4 fails at (h{i}, h{g}, {A.labels[k]})")

    rng = random.Random(20107)
    for _ in range(samples):
        i = rng.randrange(m)
        g = rng.randrange(m)
        a = basis_a[rng.randrange(n)]
        b = basis_a[rng.randrange(n)]
        lhs = act_basis(pa, i, multiply(A, a, act_basis(pa, g, b)))
        rhs = _comul_sum(pa, i, lambda p, q: multiply(
            A, act_basis(pa, p, a), act_vec(pa, H.alg.mult[q][g], b)))
        if lhs != rhs:
            failures.append(f"PA2 fails at sampled (h{i}, h{g})")

    return CheckReport(not failures, tuple(failures))


def build_full_smash(pa):
    """(mult, unit) of A # H: the structure tensor and the unit, or None when non-unital."""
    H, A = pa.hopf, pa.alg
    m, n = H.dim, A.dim
    N = n * m
    field = pa.field
    basis_a = [A.basis_vector(j) for j in range(n)]
    mult = [[None] * N for _ in range(N)]
    for j in range(n):
        for i in range(m):
            for k in range(n):
                for g in range(m):
                    out = list(zero_vec(field, N))
                    for p in range(m):
                        for q in range(m):
                            c = H.comul[i][p][q]
                            if not c:
                                continue
                            apart = multiply(A, basis_a[j], act_basis(pa, p, basis_a[k]))
                            hpart = H.alg.mult[q][g]
                            for t, xa in enumerate(apart):
                                if not xa:
                                    continue
                                cxa = c * xa
                                for u, xh in enumerate(hpart):
                                    if xh:
                                        out[t * m + u] = out[t * m + u] + cxa * xh
                    mult[j * m + i][k * m + g] = tuple(out)
    full = Algebra(field, mult)
    unit = tensor_coords(pa, A.unit, H.unit)
    unit_ok = all(
        multiply(full, unit, full.basis_vector(i)) == full.basis_vector(i)
        and multiply(full, full.basis_vector(i), unit) == full.basis_vector(i)
        for i in range(N)
    )
    return full.mult, unit if unit_ok else None


def span_products(A, U, V):
    return Subspace.from_vectors(A.field, A.dim, [multiply(A, u, v) for u in U.rows for v in V.rows])


def closure_rounds(field, ambient, vecs, step):
    """Close span(vecs) under `step(row) -> new vectors`, one full RREF per round."""
    S = Subspace.from_vectors(field, ambient, vecs)
    for _ in range(ambient + 1):
        new = list(S.rows) + [w for r in S.rows for w in step(r)]
        S2 = Subspace.from_vectors(field, ambient, new)
        if S2.dim == S.dim:
            return S2
        S = S2
    return S


def closure_under_operators(field, ambient, vecs, operators):
    return closure_rounds(field, ambient, vecs, lambda r: [op.apply(r) for op in operators])


def ideal_closure(A, gens, side="two_sided"):
    basis = [A.basis_vector(i) for i in range(A.dim)]

    def step(v):
        out = []
        for b in basis:
            if side in ("left", "two_sided"):
                out.append(multiply(A, b, v))
            if side in ("right", "two_sided"):
                out.append(multiply(A, v, b))
        return out

    return closure_rounds(A.field, A.dim, [A.coerce(g) for g in gens], step)


def is_ideal(A, I, side="two_sided"):
    basis = [A.basis_vector(i) for i in range(A.dim)]
    for v in I.rows:
        for b in basis:
            if side in ("left", "two_sided") and not I.contains(multiply(A, b, v)):
                return False
            if side in ("right", "two_sided") and not I.contains(multiply(A, v, b)):
                return False
    return True


def nilpotency_index(A, I):
    if I.is_zero():
        return 1
    P = I
    for m in range(2, A.dim + 3):
        P = span_products(A, I, P)
        if P.is_zero():
            return m
    return None


def is_nilpotent_subspace(A, I):
    if I.is_zero():
        return True
    P = I
    for _ in range(A.dim + 1):
        P = span_products(A, I, P)
        if P.is_zero():
            return True
    return False


def subalgebra_closure(A, gens):
    vecs = [A.coerce(g) for g in gens]
    if A.unit is not None:
        vecs.append(A.unit)
    S = Subspace.from_vectors(A.field, A.dim, vecs)
    for _ in range(A.dim + 1):
        new = list(S.rows) + [multiply(A, u, v) for u in S.rows for v in S.rows]
        S2 = Subspace.from_vectors(A.field, A.dim, new)
        if S2.dim == S.dim:
            return S2
        S = S2
    return S


def is_multiplicative(amap):
    src, tgt = amap.source, amap.target
    for i in range(src.dim):
        for j in range(src.dim):
            lhs = amap.apply(src.mult[i][j])
            rhs = multiply(tgt, amap.apply(src.basis_vector(i)), amap.apply(src.basis_vector(j)))
            if lhs != rhs:
                return False
    if src.unit is not None and tgt.unit is not None:
        if amap.apply(src.unit) != tgt.unit:
            return False
    return True


def carrier(pa, full):
    """(mult, unit, include_A rows) of A #_par H on the RREF basis of (A # H)(1_A # 1_H)."""
    A, H = pa.alg, pa.hopf
    u = tensor_coords(pa, A.unit, H.unit)
    image = Subspace.from_vectors(
        pa.field, full.dim, [multiply(full, full.basis_vector(i), u) for i in range(full.dim)]
    )
    rows = image.rows
    mult = [[image.coords_of(multiply(full, r, s)) for s in rows] for r in rows]
    incl = [image.coords_of(tensor_coords(pa, A.basis_vector(j), H.unit)) for j in range(A.dim)]
    return mult, image.coords_of(u), incl
