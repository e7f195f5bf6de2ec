"""The boxed loops that the structure-constant kernel replaced, kept as a test oracle.

These walk dense tensors of boxed field elements (`Fp` below, or `Fraction`
over Q) coordinate by coordinate, skipping zeros, exactly as psl's
multiplication, axiom checkers (algebra, partial action, Hopf algebra,
partial coaction, module and partial module), comultiplication, counit,
antipode, tensor-square products and `build_full_smash` did before they ran
on sparse canonical scalars.  The subspace products, ideal closures,
carrier of the partial smash product and algebra-map check below multiply
through `multiply` here and close subspaces round by round, re-reducing the
whole span each round, as psl did before it spun closures.  The dual
H*-action on the carrier is read off the coproduct tensor entry by entry.
`pa2_failures` tests the mixed axiom PA2, which psl derives from PA3 and
PA4 instead of checking it, on every basis tuple.

`Fp` is the modular scalar psl used to box F_p values: its arithmetic
reduces mod p after every operation and it compares equal to any int
congruent to it.  The dense tensors walked here are the `dense_*` views of
`helpers`, derived from the sparse rows psl stores.  Nothing here calls
psl's kernel, so tests can compare the two.  Every function accepts psl's canonical scalars (or boxed ones)
and returns canonical scalars: ints in [0, p) over F_p, Fractions over Q.

The module constructions at the end (the right and left extensions, the
smash-module conversion, the commutant and the operator image algebra) are
psl's earlier dense loops over the coproduct tensors; they go through psl's
public module and action methods and the vector helpers of `helpers`.

The schoolbook matrix product mod q and the power trace built on it are the
Cohen-Ivanyos-Wales kernel that packed-row products replaced in
`psl.radicals`.

`_rref` is the dense Gauss-Jordan elimination psl ran beside `_Echelon`
until `_Echelon` became its only one; with the span and the free-column
kernel built on it, it is the elimination oracle of the tests.
"""

from fractions import Fraction
from typing import Sequence

import helpers
from helpers import dense_a_act, dense_act, dense_comul, dense_h_act, dense_module_act, dense_mult, dense_rho, mod_basis
from psl.algebra import Algebra, CheckReport, InvariantViolation
from psl.exactla import FieldMismatch, Matrix, Subspace, _canon, _Echelon, _nonzero, zero_vec
from psl.hopf import dual_hopf, left_integrals
from psl.paction import PartialAction, action_to_coaction
from psl.pmod import (
    AlgebraModule,
    AxiomViolation,
    ModuleExtension,
    NotAModule,
    PartialModule,
    check_partial_module,
)


class Fp:
    """Residue mod a prime p, reduced to [0, p)."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _check(self, other: "Fp") -> None:
        if self.p != other.p:
            raise FieldMismatch(f"F_{self.p} vs F_{other.p}")

    def __add__(self, other):
        if isinstance(other, Fp):
            self._check(other)
            return Fp(self.v + other.v, self.p)
        if isinstance(other, int):
            return Fp(self.v + other, self.p)
        raise FieldMismatch(f"cannot combine F_{self.p} with {type(other).__name__}")

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Fp):
            self._check(other)
            return Fp(self.v - other.v, self.p)
        if isinstance(other, int):
            return Fp(self.v - other, self.p)
        raise FieldMismatch(f"cannot combine F_{self.p} with {type(other).__name__}")

    def __rsub__(self, other):
        if isinstance(other, int):
            return Fp(other - self.v, self.p)
        raise FieldMismatch(f"cannot combine F_{self.p} with {type(other).__name__}")

    def __mul__(self, other):
        if isinstance(other, Fp):
            self._check(other)
            return Fp(self.v * other.v, self.p)
        if isinstance(other, int):
            return Fp(self.v * other, self.p)
        raise FieldMismatch(f"cannot combine F_{self.p} with {type(other).__name__}")

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = Fp(other, self.p)
        if isinstance(other, Fp):
            self._check(other)
            if other.v == 0:
                raise ZeroDivisionError("division by zero in F_p")
            return Fp(self.v * pow(other.v, self.p - 2, self.p), self.p)
        raise FieldMismatch(f"cannot combine F_{self.p} with {type(other).__name__}")

    def __neg__(self):
        return Fp(-self.v, self.p)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return f"{self.v}"


# ---------------------------------------------------------------------------
# boxing at the boundary

def box(field, x):
    """A scalar as a boxed field element: an `Fp` over F_p, a Fraction over Q."""
    if isinstance(x, Fp):
        if x.p != field.char:
            raise FieldMismatch(f"F_{x.p} value used over {field}")
        return x
    if field.char:
        return Fp(x, field.char)
    return x if isinstance(x, Fraction) else Fraction(x)


def bvec(field, vec):
    return tuple(box(field, x) for x in vec)


def unbox(vec):
    """Canonical scalars of a vector of boxed ones."""
    return tuple(x.v if isinstance(x, Fp) else x for x in vec)


def zero(field, n):
    return (box(field, 0),) * n


def basis(field, n, i):
    return tuple(box(field, int(t == i)) for t in range(n))


_BOXED = {}


def boxed(field, tensor):
    """The boxed copy of a nested tuple of scalars, made once per tensor object."""
    hit = _BOXED.get(id(tensor))
    if hit is None or hit[0] is not tensor:
        if len(_BOXED) > 256:
            _BOXED.clear()
        hit = (tensor, _box_nested(field, tensor))
        _BOXED[id(tensor)] = hit
    return hit[1]


def _box_nested(field, t):
    if isinstance(t, tuple):
        return tuple(_box_nested(field, x) for x in t)
    return box(field, t)


def tensor_coords(field, avec, hvec):
    """a (x) h in first-factor-major coordinates."""
    out = []
    for a in bvec(field, avec):
        out.extend(a * h for h in bvec(field, hvec))
    return unbox(out)


def apply(matrix, vec):
    """vec @ matrix, the row-vector action."""
    field = matrix.field
    rows = boxed(field, matrix.rows)
    out = list(zero(field, matrix.ncols))
    for c, row in zip(bvec(field, vec), rows):
        if not c:
            continue
        for k, x in enumerate(row):
            if x:
                out[k] = out[k] + c * x
    return unbox(out)


# ---------------------------------------------------------------------------
# algebras and partial actions

def multiply(A, x, y):
    field = A.field
    x = bvec(field, x)
    y = bvec(field, y)
    mult = boxed(field, dense_mult(A))
    out = list(zero(field, A.dim))
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = mult[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = xi * yj
            for k, m in enumerate(row[j]):
                if m:
                    out[k] = out[k] + c * m
    return unbox(out)


def act_basis(pa, i, avec):
    field = pa.field
    v = bvec(field, avec)
    act = boxed(field, dense_act(pa))
    out = list(zero(field, pa.alg.dim))
    for j, c in enumerate(v):
        if not c:
            continue
        for k, x in enumerate(act[i][j]):
            if x:
                out[k] = out[k] + c * x
    return unbox(out)


def act_vec(pa, hvec, avec):
    field = pa.field
    h = bvec(field, hvec)
    out = list(zero(field, pa.alg.dim))
    for i, c in enumerate(h):
        if not c:
            continue
        for k, x in enumerate(act_basis(pa, i, avec)):
            if x:
                out[k] = out[k] + c * x
    return unbox(out)


def check_algebra(A):
    failures = []
    n = A.dim
    mult = dense_mult(A)
    base = [basis(A.field, n, i) for i in range(n)]
    for i in range(n):
        for j in range(n):
            ij = mult[i][j]
            for k in range(n):
                lhs = multiply(A, ij, base[k])
                rhs = multiply(A, base[i], mult[j][k])
                if lhs != rhs:
                    failures.append(f"associativity fails at basis triple ({i},{j},{k})")
    if A.unit is not None:
        for i in range(n):
            if multiply(A, A.unit, base[i]) != unbox(base[i]):
                failures.append(f"left unit law fails at basis {i}")
            if multiply(A, base[i], A.unit) != unbox(base[i]):
                failures.append(f"right unit law fails at basis {i}")
    return CheckReport(not failures, tuple(failures))


def _comul_sum(pa, i, product):
    """sum over Delta(h_i) = sum c h_p (x) h_q of c * product(p, q)."""
    H = pa.hopf
    m = H.dim
    comul = boxed(pa.field, dense_comul(H))
    rhs = list(zero(pa.field, pa.alg.dim))
    for p in range(m):
        for q in range(m):
            c = comul[i][p][q]
            if not c:
                continue
            for t, x in enumerate(product(p, q)):
                if x:
                    rhs[t] = rhs[t] + c * x
    return unbox(rhs)


def check_partial_action(pa):
    failures = []
    H, A = pa.hopf, pa.alg
    m, n = H.dim, A.dim
    basis_a = [basis(pa.field, n, j) for j in range(n)]

    for j in range(n):
        if act_vec(pa, H.unit, basis_a[j]) != unbox(basis_a[j]):
            failures.append(f"PA1 fails: 1_H . a != a at basis a={A.labels[j]}")

    for i in range(m):
        for j in range(n):
            for k in range(n):
                lhs = act_basis(pa, i, dense_mult(A)[j][k])
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
                    A, unit_images[p], act_vec(pa, dense_mult(H.alg)[q][g], basis_a[k])))
                if lhs != rhs:
                    failures.append(f"PA4 fails at (h{i}, h{g}, {A.labels[k]})")

    return CheckReport(not failures, tuple(failures))


def pa2_failures(pa):
    """The basis tuples (i, g, a, b) where PA2, h_i . (e_a (h_g . e_b)) = sum (h1 . e_a)(h2 h_g . e_b), fails."""
    H, A = pa.hopf, pa.alg
    m, n = H.dim, A.dim
    basis_a = [basis(pa.field, n, j) for j in range(n)]
    hmult = dense_mult(H.alg)
    failures = []
    for i in range(m):
        for g in range(m):
            for a in range(n):
                for b in range(n):
                    lhs = act_basis(pa, i, multiply(A, basis_a[a], act_basis(pa, g, basis_a[b])))
                    rhs = _comul_sum(pa, i, lambda p, q: multiply(
                        A, act_basis(pa, p, basis_a[a]), act_vec(pa, hmult[q][g], basis_a[b])))
                    if lhs != rhs:
                        failures.append((i, g, a, b))
    return failures


def build_full_smash(pa):
    """(mult, unit) of A # H: the structure tensor and the unit, or None when non-unital."""
    H, A = pa.hopf, pa.alg
    m, n = H.dim, A.dim
    N = n * m
    field = pa.field
    comul = boxed(field, dense_comul(H))
    hmult = boxed(field, dense_mult(H.alg))
    basis_a = [basis(field, n, j) for j in range(n)]
    mult = [[None] * N for _ in range(N)]
    for j in range(n):
        for i in range(m):
            for k in range(n):
                for g in range(m):
                    out = list(zero(field, N))
                    for p in range(m):
                        for q in range(m):
                            c = comul[i][p][q]
                            if not c:
                                continue
                            apart = multiply(A, basis_a[j], act_basis(pa, p, basis_a[k]))
                            hpart = hmult[q][g]
                            for t, xa in enumerate(apart):
                                if not xa:
                                    continue
                                cxa = c * xa
                                for u, xh in enumerate(hpart):
                                    if xh:
                                        out[t * m + u] = out[t * m + u] + cxa * xh
                    mult[j * m + i][k * m + g] = unbox(out)
    full = Algebra(field, mult)
    unit = tensor_coords(field, A.unit, H.unit)
    unit_ok = all(
        multiply(full, unit, basis(field, N, i)) == unbox(basis(field, N, i))
        and multiply(full, basis(field, N, i), unit) == unbox(basis(field, N, i))
        for i in range(N)
    )
    return dense_mult(full), unit if unit_ok else None


# ---------------------------------------------------------------------------
# Hopf algebras and partial coactions

def comul_vec(H, vec):
    field = H.field
    v = bvec(field, vec)
    comul = boxed(field, dense_comul(H))
    m = H.dim
    out = list(zero(field, m * m))
    for i, c in enumerate(v):
        if not c:
            continue
        di = comul[i]
        for j in range(m):
            row = di[j]
            for k in range(m):
                x = row[k]
                if x:
                    out[j * m + k] = out[j * m + k] + c * x
    return unbox(out)


def counit_of(H, vec):
    field = H.field
    s = box(field, 0)
    for c, e in zip(bvec(field, vec), bvec(field, H.counit)):
        if c and e:
            s = s + c * e
    return unbox((s,))[0]


def tensor_multiply(A, K, u, v):
    """(a (x) k)(b (x) l) = ab (x) kl on A (x) K coordinate vectors."""
    field = A.field
    n, m = A.dim, K.dim
    amult, kmult = boxed(field, dense_mult(A)), boxed(field, dense_mult(K))
    out = list(zero(field, n * m))
    for idx1, c1 in enumerate(bvec(field, u)):
        if not c1:
            continue
        a1, k1 = divmod(idx1, m)
        for idx2, c2 in enumerate(bvec(field, v)):
            if not c2:
                continue
            a2, k2 = divmod(idx2, m)
            c = c1 * c2
            for a, xa in enumerate(amult[a1][a2]):
                if not xa:
                    continue
                ca = c * xa
                for k, xk in enumerate(kmult[k1][k2]):
                    if xk:
                        out[a * m + k] = out[a * m + k] + ca * xk
    return unbox(out)


def check_hopf(H):
    failures = list(check_algebra(H.alg).failures)
    m = H.dim
    field = H.field
    comul = boxed(field, dense_comul(H))
    counit = bvec(field, H.counit)
    fzero = box(field, 0)

    for i in range(m):
        lhs = {}
        rhs = {}
        for j in range(m):
            for k in range(m):
                c = comul[i][j][k]
                if not c:
                    continue
                for a in range(m):
                    for b in range(m):
                        x = comul[j][a][b]
                        if x:
                            key = (a, b, k)
                            lhs[key] = lhs.get(key, fzero) + c * x
                        y = comul[k][a][b]
                        if y:
                            key = (j, a, b)
                            rhs[key] = rhs.get(key, fzero) + c * y
        if any(lhs.get(t, fzero) != rhs.get(t, fzero) for t in set(lhs) | set(rhs)):
            failures.append(f"coassociativity fails at basis {i}")

        left_counit = list(zero(field, m))
        right_counit = list(zero(field, m))
        for j in range(m):
            for k in range(m):
                c = comul[i][j][k]
                if not c:
                    continue
                left_counit[k] = left_counit[k] + counit[j] * c
                right_counit[j] = right_counit[j] + counit[k] * c
        e_i = unbox(basis(field, m, i))
        if unbox(left_counit) != e_i:
            failures.append(f"(eps (x) id)Delta != id at basis {i}")
        if unbox(right_counit) != e_i:
            failures.append(f"(id (x) eps)Delta != id at basis {i}")

    unit = bvec(field, H.unit)
    expected_unit_sq = list(zero(field, m * m))
    for j, cj in enumerate(unit):
        for k, ck in enumerate(unit):
            if cj and ck:
                expected_unit_sq[j * m + k] = cj * ck
    if comul_vec(H, unit) != unbox(expected_unit_sq):
        failures.append("Delta(1) != 1 (x) 1")
    if counit_of(H, unit) != unbox((box(field, 1),))[0]:
        failures.append("eps(1) != 1")
    for i in range(m):
        for j in range(m):
            ij = dense_mult(H.alg)[i][j]
            lhs = comul_vec(H, ij)
            rhs = tensor_multiply(
                H.alg, H.alg, comul_vec(H, basis(field, m, i)), comul_vec(H, basis(field, m, j))
            )
            if lhs != rhs:
                failures.append(f"Delta not multiplicative at basis pair ({i},{j})")
            if counit_of(H, ij) != unbox((counit[i] * counit[j],))[0]:
                failures.append(f"eps not multiplicative at basis pair ({i},{j})")

    for i in range(m):
        left = list(zero(field, m))
        right = list(zero(field, m))
        for j in range(m):
            for k in range(m):
                c = comul[i][j][k]
                if not c:
                    continue
                sl = multiply(H.alg, apply(H.antipode, basis(field, m, j)), basis(field, m, k))
                sr = multiply(H.alg, basis(field, m, j), apply(H.antipode, basis(field, m, k)))
                for t in range(m):
                    if sl[t]:
                        left[t] = left[t] + c * sl[t]
                    if sr[t]:
                        right[t] = right[t] + c * sr[t]
        target = unbox(tuple(counit[i] * u for u in unit))
        if unbox(left) != target:
            failures.append(f"antipode law sum S(h1)h2 = eps(h)1 fails at basis {i}")
        if unbox(right) != target:
            failures.append(f"antipode law sum h1 S(h2) = eps(h)1 fails at basis {i}")

    return CheckReport(not failures, tuple(failures))


def check_partial_coaction(pc):
    failures = []
    A, K = pc.alg, pc.hopf
    n, m = A.dim, K.dim
    field = pc.field
    fzero = box(field, 0)
    rho_matrix = Matrix(field, dense_rho(pc), ncols=n * m)
    rho = boxed(field, rho_matrix.rows)
    counit = bvec(field, K.counit)
    kcomul = boxed(field, dense_comul(K))
    amult, kmult = boxed(field, dense_mult(A)), boxed(field, dense_mult(K.alg))

    for j in range(n):
        counit_applied = list(zero(field, n))
        for idx, c in enumerate(rho[j]):
            if not c:
                continue
            a, k = divmod(idx, m)
            if counit[k]:
                counit_applied[a] = counit_applied[a] + c * counit[k]
        if unbox(counit_applied) != unbox(basis(field, n, j)):
            failures.append(f"PC1 fails at basis {A.labels[j]}")

    for j in range(n):
        for k in range(n):
            lhs = apply(rho_matrix, dense_mult(A)[j][k])
            rhs = tensor_multiply(A, K.alg, rho[j], rho[k])
            if lhs != rhs:
                failures.append(f"PC2 fails at basis pair ({A.labels[j]}, {A.labels[k]})")

    rho_unit = bvec(field, apply(rho_matrix, A.unit))
    for j in range(n):
        lhs = {}
        for idx, c in enumerate(rho[j]):
            if not c:
                continue
            a, k = divmod(idx, m)
            for idx2, c2 in enumerate(rho[a]):
                if not c2:
                    continue
                b, l = divmod(idx2, m)
                key = (b, l, k)
                lhs[key] = lhs.get(key, fzero) + c * c2
        rhs = {}
        for idx, c in enumerate(rho[j]):
            if not c:
                continue
            a, k = divmod(idx, m)
            for l1 in range(m):
                for l2 in range(m):
                    d = kcomul[k][l1][l2]
                    if not d:
                        continue
                    # multiply (rho(1) (x) 1_K) on the left
                    for idx0, c0 in enumerate(rho_unit):
                        if not c0:
                            continue
                        b0, l0 = divmod(idx0, m)
                        coef = c * d * c0
                        for b, xb in enumerate(amult[b0][a]):
                            if not xb:
                                continue
                            for l, xl in enumerate(kmult[l0][l1]):
                                if xl:
                                    key = (b, l, l2)
                                    rhs[key] = rhs.get(key, fzero) + coef * xb * xl
        if any(lhs.get(t, fzero) != rhs.get(t, fzero) for t in set(lhs) | set(rhs)):
            failures.append(f"PC3 fails at basis {A.labels[j]}")

    return CheckReport(not failures, tuple(failures))


# ---------------------------------------------------------------------------
# modules and partial modules

def _act_tensor(field, tensor, i, mvec):
    """mvec under operator i of a (operator, basis vector) -> image tensor."""
    act = boxed(field, tensor)
    out = list(zero(field, len(act[i])))
    for j, c in enumerate(bvec(field, mvec)):
        if not c:
            continue
        for k, x in enumerate(act[i][j]):
            if x:
                out[k] = out[k] + c * x
    return unbox(out)


def _act_sum(field, tensor, xvec, mvec):
    out = list(zero(field, len(mvec)))
    for i, c in enumerate(bvec(field, xvec)):
        if not c:
            continue
        for k, x in enumerate(_act_tensor(field, tensor, i, mvec)):
            if x:
                out[k] = out[k] + c * x
    return unbox(out)


def module_act_basis(mod, i, mvec):
    return _act_tensor(mod.field, dense_module_act(mod), i, mvec)


def module_act_vec(mod, avec, mvec):
    return _act_sum(mod.field, dense_module_act(mod), avec, mvec)


def check_module(mod):
    """AlgebraModule.check."""
    failures = []
    A = mod.algebra
    for j in range(mod.dim):
        w = unbox(basis(mod.field, mod.dim, j))
        if A.unit is not None and module_act_vec(mod, A.unit, w) != w:
            failures.append(f"unit does not act as identity on basis {j}")
        for i in range(A.dim):
            for k in range(A.dim):
                if mod.side == "right":
                    lhs = module_act_basis(mod, k, module_act_basis(mod, i, w))
                else:
                    lhs = module_act_basis(mod, i, module_act_basis(mod, k, w))
                if lhs != module_act_vec(mod, dense_mult(A)[i][k], w):
                    failures.append(f"module law fails at (e{i}, e{k}, w{j})")
    return CheckReport(not failures, tuple(failures))


def act_a_basis(M, i, mvec):
    return _act_tensor(M.field, dense_a_act(M), i, mvec)


def act_a(M, avec, mvec):
    return _act_sum(M.field, dense_a_act(M), avec, mvec)


def act_h_basis(M, i, mvec):
    return _act_tensor(M.field, dense_h_act(M), i, mvec)


def act_h(M, hvec, mvec):
    return _act_sum(M.field, dense_h_act(M), hvec, mvec)


def check_partial_module(M):
    failures = []
    pa = M.pa
    A, H = pa.alg, pa.hopf
    field = M.field
    right = M.side == "right"
    comul = boxed(field, dense_comul(H))

    for j in range(M.dim):
        w = unbox(basis(field, M.dim, j))
        if act_a(M, A.unit, w) != w:
            failures.append(f"A-unit law fails at w{j}")
        if act_h(M, H.unit, w) != w:
            failures.append(f"PM1 fails at w{j}")
        for i in range(A.dim):
            for k in range(A.dim):
                if right:
                    lhs = act_a_basis(M, k, act_a_basis(M, i, w))
                else:
                    lhs = act_a_basis(M, i, act_a_basis(M, k, w))
                if lhs != act_a(M, dense_mult(A)[i][k], w):
                    failures.append(f"A-module law fails at (e{i}, e{k}, w{j})")

    for j in range(M.dim):
        w = unbox(basis(field, M.dim, j))
        for ih in range(H.dim):
            for ia in range(A.dim):
                # PM3
                if right:
                    lhs = act_a_basis(M, ia, act_h_basis(M, ih, w))
                else:
                    lhs = act_h_basis(M, ih, act_a_basis(M, ia, w))
                rhs = list(zero(field, M.dim))
                for p in range(H.dim):
                    for q in range(H.dim):
                        c = comul[ih][p][q]
                        if not c:
                            continue
                        e_ia = basis(field, A.dim, ia)
                        if right:
                            term = act_h_basis(M, q, act_a(M, act_basis(pa, p, e_ia), w))
                        else:
                            term = act_a(M, act_basis(pa, p, e_ia), act_h_basis(M, q, w))
                        for t, x in enumerate(term):
                            if x:
                                rhs[t] = rhs[t] + c * x
                if lhs != unbox(rhs):
                    failures.append(f"PM3 fails at (h{ih}, e{ia}, w{j})")
            for g in range(H.dim):
                # PM4
                if right:
                    lhs = act_h_basis(M, g, act_h_basis(M, ih, w))
                else:
                    lhs = act_h_basis(M, ih, act_h_basis(M, g, w))
                rhs = list(zero(field, M.dim))
                for p in range(H.dim):
                    for q in range(H.dim):
                        c = comul[ih][p][q]
                        if not c:
                            continue
                        hq_g = dense_mult(H.alg)[q][g]
                        unit_image = act_basis(pa, p, A.unit)
                        if right:
                            term = act_h(M, hq_g, act_a(M, unit_image, w))
                        else:
                            term = act_a(M, unit_image, act_h(M, hq_g, w))
                        for t, x in enumerate(term):
                            if x:
                                rhs[t] = rhs[t] + c * x
                if lhs != unbox(rhs):
                    failures.append(f"PM4 fails at (h{ih}, h{g}, w{j})")

    return CheckReport(not failures, tuple(failures))


# ---------------------------------------------------------------------------
# subspace products, closures and the partial smash carrier

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
    return closure_rounds(field, ambient, vecs, lambda r: [apply(op, r) for op in operators])


def ideal_closure(A, gens, side="two_sided"):
    base = [basis(A.field, A.dim, i) for i in range(A.dim)]

    def step(v):
        out = []
        for b in base:
            if side in ("left", "two_sided"):
                out.append(multiply(A, b, v))
            if side in ("right", "two_sided"):
                out.append(multiply(A, v, b))
        return out

    return closure_rounds(A.field, A.dim, [unbox(bvec(A.field, g)) for g in gens], step)


def is_ideal(A, I, side="two_sided"):
    base = [basis(A.field, A.dim, i) for i in range(A.dim)]
    for v in I.rows:
        for b in base:
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


def is_multiplicative(amap):
    src, tgt = amap.source, amap.target
    field = src.field
    for i in range(src.dim):
        for j in range(src.dim):
            lhs = apply(amap.matrix, dense_mult(src)[i][j])
            rhs = multiply(
                tgt, apply(amap.matrix, basis(field, src.dim, i)), apply(amap.matrix, basis(field, src.dim, j))
            )
            if lhs != rhs:
                return False
    if src.unit is not None and tgt.unit is not None:
        if apply(amap.matrix, src.unit) != tgt.unit:
            return False
    return True


def carrier_space(pa, full):
    """(A # H)(1_A # 1_H) as a subspace of A # H."""
    field = pa.field
    u = tensor_coords(field, pa.alg.unit, pa.hopf.unit)
    return Subspace.from_vectors(
        field, full.dim, [multiply(full, basis(field, full.dim, i), u) for i in range(full.dim)]
    )


def carrier(pa, full):
    """(mult, unit, include_A rows) of A #_par H on the RREF basis of (A # H)(1_A # 1_H)."""
    A, H = pa.alg, pa.hopf
    field = pa.field
    u = tensor_coords(field, A.unit, H.unit)
    image = carrier_space(pa, full)
    rows = image.rows
    mult = [[image.coords_of(multiply(full, r, s)) for s in rows] for r in rows]
    incl = [image.coords_of(tensor_coords(field, basis(field, A.dim, j), H.unit)) for j in range(A.dim)]
    return mult, image.coords_of(u), incl


def dual_action(pa, full):
    """The dense tensor act[r][s] of the dual action on the carrier: phi_r |> w_s, in carrier coordinates.

    phi_r |> (a # h) = sum a # h1 phi_r(h2) for the dual basis phi_r of H*, so
    a_j # h_i goes to sum_q comul[i][q][r] a_j # h_q.
    """
    field, m = pa.field, pa.hopf.dim
    comul = boxed(field, dense_comul(pa.hopf))
    image = carrier_space(pa, full)
    act = []
    for r in range(m):
        images = []
        for w in image.rows:
            out = list(zero(field, full.dim))
            for idx, c in enumerate(bvec(field, w)):
                if not c:
                    continue
                j, i = divmod(idx, m)
                for q in range(m):
                    x = comul[i][q][r]
                    if x:
                        out[j * m + q] = out[j * m + q] + c * x
            images.append(image.coords_of(unbox(out)))
        act.append(tuple(images))
    return tuple(act)


# ---------------------------------------------------------------------------
# module constructions: psl's dense loops over the coproduct tensors and
# `zero_vec`, as they stood before the extensions, the smash-module
# conversion, the commutant and the operator image algebra ran on sparse
# operator rows.  Unlike the loops above they call psl's public module,
# action and matrix methods and `helpers.act_vec`/`module_act_vec`, which
# act through psl's sparse rows; the loops themselves are the old ones.  The
# smash-module conversion acts on M through the boxed `act_a_basis` and
# `act_h_basis` above, and the left extension on V through the boxed
# `module_act_basis`.

def operator_matrices(M: PartialModule) -> list[Matrix]:
    """The matrices of M's A-operators, then of its H-operators, in the row-vector convention."""
    return [Matrix._of_raw(M.field, op, M.dim) for op in dense_a_act(M) + dense_h_act(M)]


def to_smash_module(M: PartialModule, sp) -> AlgebraModule:
    """m (a # h) := (m a) <| h (right), resp. (a # h) m := a (h |> m) (left)."""
    carrier = sp.carrier
    m_h = M.pa.hopf.dim
    act = []
    for c in range(carrier.dim):
        row_c = []
        coords = sp.coords.rows[c]
        for j in range(M.dim):
            w = M.basis_vector(j)
            out = list(zero_vec(M.field, M.dim))
            for idx, coeff in enumerate(coords):
                if not coeff:
                    continue
                ja, ih = divmod(idx, m_h)
                if M.side == "right":
                    term = act_h_basis(M, ih, act_a_basis(M, ja, w))
                else:
                    term = act_a_basis(M, ja, act_h_basis(M, ih, w))
                for t, x in enumerate(term):
                    if x:
                        out[t] = out[t] + coeff * x
            row_c.append(tuple(out))
        act.append(row_c)
    mod = AlgebraModule(carrier, M.dim, M.side, act)
    report = mod.check()
    if not report.ok:
        raise AxiomViolation("smash-module conversion failed: " + report.failures[0])
    return mod


def operator_image_algebra(M: PartialModule):
    """The unital subalgebra of End(M) generated by the partial-action operators.

    Operators are flattened d x d matrices; the span is closed under
    composition by spinning over pairs of basis matrices.
    """
    field = M.field
    d = M.dim

    def compose(u, v):
        """Flattened u @ v of sparse flattened matrices, dense and unreduced."""
        v_rows = [[] for _ in range(d)]
        for k, y in v:
            v_rows[k // d].append((k % d, y))
        out = [0] * (d * d)
        for k, x in u:
            i, j = divmod(k, d)
            for l, y in v_rows[j]:
                out[i * d + l] += x * y
        return out

    identity = Matrix.identity(field, d)
    basis = _Echelon(field.char)
    for op in operator_matrices(M) + [identity]:
        basis.add([x for row in op.rows for x in row])
    gens = basis.rows
    i = 0
    while i < len(gens) < d * d:
        u = gens[i][1]
        for j in range(i + 1):
            w = gens[j][1]
            basis.add(compose(u, w))
            basis.add(compose(w, u))
        i += 1
    span = basis.span(field, d * d)

    def coords(vec):
        c = span.coords_of(vec)
        if c is None:
            raise InvariantViolation("operator image algebra is not closed")
        return c

    rows = [_nonzero(r) for r in span.rows]
    mult = [[coords(compose(u, v)) for v in rows] for u in rows]
    unit = coords([x for row in identity.rows for x in row])
    return Algebra(field, mult, unit=unit)


def _restrict_operator(op: Matrix, W: Subspace) -> list[tuple]:
    rows = []
    for r in W.rows:
        c = W.coords_of(op.apply(r))
        if c is None:
            raise InvariantViolation("extension space is not invariant under the action")
        rows.append(c)
    return rows


def extend_right_module(pa: PartialAction, V: AlgebraModule) -> ModuleExtension:
    """W = span{sum v (k1 . x) (x) k2} <= V (x) H with the induced partial actions."""
    if V.side != "right" or V.algebra != pa.alg:
        raise NotAModule("extend_right_module needs a right A-module")
    if not V.check().ok:
        raise NotAModule("V is not a unital A-module")
    H, A = pa.hopf, pa.alg
    m = H.dim
    field = pa.field
    amb = V.dim * m

    def tens(vvec, hvec):
        out = list(zero_vec(field, amb))
        for j, cv in enumerate(vvec):
            if not cv:
                continue
            for i, ch in enumerate(hvec):
                if ch:
                    out[j * m + i] = out[j * m + i] + cv * ch
        return tuple(out)

    gens = []
    for jv in range(V.dim):
        v = mod_basis(V, jv)
        for x in range(A.dim):
            for k in range(m):
                out = list(zero_vec(field, amb))
                for p in range(m):
                    for q in range(m):
                        c = dense_comul(H)[k][p][q]
                        if not c:
                            continue
                        moved = helpers.module_act_vec(V, pa.act_basis(p, A.basis_vector(x)), v)
                        for t, xv in enumerate(moved):
                            if xv:
                                out[t * m + q] = out[t * m + q] + c * xv
                gens.append(tuple(out))
    W = Subspace.from_vectors(field, amb, gens)

    a_ops = []
    for a in range(A.dim):
        rows = []
        for jv in range(V.dim):
            for k in range(m):
                out = list(zero_vec(field, amb))
                for p in range(m):
                    for q in range(m):
                        c = dense_comul(H)[k][p][q]
                        if not c:
                            continue
                        moved = helpers.module_act_vec(V, pa.act_basis(p, A.basis_vector(a)), mod_basis(V, jv))
                        for t, xv in enumerate(moved):
                            if xv:
                                out[t * m + q] = out[t * m + q] + c * xv
                rows.append(tuple(out))
        a_ops.append(Matrix(field, rows, ncols=amb))

    h_ops = []
    for h in range(m):
        rows = []
        for jv in range(V.dim):
            for k in range(m):
                out = list(zero_vec(field, amb))
                for p in range(m):
                    for q in range(m):
                        c = dense_comul(H)[k][p][q]
                        if not c:
                            continue
                        for r in range(m):
                            for s in range(m):
                                c2 = dense_comul(H)[h][r][s]
                                if not c2:
                                    continue
                                kh = dense_mult(H.alg)[p][r]
                                moved = helpers.module_act_vec(V, helpers.act_vec(pa, kh, A.unit), mod_basis(V, jv))
                                hq_hs = dense_mult(H.alg)[q][s]
                                for t, xv in enumerate(moved):
                                    if not xv:
                                        continue
                                    cc = c * c2 * xv
                                    for u, xh in enumerate(hq_hs):
                                        if xh:
                                            out[t * m + u] = out[t * m + u] + cc * xh
                rows.append(tuple(out))
        h_ops.append(Matrix(field, rows, ncols=amb))

    a_act = [_restrict_operator(op, W) for op in a_ops]
    h_act = [_restrict_operator(op, W) for op in h_ops]
    module = PartialModule("right", pa, W.dim, a_act, h_act)
    check_partial_module(module).raise_if_failed("extended right module axioms")

    emb_rows = []
    for jv in range(V.dim):
        c = W.coords_of(tens(mod_basis(V, jv), H.unit))
        if c is None:
            raise InvariantViolation("V (x) 1_H does not sit inside W")
        emb_rows.append(c)
    embedding = Matrix(field, emb_rows, ncols=W.dim)
    return ModuleExtension(module, embedding, W)


def extend_left_module(pa: PartialAction, V: AlgebraModule) -> ModuleExtension:
    """W = rho(A)(V (x) H*) with a.w = rho(a)w and h |> w = rho(1)(id (x) h->)(w)."""
    if V.side != "left" or V.algebra != pa.alg:
        raise NotAModule("extend_left_module needs a left A-module")
    if not V.check().ok:
        raise NotAModule("V is not a unital A-module")
    A = pa.alg
    K = dual_hopf(pa.hopf)
    pc = action_to_coaction(pa)
    m = K.dim
    field = pa.field
    amb = V.dim * m
    rho = dense_rho(pc)
    rho_unit = apply(Matrix(field, rho, ncols=A.dim * m), A.unit)

    def rho_times(avec_rho, vvec, kvec):
        """rho-coefficient vector acting on v (x) phi."""
        out = list(zero_vec(field, amb))
        for idx, c in enumerate(avec_rho):
            if not c:
                continue
            b, l = divmod(idx, m)
            moved = module_act_basis(V, b, vvec)
            prod_k = K.alg.multiply(K.alg.basis_vector(l), kvec)
            for t, xv in enumerate(moved):
                if not xv:
                    continue
                cc = c * xv
                for u, xk in enumerate(prod_k):
                    if xk:
                        out[t * m + u] = out[t * m + u] + cc * xk
        return tuple(out)

    gens = []
    for x in range(A.dim):
        for jv in range(V.dim):
            for phi in range(m):
                gens.append(
                    rho_times(rho[x], mod_basis(V, jv), K.alg.basis_vector(phi))
                )
    W = Subspace.from_vectors(field, amb, gens)

    a_ops = []
    for a in range(A.dim):
        rows = []
        for jv in range(V.dim):
            for r in range(m):
                rows.append(rho_times(rho[a], mod_basis(V, jv), K.alg.basis_vector(r)))
        a_ops.append(Matrix(field, rows, ncols=amb))

    h_ops = []
    for h in range(pa.hopf.dim):
        rows = []
        for jv in range(V.dim):
            for r in range(m):
                # h -> p_r = sum_s comul_K[r][s][h] p_s, then multiply by rho(1)
                out = list(zero_vec(field, amb))
                for s in range(m):
                    c = dense_comul(K)[r][s][h]
                    if not c:
                        continue
                    term = rho_times(rho_unit, mod_basis(V, jv), K.alg.basis_vector(s))
                    for t, x in enumerate(term):
                        if x:
                            out[t] = out[t] + c * x
                rows.append(tuple(out))
        h_ops.append(Matrix(field, rows, ncols=amb))

    a_act = [_restrict_operator(op, W) for op in a_ops]
    h_act = [_restrict_operator(op, W) for op in h_ops]
    module = PartialModule("left", pa, W.dim, a_act, h_act)
    check_partial_module(module).raise_if_failed("extended left module axioms")

    ints = left_integrals(K)
    if ints.dim != 1:
        raise InvariantViolation("integral space of H* must be one-dimensional")
    lam = ints.rows[0]
    emb_rows = []
    for jv in range(V.dim):
        vec = list(zero_vec(field, amb))
        for r, c in enumerate(lam):
            if c:
                vec[jv * m + r] = c
        coords = W.coords_of(tuple(vec))
        if coords is None:
            raise InvariantViolation("V (x) lambda does not sit inside W")
        emb_rows.append(coords)
    embedding = Matrix(field, emb_rows, ncols=W.dim)
    return ModuleExtension(module, embedding, W)


def commutant_dimension(M: PartialModule) -> int:
    field = M.field
    d = M.dim
    ops = operator_matrices(M)
    rows = []
    for r in range(d):
        for s in range(d):
            block = []
            for op in ops:
                # (E_rs op - op E_rs) flattened
                comm = [list(zero_vec(field, d)) for _ in range(d)]
                for jj in range(d):
                    x = op.rows[s][jj]
                    if x:
                        comm[r][jj] = comm[r][jj] + x
                for ii in range(d):
                    x = op.rows[ii][r]
                    if x:
                        comm[ii][s] = comm[ii][s] - x
                block.extend(x for row in comm for x in row)
            rows.append(tuple(block))
    return Matrix(field, rows, ncols=len(rows[0])).left_kernel().dim


def matmul_mod(X, Y, q):
    """X Y mod q for integer matrices, one n-term dot product per entry."""
    cols = list(zip(*Y))
    return [[sum(x * y for x, y in zip(row, col)) % q for col in cols] for row in X]


def lifted_power_trace(L, e, q):
    """tr(L^e) mod q for an integer matrix L and e >= 1, every power formed in full."""
    n = len(L)
    result = None
    base = L
    while e:
        if e & 1:
            result = base if result is None else matmul_mod(result, base, q)
        e >>= 1
        if e:
            base = matmul_mod(base, base, q)
    return sum(result[i][i] for i in range(n)) % q


# ---------------------------------------------------------------------------
# the dense Gauss-Jordan elimination


def _rref(rows: Sequence[Sequence], p: int) -> tuple[list[list], int, list[int]]:
    """Reduced row echelon form: (all rows, zero rows last; rank; pivot columns)."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    if p:
        a = [[x % p for x in row] for row in rows]
    else:
        a = [list(row) for row in rows]
    pivots: list[int] = []
    if m == 0 or n == 0:
        return a, 0, pivots
    r = 0
    for c in range(n):
        s = next((i for i in range(r, m) if a[i][c]), -1)
        if s < 0:
            continue
        if s != r:
            a[s], a[r] = a[r], a[s]
        prow = a[r]
        f = prow[c]
        if f != 1:
            if p:
                f = pow(f, p - 2, p)
                prow = [x * f % p for x in prow]
            else:
                f = f if f.__class__ is Fraction else Fraction(f)
                prow = [x / f if x else x for x in prow]
            a[r] = prow
        nz = [(j, x) for j, x in enumerate(prow) if x]
        for i in range(m):
            if i == r:
                continue
            row = a[i]
            f = row[c]
            if not f:
                continue
            if p:
                for j, x in nz:
                    row[j] = (row[j] - f * x) % p
            else:
                for j, x in nz:
                    row[j] = row[j] - f * x
        pivots.append(c)
        r += 1
        if r == m:
            break
    if not p:
        a = [list(_canon(row, 0)) for row in a]
    return a, r, pivots


def rref_span(field, n, rows) -> Subspace:
    """The span of rows of length n: the nonzero rows and pivots of one `_rref`."""
    red, rank, pivots = _rref(rows, field.char)
    return Subspace(field, n, tuple(map(tuple, red[:rank])), tuple(pivots))


def rref_kernel(m: Matrix) -> Subspace:
    """{x : m @ x^T = 0}: one vector per free column of the RREF of m, spanned by `_rref` again."""
    red, _, pivots = _rref(m.rows, m.field.char)
    n = m.ncols
    basis = []
    for fc in sorted(set(range(n)) - set(pivots)):
        vec = list(zero_vec(m.field, n))
        vec[fc] = m.field.one
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(vec)
    return rref_span(m.field, n, basis)
