"""Partial (A,H)-modules and their equivalence with modules over A #_par H.

A right partial module carries a unital right A-action and an H-action
m <| h subject to

    PM1: m <| 1_H = m
    PM3: (m <| h)a    = sum (m (h1 . a)) <| h2
    PM4: (m <| h) <| g = sum (m (h1 . 1_A)) <| (h2 g)

(left versions mirrored).  Action tensors are stored as
a_act[i][j] = action of the i-th algebra basis element on the j-th
module basis vector, and likewise h_act for the Hopf algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from psl.algebra import (
    Algebra,
    CheckReport,
    InvariantViolation,
    _add_scaled,
    _apply_pair,
    _apply_raw,
    _differ,
    _operate,
    _operate_sum,
    is_ideal,
)
from psl.exactla import (
    DimensionMismatch,
    Matrix,
    Subspace,
    _Echelon,
    _nonzero,
    _operator_terms,
    _projective_raw,
    _spin,
    enumerate_invariant_subspaces,
    unit_vec,
    zero_vec,
)
from psl.hopf import dual_hopf, left_integrals
from psl.paction import PartialAction, _comul_terms, action_to_coaction, is_h_stable
from psl.radicals import DimensionTooLarge, FieldNotFinite, jacobson_radical


class AxiomViolation(ValueError):
    """Constructed module fails its axioms."""


class ZeroModule(ValueError):
    pass


class NotAModule(ValueError):
    pass


def _module_tensor(field, tensor, nops: int, dim: int, what: str) -> tuple:
    """An action tensor (operator i, module basis j) -> image, as canonical tuples."""
    of = field.of
    out = tuple(tuple(tuple(of(x) for x in tensor[i][j]) for j in range(dim)) for i in range(nops))
    if any(len(v) != dim for row in out for v in row):
        raise DimensionMismatch(f"{what} action tensor shape mismatch")
    return out


class AlgebraModule:
    """Module over a plain Algebra (used for modules over the smash carrier)."""

    # `_terms[i][j]` is the image of module basis vector j under e_i, as a sparse row
    __slots__ = ("algebra", "dim", "side", "act", "_terms")

    def __init__(self, algebra: Algebra, dim: int, side: str, act):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.algebra = algebra
        self.dim = dim
        self.side = side
        self.act = _module_tensor(algebra.field, act, algebra.dim, dim, "module")
        self._terms = tuple(tuple(_nonzero(v) for v in row) for row in self.act)

    @property
    def field(self):
        return self.algebra.field

    def act_basis(self, i: int, mvec: Sequence) -> tuple:
        return _operate(self.field, self._terms, i, mvec, self.dim)

    def act_vec(self, avec: Sequence, mvec: Sequence) -> tuple:
        return _operate_sum(self.field, self._terms, avec, mvec, self.dim)

    def act_matrix(self, i: int) -> Matrix:
        return Matrix._of_raw(self.field, self.act[i], self.dim)

    def check(self) -> CheckReport:
        """Unital module axioms on all basis pairs."""
        failures = []
        A = self.algebra
        d, p, ops = self.dim, self.field.char, self._terms
        unit = None if A.unit is None else _nonzero(A.unit)
        for j in range(d):
            w = [int(t == j) for t in range(d)]
            # the images of w under every basis element of A
            column = [ops[i][j] for i in range(A.dim)]
            if unit is not None and _differ(_apply_raw(column, unit, d), w, p):
                failures.append(f"unit does not act as identity on basis {j}")
            for i in range(A.dim):
                for k in range(A.dim):
                    if self.side == "right":
                        # (w e_i) e_k = w (e_i e_k)
                        lhs = _apply_raw(ops[k], ops[i][j], d)
                    else:
                        # e_i (e_k w) = (e_i e_k) w
                        lhs = _apply_raw(ops[i], ops[k][j], d)
                    if _differ(lhs, _apply_raw(column, A.terms[i][k], d), p):
                        failures.append(f"module law fails at (e{i}, e{k}, w{j})")
        return CheckReport(not failures, tuple(failures))


def regular_module(A: Algebra, side: str = "right") -> AlgebraModule:
    """A acting on itself."""
    if side == "right":
        act = [[A.mult[j][i] for j in range(A.dim)] for i in range(A.dim)]
    else:
        act = [[A.mult[i][j] for j in range(A.dim)] for i in range(A.dim)]
    return AlgebraModule(A, A.dim, side, act)


def quotient_module(A: Algebra, I: Subspace, side: str = "right") -> AlgebraModule:
    """A/I as an A-module, for a one- or two-sided ideal I of matching side."""
    comp = I.complement_indices()

    def project(vec):
        r = I.reduce(vec)
        return tuple(r[c] for c in comp)

    lifts = [A.basis_vector(c) for c in comp]
    if side == "right":
        act = [
            [project(A.multiply(lifts[j], A.basis_vector(i))) for j in range(len(comp))]
            for i in range(A.dim)
        ]
    else:
        act = [
            [project(A.multiply(A.basis_vector(i), lifts[j])) for j in range(len(comp))]
            for i in range(A.dim)
        ]
    return AlgebraModule(A, len(comp), side, act)


def module_annihilator(mod: AlgebraModule) -> Subspace:
    """{a : M a = 0} (right) or {a : a M = 0} (left)."""
    A = mod.algebra
    if mod.dim == 0:
        return Subspace.full_space(mod.field, A.dim)
    rows = []
    for i in range(A.dim):
        block = []
        for j in range(mod.dim):
            block.extend(mod.act_basis(i, mod_basis(mod, j)))
        rows.append(tuple(block))
    return Matrix(mod.field, rows, ncols=mod.dim * mod.dim).left_kernel()


class PartialModule:
    """Right or left partial (A,H)-module over a partial action."""

    # `_a_terms`/`_h_terms` hold `a_act`/`h_act` as sparse rows
    __slots__ = ("side", "pa", "dim", "a_act", "h_act", "_a_terms", "_h_terms")

    def __init__(self, side: str, pa: PartialAction, dim: int, a_act, h_act):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.side = side
        self.pa = pa
        self.dim = dim
        self.a_act = _module_tensor(pa.field, a_act, pa.alg.dim, dim, "partial module A")
        self.h_act = _module_tensor(pa.field, h_act, pa.hopf.dim, dim, "partial module H")
        self._a_terms = tuple(tuple(_nonzero(v) for v in row) for row in self.a_act)
        self._h_terms = tuple(tuple(_nonzero(v) for v in row) for row in self.h_act)

    @property
    def field(self):
        return self.pa.field

    def basis_vector(self, j: int) -> tuple:
        return unit_vec(self.field, self.dim, j)

    def act_a_basis(self, i: int, mvec: Sequence) -> tuple:
        return _operate(self.field, self._a_terms, i, mvec, self.dim)

    def act_a(self, avec: Sequence, mvec: Sequence) -> tuple:
        return _operate_sum(self.field, self._a_terms, avec, mvec, self.dim)

    def act_h_basis(self, i: int, mvec: Sequence) -> tuple:
        return _operate(self.field, self._h_terms, i, mvec, self.dim)

    def act_h(self, hvec: Sequence, mvec: Sequence) -> tuple:
        return _operate_sum(self.field, self._h_terms, hvec, mvec, self.dim)

    def a_matrix(self, i: int) -> Matrix:
        return Matrix._of_raw(self.field, self.a_act[i], self.dim)

    def h_matrix(self, i: int) -> Matrix:
        return Matrix._of_raw(self.field, self.h_act[i], self.dim)

    def operator_matrices(self) -> list[Matrix]:
        return [self.a_matrix(i) for i in range(self.pa.alg.dim)] + [
            self.h_matrix(i) for i in range(self.pa.hopf.dim)
        ]


def check_partial_module(M: PartialModule) -> CheckReport:
    """PM1, PM3, PM4 plus the unital A-module laws, on all basis tuples."""
    failures = []
    pa = M.pa
    A, H = pa.alg, pa.hopf
    right = M.side == "right"
    d, p = M.dim, M.field.char
    a_ops, h_ops = M._a_terms, M._h_terms
    comul = _comul_terms(H)
    unit_a, unit_h = _nonzero(A.unit), _nonzero(H.unit)
    # h_p . e_ia and h_p . 1_A, sparse
    act = pa._terms
    unit_images = [_nonzero(pa.unit_image(q)) for q in range(H.dim)]

    def apply_a(x, v):
        """x in A acting on the sparse module vector v."""
        return _nonzero(_apply_pair(a_ops, x, v, d))

    def apply_h(x, v):
        return _nonzero(_apply_pair(h_ops, x, v, d))

    for j in range(d):
        w = ((j, 1),)
        dense = [int(t == j) for t in range(d)]
        if _differ(_apply_pair(a_ops, unit_a, w, d), dense, p):
            failures.append(f"A-unit law fails at w{j}")
        if _differ(_apply_pair(h_ops, unit_h, w, d), dense, p):
            failures.append(f"PM1 fails at w{j}")
        for i in range(A.dim):
            for k in range(A.dim):
                if right:
                    lhs = _apply_raw(a_ops[k], a_ops[i][j], d)
                else:
                    lhs = _apply_raw(a_ops[i], a_ops[k][j], d)
                if _differ(lhs, _apply_pair(a_ops, A.terms[i][k], w, d), p):
                    failures.append(f"A-module law fails at (e{i}, e{k}, w{j})")

    for j in range(d):
        w = ((j, 1),)
        for ih in range(H.dim):
            for ia in range(A.dim):
                # PM3
                if right:
                    lhs = _apply_raw(a_ops[ia], h_ops[ih][j], d)
                else:
                    lhs = _apply_raw(h_ops[ih], a_ops[ia][j], d)
                rhs = [0] * d
                for hp, hq, c in comul[ih]:
                    if right:
                        term = _apply_raw(h_ops[hq], apply_a(act[hp][ia], w), d)
                    else:
                        term = _apply_pair(a_ops, act[hp][ia], h_ops[hq][j], d)
                    _add_scaled(rhs, c, term)
                if _differ(lhs, rhs, p):
                    failures.append(f"PM3 fails at (h{ih}, e{ia}, w{j})")
            for g in range(H.dim):
                # PM4
                if right:
                    lhs = _apply_raw(h_ops[g], h_ops[ih][j], d)
                else:
                    lhs = _apply_raw(h_ops[ih], h_ops[g][j], d)
                rhs = [0] * d
                for hp, hq, c in comul[ih]:
                    hq_g = H.alg.terms[hq][g]
                    if right:
                        term = _apply_pair(h_ops, hq_g, apply_a(unit_images[hp], w), d)
                    else:
                        term = _apply_pair(a_ops, unit_images[hp], apply_h(hq_g, w), d)
                    _add_scaled(rhs, c, term)
                if _differ(lhs, rhs, p):
                    failures.append(f"PM4 fails at (h{ih}, h{g}, w{j})")

    return CheckReport(not failures, tuple(failures))


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
                    term = M.act_h_basis(ih, M.act_a_basis(ja, w))
                else:
                    term = M.act_a_basis(ja, M.act_h_basis(ih, w))
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


def from_smash_module(sp, mod: AlgebraModule) -> PartialModule:
    """ma := m (a#1), m <| h := m (1#h) (right); mirrored on the left."""
    pa = sp.pa
    if mod.algebra != sp.carrier:
        raise NotAModule("module is not over this smash product's carrier")
    from psl.smash import tensor_coords

    incl = [sp.include_a(pa.alg.basis_vector(i)) for i in range(pa.alg.dim)]
    h_img = [
        sp.project(tensor_coords(pa, pa.alg.unit, pa.hopf.alg.basis_vector(i)))
        for i in range(pa.hopf.dim)
    ]
    a_act = [
        [mod.act_vec(incl[i], mod_basis(mod, j)) for j in range(mod.dim)]
        for i in range(pa.alg.dim)
    ]
    h_act = [
        [mod.act_vec(h_img[i], mod_basis(mod, j)) for j in range(mod.dim)]
        for i in range(pa.hopf.dim)
    ]
    M = PartialModule(mod.side, pa, mod.dim, a_act, h_act)
    report = check_partial_module(M)
    if not report.ok:
        raise AxiomViolation("partial-module conversion failed: " + report.failures[0])
    return M


def mod_basis(mod: AlgebraModule, j: int) -> tuple:
    return unit_vec(mod.field, mod.dim, j)


def annihilator(M: PartialModule) -> Subspace:
    """ann(M) as a subspace of A; always an H-stable ideal."""
    A = M.pa.alg
    if M.dim == 0:
        return Subspace.full_space(M.field, A.dim)
    rows = []
    for i in range(A.dim):
        block = []
        for j in range(M.dim):
            block.extend(M.act_a_basis(i, M.basis_vector(j)))
        rows.append(tuple(block))
    ann = Matrix(M.field, rows, ncols=M.dim * M.dim).left_kernel()
    if not is_ideal(A, ann):
        raise InvariantViolation("annihilator is not an ideal")
    if not is_h_stable(M.pa, ann):
        raise InvariantViolation("annihilator is not H-stable")
    return ann


def is_irreducible(M: PartialModule, budget: int = 1 << 14) -> bool | None:
    """No proper nonzero partial submodules.

    Finite fields: exhaustive over cyclic submodules.  Over Q: True/False
    when provable (basis generation, semisimplicity plus trivial commutant),
    None when unknown.
    """
    if M.dim == 0:
        raise ZeroModule("the zero module is not irreducible")
    if M.dim == 1:
        return True
    field = M.field
    d = M.dim
    ops = _operator_terms(field, d, M.operator_matrices())
    if field.char:
        count = (field.char ** d - 1) // (field.char - 1)
        if count > budget:
            raise DimensionTooLarge(f"{count} cyclic submodules exceed budget {budget}")
        return all(_spin(field, d, [v], ops).dim == d for v in _projective_raw(field.char, d))

    # Q mode: sufficient conditions only
    for e_j in Matrix.identity(field, d).rows:
        if _spin(field, d, [list(e_j)], ops).dim != d:
            return False
    # the image algebra acts faithfully, so M is semisimple over it iff its
    # radical vanishes; together with a trivial commutant that forces simplicity
    B = _operator_image_algebra(M)
    if jacobson_radical(B).radical.is_zero() and _commutant_dimension(M) == 1:
        return True
    return None


def _operator_image_algebra(M: PartialModule):
    """The unital subalgebra of End(M) generated by the partial-action operators.

    Operators are flattened d x d matrices; the span is closed under
    composition by spinning over pairs, as in `subalgebra_closure`.
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
    for op in M.operator_matrices() + [identity]:
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


@dataclass(frozen=True)
class ModuleExtension:
    """A partial module W built from an A-module V, with the embedding of V."""

    module: PartialModule
    embedding: Matrix  # rows = images of the V basis in module coordinates
    space: Subspace    # W inside V (x) H (resp. V (x) H*)


@dataclass(frozen=True)
class IrreducibleExtension:
    """Irreducible quotient M = W/U with the surviving embedding of V."""

    module: PartialModule
    embedding: Matrix
    extension: ModuleExtension
    killed: Subspace


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
                        c = H.comul[k][p][q]
                        if not c:
                            continue
                        moved = V.act_vec(pa.act_basis(p, A.basis_vector(x)), v)
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
                        c = H.comul[k][p][q]
                        if not c:
                            continue
                        moved = V.act_vec(pa.act_basis(p, A.basis_vector(a)), mod_basis(V, jv))
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
                        c = H.comul[k][p][q]
                        if not c:
                            continue
                        for r in range(m):
                            for s in range(m):
                                c2 = H.comul[h][r][s]
                                if not c2:
                                    continue
                                kh = H.alg.mult[p][r]
                                moved = V.act_vec(pa.act_vec(kh, A.unit), mod_basis(V, jv))
                                hq_hs = H.alg.mult[q][s]
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


def _module_quotient(M: PartialModule, U: Subspace) -> tuple[PartialModule, Matrix]:
    comp = U.complement_indices()

    def project(vec):
        r = U.reduce(vec)
        return tuple(r[c] for c in comp)

    lifts = [M.basis_vector(c) for c in comp]
    a_act = [
        [project(M.act_a_basis(i, lifts[j])) for j in range(len(comp))]
        for i in range(M.pa.alg.dim)
    ]
    h_act = [
        [project(M.act_h_basis(i, lifts[j])) for j in range(len(comp))]
        for i in range(M.pa.hopf.dim)
    ]
    Q = PartialModule(M.side, M.pa, len(comp), a_act, h_act)
    proj = Matrix(M.field, [project(M.basis_vector(j)) for j in range(M.dim)], ncols=len(comp))
    return Q, proj


def module_is_irreducible_over_algebra(V: AlgebraModule, budget: int = 1 << 14) -> bool:
    """Exhaustive irreducibility of a plain module over a finite field."""
    field = V.field
    if field.char == 0:
        raise FieldNotFinite("exhaustive module irreducibility needs a finite field")
    if V.dim == 0:
        raise ZeroModule("the zero module is not irreducible")
    if V.dim == 1:
        return True
    ops = _operator_terms(field, V.dim, [V.act_matrix(i) for i in range(V.algebra.dim)])
    count = (field.char ** V.dim - 1) // (field.char - 1)
    if count > budget:
        raise DimensionTooLarge(f"{count} cyclic submodules exceed budget {budget}")
    return all(_spin(field, V.dim, [v], ops).dim == V.dim for v in _projective_raw(field.char, V.dim))


def irreducible_extension(
    pa: PartialAction, V: AlgebraModule, budget: int = 1 << 14
) -> IrreducibleExtension:
    """Irreducible partial module M containing V, via a maximal submodule U of W.

    Exhaustive over finite fields; the first maximal U (canonical order) with
    U /\\ V = 0 is taken, M = W/U.
    """
    field = pa.field
    if field.char == 0:
        raise FieldNotFinite("irreducible_extension needs a finite field")
    if not module_is_irreducible_over_algebra(V, budget=budget):
        raise NotAModule("V must be an irreducible A-module")
    ext = extend_right_module(pa, V)
    W_mod = ext.module
    d = W_mod.dim
    count = (field.char ** d - 1) // (field.char - 1)
    if count > budget:
        raise DimensionTooLarge(f"{count} cyclic submodules exceed budget {budget}")
    subs = enumerate_invariant_subspaces(field, d, W_mod.operator_matrices())
    v_image = Subspace.from_vectors(field, d, ext.embedding.rows)
    candidates = [U for U in subs if U.intersect(v_image).is_zero()]
    maximal = [
        U for U in candidates
        if not any(U is not T and U <= T for T in candidates)
    ]
    killed = maximal[0]
    M, proj = _module_quotient(W_mod, killed)
    check_partial_module(M).raise_if_failed("irreducible extension axioms")
    if is_irreducible(M, budget=budget) is not True:
        raise InvariantViolation("quotient is not irreducible")
    emb = Matrix(field, [proj.apply(r) for r in ext.embedding.rows], ncols=M.dim)
    if emb.rank() != V.dim:
        raise InvariantViolation("V does not survive into M")
    if M.dim > pa.hopf.dim * V.dim:
        raise InvariantViolation("dimension bound violated")
    ann_m = annihilator(M)
    from psl.paction import colon_ideal

    ann_v = module_annihilator(V)
    if ann_m != colon_ideal(pa, ann_v):
        raise InvariantViolation("ann(M) != (ann(V):H)")
    return IrreducibleExtension(M, emb, ext, killed)


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
    rho = pc.rho.rows
    rho_unit = pc.rho_of(A.unit)

    def rho_times(avec_rho, vvec, kvec):
        """rho-coefficient vector acting on v (x) phi."""
        out = list(zero_vec(field, amb))
        for idx, c in enumerate(avec_rho):
            if not c:
                continue
            b, l = divmod(idx, m)
            moved = V.act_basis(b, vvec)
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
                    c = K.comul[r][s][h]
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


def _commutant_dimension(M: PartialModule) -> int:
    field = M.field
    d = M.dim
    ops = M.operator_matrices()
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
