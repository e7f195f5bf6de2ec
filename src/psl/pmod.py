"""Partial (A,H)-modules and their equivalence with modules over A #_par H.

A right partial module carries a unital right A-action and an H-action
m <| h subject to

    PM1: m <| 1_H = m
    PM3: (m <| h)a    = sum (m (h1 . a)) <| h2
    PM4: (m <| h) <| g = sum (m (h1 . 1_A)) <| (h2 g)

(left versions mirrored).  Action tensors are stored as
a_act[i][j] = action of the i-th algebra basis element on the j-th
module basis vector, and likewise h_act for the Hopf algebra.

Exhaustive irreducibility over F_p, for partial modules and for plain
modules alike, is `_exhaustively_irreducible`: it
spins one vector per line of F_p^d and refuses more than `_CYCLIC_CAP`
lines.  Annihilators are the left kernel of the flattened A-operators,
quotients project an action tensor onto the complement cosets of the
submodule, and the extensions, the smash-module conversion and the
commutant run on the sparse operator rows.  The operator image algebra is
the `subalgebra_closure` of the operators inside the matrix algebra M_d(k),
made an algebra by the closed-subspace helper of `psl.algebra`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from psl.algebra import (
    Algebra,
    CheckReport,
    InvariantViolation,
    NotAnIdeal,
    _add_scaled,
    _apply_pair,
    _apply_raw,
    _closed_subalgebra,
    _compact,
    _differ,
    _operate,
    _operate_sum,
    is_ideal,
    subalgebra_closure,
)
from psl.exactla import (
    DimensionMismatch,
    Matrix,
    Subspace,
    _canon,
    _dense,
    _nonzero,
    _projective_raw,
    _rref,
    _spin,
    enumerate_invariant_subspaces,
    unit_vec,
)
from psl.hopf import left_integrals
from psl.paction import PartialAction, _comul_terms, action_to_coaction, colon_ideal, is_h_stable
from psl.radicals import DimensionTooLarge, FieldNotFinite, jacobson_radical
from psl.smash import tensor_coords

# the exhaustive irreducibility test spins one vector per line of F_p^d, and
# refuses a space with more lines than this
_CYCLIC_CAP = 1 << 14


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


def _cosets(U: Subspace, vectors) -> list[tuple]:
    """Each vector modulo U, in the coordinates of the cosets of U.complement_indices()."""
    comp = U.complement_indices()
    return [tuple(r[c] for c in comp) for r in map(U._residual, vectors)]


def _quotient_tensor(U: Subspace, act) -> list:
    """An action tensor (operator i, basis j) -> image, induced on F^n/U for an invariant U."""
    comp = U.complement_indices()
    return [_cosets(U, [op[c] for c in comp]) for op in act]


def quotient_module(A: Algebra, I: Subspace, side: str = "right") -> AlgebraModule:
    """A/I as an A-module, for a left (side "left") or right (side "right") ideal I."""
    regular = regular_module(A, side)
    if not is_ideal(A, I, side):
        raise NotAnIdeal(f"quotient_module needs a {side} ideal")
    return AlgebraModule(A, A.dim - I.dim, side, _quotient_tensor(I, regular.act))


def _annihilator(field, act, dim: int) -> Subspace:
    """{x : sum_i x_i act[i] = 0} for an action tensor (operator i, basis j) -> image on F^dim."""
    rows = tuple(tuple(x for v in op for x in v) for op in act)
    return Matrix._of_raw(field, rows, dim * dim).left_kernel()


def module_annihilator(mod: AlgebraModule) -> Subspace:
    """{a : M a = 0} (right) or {a : a M = 0} (left)."""
    return _annihilator(mod.field, mod.act, mod.dim)


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
    m, d, p = M.pa.hopf.dim, M.dim, M.field.char
    a_ops, h_ops = M._a_terms, M._h_terms
    act = []
    for row in sp.coords.rows:
        images = []
        for j in range(d):
            out = [0] * d
            for idx, c in _nonzero(row):
                ja, ih = divmod(idx, m)
                if M.side == "right":
                    _add_scaled(out, c, _apply_raw(h_ops[ih], a_ops[ja][j], d))
                else:
                    _add_scaled(out, c, _apply_raw(a_ops[ja], h_ops[ih][j], d))
            images.append(_canon(out, p))
        act.append(images)
    mod = AlgebraModule(sp.carrier, d, M.side, act)
    report = mod.check()
    if not report.ok:
        raise AxiomViolation("smash-module conversion failed: " + report.failures[0])
    return mod


def from_smash_module(sp, mod: AlgebraModule) -> PartialModule:
    """ma := m (a#1), m <| h := m (1#h) (right); mirrored on the left."""
    pa = sp.pa
    if mod.algebra != sp.carrier:
        raise NotAModule("module is not over this smash product's carrier")
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
    ann = _annihilator(M.field, M.a_act, M.dim)
    if not is_ideal(M.pa.alg, ann):
        raise InvariantViolation("annihilator is not an ideal")
    if not is_h_stable(M.pa, ann):
        raise InvariantViolation("annihilator is not H-stable")
    return ann


def _check_cyclic_cap(p: int, d: int) -> None:
    count = (p ** d - 1) // (p - 1)
    if count > _CYCLIC_CAP:
        raise DimensionTooLarge(f"{count} cyclic submodules exceed budget {_CYCLIC_CAP}")


def _exhaustively_irreducible(field, d: int, ops) -> bool:
    """Whether every nonzero vector of F_p^d spins up the whole space under the sparse operators.

    One vector per line of F_p^d is spun; more than _CYCLIC_CAP lines raise DimensionTooLarge.
    """
    _check_cyclic_cap(field.char, d)
    return all(_spin(field, d, [v], ops).dim == d for v in _projective_raw(field.char, d))


def is_irreducible(M: PartialModule) -> bool | None:
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
    ops = M._a_terms + M._h_terms
    if field.char:
        return _exhaustively_irreducible(field, d, ops)

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


def _matrix_algebra(field, d: int) -> Algebra:
    """M_d(k) on the matrix units, e_ij at index i*d + j, with e_ij e_jl = e_il."""
    n = d * d
    zero = (0,) * n
    mult = [
        [unit_vec(field, n, a - a % d + b % d) if a % d == b // d else zero for b in range(n)]
        for a in range(n)
    ]
    return Algebra(field, mult, unit=[int(i % (d + 1) == 0) for i in range(n)])


def _operator_image_algebra(M: PartialModule):
    """The unital subalgebra of End(M) generated by the partial-action operators.

    Operators are flattened d x d matrices inside M_d(k), where the product
    of the row-vector convention is the matrix product.
    """
    E = _matrix_algebra(M.field, M.dim)
    span = subalgebra_closure(E, [[x for v in op for x in v] for op in M.a_act + M.h_act])
    return _closed_subalgebra(E, span, E.unit, "operator image algebra is not closed")[0]


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


def _coords_in(W: Subspace, vectors, message: str) -> list[tuple]:
    """The coordinates of each vector in the RREF basis of W; InvariantViolation(message) if one is outside."""
    out = []
    for v in vectors:
        c = W.coords_of(v)
        if c is None:
            raise InvariantViolation(message)
        out.append(c)
    return out


def _extension_module(pa: PartialAction, side: str, W: Subspace, a_rows, h_rows) -> PartialModule:
    """The partial module on an invariant W of operators given by their dense (unreduced) rows."""

    def restrict(rows):
        op = [_compact(r, W.field.char) for r in rows]
        images = [_apply_raw(op, _nonzero(w), W.ambient) for w in W.rows]
        return _coords_in(W, images, "extension space is not invariant under the action")

    module = PartialModule(side, pa, W.dim, [restrict(r) for r in a_rows], [restrict(r) for r in h_rows])
    check_partial_module(module).raise_if_failed(f"extended {side} module axioms")
    return module


def extend_right_module(pa: PartialAction, V: AlgebraModule) -> ModuleExtension:
    """W = span{sum v (k1 . x) (x) k2} <= V (x) H with the induced partial actions."""
    if V.side != "right" or V.algebra != pa.alg:
        raise NotAModule("extend_right_module needs a right A-module")
    if not V.check().ok:
        raise NotAModule("V is not a unital A-module")
    H, A = pa.hopf, pa.alg
    m, n, dv = H.dim, A.dim, V.dim
    field = pa.field
    p = field.char
    amb = dv * m
    act = pa._terms
    comul = _comul_terms(H)
    # the images of v_j under the basis of A
    columns = [[V._terms[i][j] for i in range(n)] for j in range(dv)]

    def row(images, j, k):
        """sum v_j (k1 . x) (x) k2 for k = h_k, where images[q] = h_q . x; dense, unreduced."""
        out = [0] * amb
        for hp, hq, c in comul[k]:
            for t, y in enumerate(_apply_raw(columns[j], images[hp], dv)):
                if y:
                    out[t * m + hq] += c * y
        return out

    # (v (x) k) a = sum v (k1 . a) (x) k2, and these rows span W
    a_rows = [[row([act[q][a] for q in range(m)], j, k) for j in range(dv) for k in range(m)] for a in range(n)]
    W = Subspace._span(field, amb, [r for rows in a_rows for r in rows])
    # (v (x) k) <| h = sum v ((kh)1 . 1_A) (x) (kh)2, as Delta(k)Delta(h) = Delta(kh)
    unit_a = _nonzero(A.unit)
    unit_images = [_compact(_apply_raw(act[q], unit_a, n), p) for q in range(m)]
    base = [[_compact(row(unit_images, j, l), p) for l in range(m)] for j in range(dv)]
    h_terms = H.alg.terms
    h_rows = [[_apply_raw(base[j], h_terms[k][h], amb) for j in range(dv) for k in range(m)] for h in range(m)]

    module = _extension_module(pa, "right", W, a_rows, h_rows)
    unit_h = _nonzero(H.unit)
    v_tensor_1 = [_dense(((j * m + i, x) for i, x in unit_h), amb) for j in range(dv)]
    embedding = Matrix(field, _coords_in(W, v_tensor_1, "V (x) 1_H does not sit inside W"), ncols=W.dim)
    return ModuleExtension(module, embedding, W)


def _module_quotient(M: PartialModule, U: Subspace) -> tuple[PartialModule, Matrix]:
    """M/U for a submodule U, with the projection of M onto it."""
    d = M.dim - U.dim
    Q = PartialModule(M.side, M.pa, d, _quotient_tensor(U, M.a_act), _quotient_tensor(U, M.h_act))
    proj = Matrix(M.field, _cosets(U, map(M.basis_vector, range(M.dim))), ncols=d)
    return Q, proj


def module_is_irreducible_over_algebra(V: AlgebraModule) -> bool:
    """Exhaustive irreducibility of a plain module over a finite field."""
    field = V.field
    if field.char == 0:
        raise FieldNotFinite("exhaustive module irreducibility needs a finite field")
    if V.dim == 0:
        raise ZeroModule("the zero module is not irreducible")
    if V.dim == 1:
        return True
    return _exhaustively_irreducible(field, V.dim, V._terms)


def irreducible_extension(pa: PartialAction, V: AlgebraModule) -> IrreducibleExtension:
    """Irreducible partial module M containing V, via a maximal submodule U of W.

    Exhaustive over finite fields; the first maximal U (canonical order) with
    U /\\ V = 0 is taken, M = W/U.
    """
    field = pa.field
    if field.char == 0:
        raise FieldNotFinite("irreducible_extension needs a finite field")
    if not module_is_irreducible_over_algebra(V):
        raise NotAModule("V must be an irreducible A-module")
    ext = extend_right_module(pa, V)
    W_mod = ext.module
    d = W_mod.dim
    _check_cyclic_cap(field.char, d)
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
    if is_irreducible(M) is not True:
        raise InvariantViolation("quotient is not irreducible")
    emb = Matrix(field, [proj.apply(r) for r in ext.embedding.rows], ncols=M.dim)
    if emb.rank() != V.dim:
        raise InvariantViolation("V does not survive into M")
    if M.dim > pa.hopf.dim * V.dim:
        raise InvariantViolation("dimension bound violated")
    if annihilator(M) != colon_ideal(pa, module_annihilator(V)):
        raise InvariantViolation("ann(M) != (ann(V):H)")
    return IrreducibleExtension(M, emb, ext, killed)


def extend_left_module(pa: PartialAction, V: AlgebraModule) -> ModuleExtension:
    """W = rho(A)(V (x) H*) with a.w = rho(a)w and h |> w = rho(1)(id (x) h->)(w)."""
    if V.side != "left" or V.algebra != pa.alg:
        raise NotAModule("extend_left_module needs a left A-module")
    if not V.check().ok:
        raise NotAModule("V is not a unital A-module")
    A = pa.alg
    pc = action_to_coaction(pa)
    K = pc.hopf
    m, n, dv = K.dim, A.dim, V.dim
    field = pa.field
    amb = dv * m
    rho = [_nonzero(r) for r in pc.rho.rows]
    k_terms = K.alg.terms

    def row(rho_x, j, s):
        """rho(x) acting on v_j (x) p_s, for rho(x) sparse in A (x) H*; dense, unreduced."""
        out = [0] * amb
        for idx, c in rho_x:
            b, l = divmod(idx, m)
            for t, y in V._terms[b][j]:
                for u, z in k_terms[l][s]:
                    out[t * m + u] += c * y * z
        return out

    # a.w = rho(a)w, and these rows span W
    a_rows = [[row(rho[a], j, r) for j in range(dv) for r in range(m)] for a in range(n)]
    W = Subspace._span(field, amb, [r for rows in a_rows for r in rows])
    # h |> (v (x) p_r) = rho(1)(v (x) (h -> p_r)), where h_h -> p_r = sum_s Delta(p_r)[s][h] p_s
    rho_unit = _compact(_apply_raw(rho, _nonzero(A.unit), n * m), field.char)
    base = [[row(rho_unit, j, s) for s in range(m)] for j in range(dv)]
    h_rows = [[[0] * amb for _ in range(amb)] for _ in range(m)]
    for r, parts in enumerate(_comul_terms(K)):
        for s, h, c in parts:
            for j in range(dv):
                _add_scaled(h_rows[h][j * m + r], c, base[j][s])

    module = _extension_module(pa, "left", W, a_rows, h_rows)
    ints = left_integrals(K)
    if ints.dim != 1:
        raise InvariantViolation("integral space of H* must be one-dimensional")
    lam = _nonzero(ints.rows[0])
    v_tensor_lam = [_dense(((j * m + r, c) for r, c in lam), amb) for j in range(dv)]
    embedding = Matrix(field, _coords_in(W, v_tensor_lam, "V (x) lambda does not sit inside W"), ncols=W.dim)
    return ModuleExtension(module, embedding, W)


def _commutant_dimension(M: PartialModule) -> int:
    """dim {X : X op = op X for every operator of M}."""
    d = M.dim
    rows = []
    for r in range(d):
        for s in range(d):
            block = []
            for op in M.a_act + M.h_act:
                # (E_rs op - op E_rs) flattened
                comm = [0] * (d * d)
                comm[r * d:(r + 1) * d] = op[s]
                for i in range(d):
                    comm[i * d + s] -= op[i][r]
                block.extend(comm)
            rows.append(block)
    return d * d - _rref(rows, M.field.char)[1]
