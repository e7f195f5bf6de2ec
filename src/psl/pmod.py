"""Partial (A,H)-modules and their equivalence with modules over A #_par H.

A right partial module carries a unital right A-action and an H-action
m <| h subject to

    PM1: m <| 1_H = m
    PM3: (m <| h)a    = sum (m (h1 . a)) <| h2
    PM4: (m <| h) <| g = sum (m (h1 . 1_A)) <| (h2 g)

(left versions mirrored).  An action is stored only as sparse rows:
`_a_terms[i][j]` is the image of the j-th module basis vector under the
i-th algebra basis element, likewise `_h_terms` for the Hopf algebra and
`AlgebraModule._terms` for a plain module.  The dense tensors are an input
format of the public constructors, for outside input only: every module
pmod builds is made by `_of_terms` from the sparse rows its loop computes.

Partial modules and plain modules reach one irreducibility walk,
`_irreducible`.  Over F_p it is `_exhaustively_irreducible`, the line walk of
the invariant-subspace enumeration (`exactla._line_closures`), in which each
spin reuses the closures of the lines walked before it; it refuses more than
`ENUM_BUDGET` lines.  `irreducible_extension` grows its maximal submodule in
one pass over the closures of the same walk.
Over Q it is one dimension count (Burnside): the unital algebra the
operators generate is the spin of the identity of F^{d x d} under right
multiplication by each operator.  `AlgebraModule.check` and
`check_partial_module` run the unit and module laws of A through one loop,
`_module_law`.  Annihilators are the left kernel of the flattened
A-operators, and a quotient takes each operator's rows to the complement
cosets of the submodule through `algebra._quotient_terms`, the one coset map
that the quotient algebra and quotient action also use; the extensions and the
smash-module conversion run on the sparse operator rows, the left extension
on rho as `action_to_coaction` stores it.
"""

from __future__ import annotations

from typing import NamedTuple

from psl.algebra import (
    Algebra,
    CheckReport,
    InvariantViolation,
    NotAnIdeal,
    _add_scaled,
    _apply_pair,
    _apply_raw,
    _cosets,
    _differ,
    _mult_operators,
    _quotient_terms,
    is_ideal,
)
from psl.exactla import (
    Matrix,
    Subspace,
    _canon,
    _compact,
    _dense,
    _line_closures,
    _nonzero,
    _spin,
    _tensor,
    unit_vec,
)
from psl.hopf import left_integrals
from psl.paction import PartialAction, _comul_terms, action_to_coaction, colon_ideal, is_h_stable
from psl.radicals import FieldNotFinite
from psl.smash import tensor_coords


class AxiomViolation(ValueError):
    """Constructed module fails its axioms."""


class ZeroModule(ValueError):
    pass


class NotAModule(ValueError):
    pass


class AlgebraModule:
    """Module over a plain Algebra (used for modules over the smash carrier)."""

    # `_terms[i][j]` is the image of module basis vector j under e_i as a sparse
    # row, the only stored form of the action
    __slots__ = ("algebra", "dim", "side", "_terms")

    def __init__(self, algebra: Algebra, dim: int, side: str, act):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.algebra = algebra
        self.dim = dim
        self.side = side
        self._terms = _tensor(algebra.field, act, (algebra.dim, dim, dim), "module action")

    @classmethod
    def _of_terms(cls, algebra: Algebra, dim: int, side: str, terms: tuple) -> "AlgebraModule":
        """A module on rows already in kernel form, as psl's own loops make them; nothing is checked."""
        mod = cls.__new__(cls)
        mod.algebra, mod.dim, mod.side, mod._terms = algebra, dim, side, terms
        return mod

    @property
    def field(self):
        return self.algebra.field

    def check(self) -> CheckReport:
        """Unital module axioms on all basis pairs."""
        failures = []
        for j in range(self.dim):
            unit_ok, bad = _module_law(self.algebra, self.side, self._terms, self.dim, j)
            if not unit_ok:
                failures.append(f"unit does not act as identity on basis {j}")
            failures += [f"module law fails at (e{i}, e{k}, w{j})" for i, k in bad]
        return CheckReport(not failures, tuple(failures))


def _module_law(A: Algebra, side: str, ops, d: int, j: int) -> tuple[bool, list]:
    """Whether 1_A fixes basis vector w_j, and the pairs (i, k) where the module law fails at w_j.

    ops[i][j] is the sparse image of w_j under e_i.  A non-unital A has no
    unit law, which then holds.
    """
    p = A.field.char
    # the images of w_j under every basis element of A
    column = [ops[i][j] for i in range(A.dim)]
    w = [int(t == j) for t in range(d)]
    unit_ok = A.unit is None or not _differ(_apply_raw(column, _nonzero(A.unit), d), w, p)
    bad = []
    for i in range(A.dim):
        for k in range(A.dim):
            if side == "right":
                # (w e_i) e_k = w (e_i e_k)
                lhs = _apply_raw(ops[k], ops[i][j], d)
            else:
                # e_i (e_k w) = (e_i e_k) w
                lhs = _apply_raw(ops[i], ops[k][j], d)
            if _differ(lhs, _apply_raw(column, A.terms[i][k], d), p):
                bad.append((i, k))
    return unit_ok, bad


def regular_module(A: Algebra, side: str = "right") -> AlgebraModule:
    """A acting on itself."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    return AlgebraModule._of_terms(A, A.dim, side, _mult_operators(A, side))


def quotient_module(A: Algebra, I: Subspace, side: str = "right") -> AlgebraModule:
    """A/I as an A-module, for a left (side "left") or right (side "right") ideal I."""
    regular = regular_module(A, side)
    if not is_ideal(A, I, side):
        raise NotAnIdeal(f"quotient_module needs a {side} ideal")
    return AlgebraModule._of_terms(A, A.dim - I.dim, side, _quotient_terms(I, regular._terms))


def _annihilator(field, ops, dim: int) -> Subspace:
    """{x : sum_i x_i ops[i] = 0} for operators on F^dim given by their sparse rows (operator i, basis j) -> image."""
    rows = tuple(_canon([x for v in op for x in _dense(v, dim)], field.char) for op in ops)
    return Matrix._of_raw(field, rows, dim * dim).left_kernel()


def module_annihilator(mod: AlgebraModule) -> Subspace:
    """{a : M a = 0} (right) or {a : a M = 0} (left)."""
    return _annihilator(mod.field, mod._terms, mod.dim)


class PartialModule:
    """Right or left partial (A,H)-module over a partial action."""

    # `_a_terms[i][j]`/`_h_terms[i][j]` are the images of module basis vector j
    # under e_i/h_i as sparse rows, the only stored form of the two actions
    __slots__ = ("side", "pa", "dim", "_a_terms", "_h_terms")

    def __init__(self, side: str, pa: PartialAction, dim: int, a_act, h_act):
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        self.side = side
        self.pa = pa
        self.dim = dim
        self._a_terms = _tensor(pa.field, a_act, (pa.alg.dim, dim, dim), "partial module A action")
        self._h_terms = _tensor(pa.field, h_act, (pa.hopf.dim, dim, dim), "partial module H action")

    @classmethod
    def _of_terms(cls, side: str, pa: PartialAction, dim: int, a_terms: tuple, h_terms: tuple) -> "PartialModule":
        """A partial module on rows already in kernel form, as psl's own loops make them; nothing is checked."""
        M = cls.__new__(cls)
        M.side, M.pa, M.dim, M._a_terms, M._h_terms = side, pa, dim, a_terms, h_terms
        return M

    @property
    def field(self):
        return self.pa.field

    def basis_vector(self, j: int) -> tuple:
        return unit_vec(self.field, self.dim, j)


def check_partial_module(M: PartialModule) -> CheckReport:
    """PM1, PM3, PM4 plus the unital A-module laws, on all basis tuples."""
    failures = []
    pa = M.pa
    A, H = pa.alg, pa.hopf
    right = M.side == "right"
    d, p = M.dim, M.field.char
    a_ops, h_ops = M._a_terms, M._h_terms
    comul = _comul_terms(H)
    unit_h = _nonzero(H.unit)
    # h_p . e_ia and h_p . 1_A, sparse
    act = pa._terms
    unit_images = [_nonzero(pa.unit_image(q)) for q in range(H.dim)]

    def apply_a(x, v):
        """x in A acting on the sparse module vector v."""
        return _compact(_apply_pair(a_ops, x, v, d, p), p)

    for j in range(d):
        unit_ok, bad = _module_law(A, M.side, a_ops, d, j)
        if not unit_ok:
            failures.append(f"A-unit law fails at w{j}")
        if _differ(_apply_pair(h_ops, unit_h, ((j, 1),), d, p), [int(t == j) for t in range(d)], p):
            failures.append(f"PM1 fails at w{j}")
        failures += [f"A-module law fails at (e{i}, e{k}, w{j})" for i, k in bad]

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
                        term = _apply_pair(a_ops, act[hp][ia], h_ops[hq][j], d, p)
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
                        term = _apply_pair(h_ops, hq_g, apply_a(unit_images[hp], w), d, p)
                    else:
                        term = _apply_pair(a_ops, unit_images[hp], _compact(_apply_pair(h_ops, hq_g, w, d, p), p), d, p)
                    _add_scaled(rhs, c, term)
                if _differ(lhs, rhs, p):
                    failures.append(f"PM4 fails at (h{ih}, h{g}, w{j})")

    return CheckReport(not failures, tuple(failures))


def to_smash_module(M: PartialModule, sp) -> AlgebraModule:
    """m (a # h) := (m a) <| h (right), resp. (a # h) m := a (h |> m) (left)."""
    m, d, p = M.pa.hopf.dim, M.dim, M.field.char
    a_ops, h_ops = M._a_terms, M._h_terms
    act = []
    for row in sp.coords._sparse_rows():
        images = []
        for j in range(d):
            out = [0] * d
            for idx, c in row:
                ja, ih = divmod(idx, m)
                if M.side == "right":
                    _add_scaled(out, c, _apply_raw(h_ops[ih], a_ops[ja][j], d))
                else:
                    _add_scaled(out, c, _apply_raw(a_ops[ja], h_ops[ih][j], d))
            images.append(_compact(out, p))
        act.append(tuple(images))
    mod = AlgebraModule._of_terms(sp.carrier, d, M.side, tuple(act))
    report = mod.check()
    if not report.ok:
        raise AxiomViolation("smash-module conversion failed: " + report.failures[0])
    return mod


def from_smash_module(sp, mod: AlgebraModule) -> PartialModule:
    """ma := m (a#1), m <| h := m (1#h) (right); mirrored on the left."""
    pa = sp.pa
    if mod.algebra != sp.carrier:
        raise NotAModule("module is not over this smash product's carrier")
    d, p = mod.dim, mod.field.char
    incl = [sp.include_a(pa.alg.basis_vector(i)) for i in range(pa.alg.dim)]
    h_img = [sp.project(tensor_coords(pa, pa.alg.unit, pa.hopf.alg.basis_vector(i))) for i in range(pa.hopf.dim)]

    def images(x):
        """The sparse images of the module basis under x in the carrier."""
        x = _nonzero(x)
        return tuple(_compact(_apply_pair(mod._terms, x, ((j, 1),), d, p), p) for j in range(d))

    M = PartialModule._of_terms(mod.side, pa, d, tuple(map(images, incl)), tuple(map(images, h_img)))
    report = check_partial_module(M)
    if not report.ok:
        raise AxiomViolation("partial-module conversion failed: " + report.failures[0])
    return M


def annihilator(M: PartialModule) -> Subspace:
    """ann(M) as a subspace of A; always an H-stable ideal."""
    ann = _annihilator(M.field, M._a_terms, M.dim)
    if not is_ideal(M.pa.alg, ann):
        raise InvariantViolation("annihilator is not an ideal")
    if not is_h_stable(M.pa, ann):
        raise InvariantViolation("annihilator is not H-stable")
    return ann


def _exhaustively_irreducible(field, d: int, ops) -> bool:
    """Whether every nonzero vector of F_p^d spins up the whole space under the sparse operators.

    The walk of the invariant-subspace enumeration, `_line_closures`, stops at
    the first closure that is not F_p^d; more than ENUM_BUDGET lines raise
    DimensionTooLarge.
    """
    return all(c.is_full() for c in _line_closures(field, d, ops))


def _irreducible(field, d: int, ops) -> bool | None:
    """Whether F^d has no proper nonzero subspace invariant under the sparse operators.

    Over F_p exhaustive.  Over Q: False when a basis vector spins up a proper
    subspace, True when the operators generate M_d(Q), which by Burnside's
    theorem and the Jacobson density theorem holds exactly when F^d is
    irreducible with commutant Q, and None otherwise.
    """
    if d == 0:
        raise ZeroModule("the zero module is not irreducible")
    if d == 1:
        return True
    if field.char:
        return _exhaustively_irreducible(field, d, ops)
    for e_j in Matrix.identity(field, d).rows:
        if _spin(field, d, [list(e_j)], ops).dim != d:
            return False
    return True if _generated_span(field, d, ops).dim == d * d else None


def _generated_span(field, d: int, ops) -> Subspace:
    """The unital algebra the sparse operators generate, in flattened d x d matrices (e_ij at i*d + j).

    It is the span of the words in the operators: the spin of the identity
    under X -> X G for each operator G, which sends e_ij to sum_l G[j][l] e_il.
    """
    n = d * d
    right = [[tuple((i * d + l, c) for l, c in op[j]) for i in range(d) for j in range(d)] for op in ops]
    return _spin(field, n, [[int(a % (d + 1) == 0) for a in range(n)]], right)


def is_irreducible(M: PartialModule) -> bool | None:
    """No proper nonzero partial submodules: exhaustive over F_p; over Q Burnside's test, None when it cannot tell."""
    return _irreducible(M.field, M.dim, M._a_terms + M._h_terms)


class ModuleExtension(NamedTuple):
    """A partial module W built from an A-module V, with the embedding of V."""

    module: PartialModule
    embedding: Matrix  # rows = images of the V basis in module coordinates
    space: Subspace    # W inside V (x) H (resp. V (x) H*)


class IrreducibleExtension(NamedTuple):
    """Irreducible quotient M = W/U with the surviving embedding of V."""

    module: PartialModule
    embedding: Matrix
    extension: ModuleExtension
    killed: Subspace


def _coords_in(W: Subspace, vectors, message: str) -> tuple:
    """The sparse coordinates (`Subspace._coords`) of each vector in W; InvariantViolation(message) if one
    is outside."""
    out = tuple(map(W._coords, vectors))
    if None in out:
        raise InvariantViolation(message)
    return out


def _extension_module(pa: PartialAction, side: str, W: Subspace, a_rows, h_rows) -> PartialModule:
    """The partial module on an invariant W of operators given by their dense (unreduced) rows."""
    p = W.field.char

    def restrict(rows):
        op = [_compact(r, p) for r in rows]
        images = [_apply_raw(op, w, W.ambient) for w in W._sparse_rows()]
        return _coords_in(W, images, "extension space is not invariant under the action")

    module = PartialModule._of_terms(side, pa, W.dim, tuple(map(restrict, a_rows)), tuple(map(restrict, h_rows)))
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
    coords = _coords_in(W, v_tensor_1, "V (x) 1_H does not sit inside W")
    embedding = Matrix._of_raw(field, tuple(tuple(_dense(c, W.dim)) for c in coords), W.dim)
    return ModuleExtension(module, embedding, W)


def _module_quotient(M: PartialModule, U: Subspace) -> tuple[PartialModule, Matrix]:
    """M/U for a submodule U, with the projection of M onto it."""
    d = M.dim - U.dim
    Q = PartialModule._of_terms(M.side, M.pa, d, _quotient_terms(U, M._a_terms), _quotient_terms(U, M._h_terms))
    proj = Matrix(M.field, _cosets(U, map(M.basis_vector, range(M.dim))), ncols=d)
    return Q, proj


def module_is_irreducible_over_algebra(V: AlgebraModule) -> bool:
    """Exhaustive irreducibility of a plain module over a finite field."""
    if V.field.char == 0:
        raise FieldNotFinite("exhaustive module irreducibility needs a finite field")
    return _irreducible(V.field, V.dim, V._terms)


def irreducible_extension(pa: PartialAction, V: AlgebraModule) -> IrreducibleExtension:
    """Irreducible partial module M = W/U containing V, for a maximal submodule U of W with U /\\ V = 0.

    Finite fields only.  U is grown in one pass over the distinct line
    closures of W from the one line walk, `_line_closures` (more than
    ENUM_BUDGET lines raise DimensionTooLarge): a closure C not inside U is
    absorbed when U + C still meets V in 0.  U is maximal whatever the order:
    a submodule meeting V in 0 that strictly contains U holds some v outside
    U, and the closure of v, offered when U was smaller, would have been
    absorbed then.
    """
    field = pa.field
    if field.char == 0:
        raise FieldNotFinite("irreducible_extension needs a finite field")
    if not module_is_irreducible_over_algebra(V):
        raise NotAModule("V must be an irreducible A-module")
    ext = extend_right_module(pa, V)
    W_mod = ext.module
    d = W_mod.dim
    ops = W_mod._a_terms + W_mod._h_terms
    v_image = Subspace.from_vectors(field, d, ext.embedding.rows)
    killed = Subspace.zero_space(field, d)
    for C in _line_closures(field, d, ops):
        if not C <= killed:
            grown = killed + C
            if grown.intersect(v_image).is_zero():
                killed = grown
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
    K, rho = pc.hopf, pc._terms
    m, n, dv = K.dim, A.dim, V.dim
    field = pa.field
    amb = dv * m
    p = field.char
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
    rho_unit = _compact(_apply_raw(rho, _nonzero(A.unit), n * m), p)
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
    coords = _coords_in(W, v_tensor_lam, "V (x) lambda does not sit inside W")
    embedding = Matrix._of_raw(field, tuple(tuple(_dense(c, W.dim)) for c in coords), W.dim)
    return ModuleExtension(module, embedding, W)

