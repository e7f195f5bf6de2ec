"""Smash products of a partial action: A # H and A #_par H = (A # H)(1_A # 1_H).

Tensor coordinates on A (x) H are A-block-major (index = a*dim_H + h), so
the embedded copy a # 1_H of A keeps its own coordinates inside each block.
The carrier of the partial smash product is the image of right
multiplication by 1_A # 1_H, with its RREF rows as basis.
"""

from __future__ import annotations

from typing import Sequence

from psl.algebra import (
    Algebra,
    AlgebraMap,
    InvariantViolation,
    NotAnIdeal,
    _add_scaled,
    _apply_raw,
    _closed_subalgebra,
    _compact,
    _differ,
    _multiply_raw,
    check_algebra,
    is_ideal,
)
from psl.exactla import Matrix, Subspace, _canon, _coerce, _dense, _nonzero
from psl.hopf import dual_hopf
from psl.paction import (
    NotHStable,
    PartialAction,
    _comul_terms,
    check_partial_action,
    is_global,
    is_h_stable,
    quotient_action,
)


def tensor_coords(pa: PartialAction, avec: Sequence, hvec: Sequence) -> tuple:
    """Coordinates of a (x) h in A-block-major layout."""
    field = pa.field
    h = _coerce(field, hvec, pa.hopf.dim)
    return _canon([x * y for x in _coerce(field, avec, pa.alg.dim) for y in h], field.char)


def build_full_smash(pa: PartialAction) -> Algebra:
    """A # H with (a#h)(b#g) = sum a(h1.b) # h2 g; non-unital unless global."""
    H, A = pa.hopf, pa.alg
    m, n = H.dim, A.dim
    N = n * m
    field = pa.field
    p = field.char
    h_terms = H.alg.terms
    act = pa._terms
    comul = _comul_terms(H)
    # e_j (h_r . e_k) for every j, k and r
    a_parts = [
        [[_compact(_multiply_raw(A.terms, ((j, 1),), act[r][k]), p) for r in range(m)] for k in range(n)]
        for j in range(n)
    ]
    mult = []
    for j in range(n):
        for i in range(m):
            row = []
            for k in range(n):
                parts = a_parts[j][k]
                for g in range(m):
                    out = [0] * N
                    for hp, hq, c in comul[i]:
                        hpart = h_terms[hq][g]
                        for t, xa in parts[hp]:
                            cxa = c * xa
                            for u, xh in hpart:
                                out[t * m + u] += cxa * xh
                    row.append(out)
            mult.append(row)
    labels = tuple(f"{A.labels[j]}#{H.alg.labels[i]}" for j in range(n) for i in range(m))
    candidate_unit = tensor_coords(pa, A.unit, H.unit)
    unit = _nonzero(candidate_unit)

    def unit_laws_hold(b):
        left, right = [0] * N, [0] * N
        for a, c in unit:
            _add_scaled(left, c, mult[a][b])
            _add_scaled(right, c, mult[b][a])
        e_b = [int(t == b) for t in range(N)]
        return not (_differ(left, e_b, p) or _differ(right, e_b, p))

    unit_ok = all(unit_laws_hold(b) for b in range(N))
    return Algebra(field, mult, unit=candidate_unit if unit_ok else None, labels=labels)


class SmashProduct:
    """The unital partial smash product with its carrier data."""

    __slots__ = ("pa", "full", "carrier", "coords", "include_A", "unit_element", "dual_action", "_unit_terms")

    def __init__(self, pa, full, carrier, coords, include_A, unit_element, dual_action):
        self.pa = pa
        self.full = full
        self.carrier = carrier
        self.coords = coords
        self.include_A = include_A
        self.unit_element = unit_element
        self.dual_action = dual_action
        self._unit_terms = _nonzero(unit_element)

    @property
    def field(self):
        return self.pa.field

    def __repr__(self):
        return (
            f"SmashProduct(A dim {self.pa.alg.dim} # H dim {self.pa.hopf.dim}: "
            f"full {self.full.dim}, carrier {self.carrier.dim})"
        )

    def carrier_coords(self, tensor_vec: Sequence) -> tuple:
        """Express an A(x)H vector lying in the carrier in carrier coordinates."""
        c = self.coords.coords_of(tensor_vec)
        if c is None:
            raise ValueError("vector is not in the partial smash carrier")
        return c

    def project(self, tensor_vec: Sequence) -> tuple:
        """(x)(1_A # 1_H) in carrier coordinates, for any x in A # H."""
        return self._project(_nonzero(_coerce(self.field, tensor_vec, self.full.dim)))

    def _project(self, x: tuple) -> tuple:
        """project() of a sparse tensor vector."""
        c = self.coords._coords(_multiply_raw(self.full.terms, x, self._unit_terms))
        if c is None:
            raise ValueError("vector is not in the partial smash carrier")
        return c

    def include_a(self, avec: Sequence) -> tuple:
        return self.include_A.apply(avec)


def build_partial_smash(pa: PartialAction) -> SmashProduct:
    """The partial smash product of `pa`, built on the first call and kept on `pa`."""
    if pa._smash is None:
        pa._smash = _build_partial_smash(pa)
    return pa._smash


def _build_partial_smash(pa: PartialAction) -> SmashProduct:
    H, A = pa.hopf, pa.alg
    m, n = H.dim, A.dim
    field = pa.field
    full = build_full_smash(pa)
    N = full.dim
    terms = full.terms
    u = tensor_coords(pa, A.unit, H.unit)
    u_terms = _nonzero(u)

    image = Subspace._span(field, N, [_multiply_raw(terms, ((i, 1),), u_terms) for i in range(N)])
    rows = [_nonzero(r) for r in image.rows]
    d = image.dim
    carrier, in_carrier = _closed_subalgebra(
        full, image, _dense(u_terms, N), "carrier is not multiplicatively closed", [f"w{s}" for s in range(d)]
    )
    check_algebra(carrier).raise_if_failed("partial smash carrier axioms")

    # a # 1_H for the basis of A
    h_unit = _nonzero(H.unit)
    incl_rows = tuple(in_carrier(_dense(((j * m + i, c) for i, c in h_unit), N)) for j in range(n))
    include_A = AlgebraMap(A, carrier, Matrix._of_raw(field, incl_rows, d))
    if not include_A.is_injective():
        raise InvariantViolation("A does not embed in the partial smash product")
    if not include_A.is_multiplicative():
        raise InvariantViolation("A -> A#H is not an algebra map")

    # h_r* -> (a # h_i) = sum_p comul[i][p][r] a # h_p
    K = dual_hopf(H)
    coproducts = [[[] for _ in range(m)] for _ in range(m)]
    for i, parts in enumerate(_comul_terms(H)):
        for hp, hq, c in parts:
            coproducts[hq][i].append((hp, c))
    act = []
    for r in range(m):
        act_r = []
        for row in rows:
            out = [0] * N
            for idx, c in row:
                j, i = divmod(idx, m)
                for hp, x in coproducts[r][i]:
                    out[j * m + hp] += c * x
            act_r.append(in_carrier(out))
        act.append(act_r)
    dual_action = PartialAction(K, carrier, act)
    check_partial_action(dual_action).raise_if_failed("dual Hopf action axioms")
    if not is_global(dual_action):
        raise InvariantViolation("H* action on the partial smash product must be global")

    return SmashProduct(pa, full, carrier, image, include_A, u, dual_action)


def dual_hopf_action(sp: SmashProduct) -> PartialAction:
    """The global H*-action phi |> (a # h) = sum a # h1 phi(h2) on the carrier."""
    return sp.dual_action


def phi_ideal(sp: SmashProduct, I: Subspace) -> Subspace:
    """Phi(I) = I # H in carrier coordinates, for an H-stable ideal I of A."""
    pa = sp.pa
    if not is_ideal(pa.alg, I):
        raise NotAnIdeal("phi_ideal needs a two-sided ideal of A")
    if not is_h_stable(pa, I):
        raise NotHStable("phi_ideal needs an H-stable ideal")
    m = pa.hopf.dim
    vecs = [
        sp._project(tuple((j * m + i, c) for j, c in enumerate(x) if c))
        for x in I.rows
        for i in range(m)
    ]
    return Subspace._span(sp.field, sp.carrier.dim, vecs)


def psi_ideal(sp: SmashProduct, J: Subspace) -> Subspace:
    """Psi(J) = J intersect A pulled back to A, for an ideal J of the carrier."""
    if not is_ideal(sp.carrier, J):
        raise NotAnIdeal("psi_ideal needs a two-sided ideal of the carrier")
    incl = sp.include_A.matrix
    image_of_a = Subspace.from_vectors(sp.field, sp.carrier.dim, incl.rows)
    inter = J.intersect(image_of_a)
    back = []
    for w in inter.rows:
        a = incl.solve_left(w)
        if a is None:
            raise InvariantViolation("intersection escaped the image of A")
        back.append(a)
    result = Subspace.from_vectors(sp.field, sp.pa.alg.dim, back)
    if not (is_ideal(sp.pa.alg, result) and is_h_stable(sp.pa, result)):
        raise InvariantViolation("psi image must be an H-stable ideal of A")
    return result


def smash_quotient_map(sp: SmashProduct, I: Subspace) -> tuple[SmashProduct, AlgebraMap]:
    """Carrier of A #_par H onto the carrier of (A/I) #_par H, for H-stable I."""
    pa = sp.pa
    qpa, proj = quotient_action(pa, I)
    sq = build_partial_smash(qpa)
    m = pa.hopf.dim
    # e_j (x) h_i |-> proj(e_j) (x) h_i on A (x) H
    images = [_nonzero(r) for r in proj.matrix.rows]
    lift = [tuple((t * m + i, x) for t, x in images[j]) for j in range(pa.alg.dim) for i in range(m)]
    N = qpa.alg.dim * m
    rows = [sq.carrier_coords(_apply_raw(lift, _nonzero(r), N)) for r in sp.coords.rows]
    amap = AlgebraMap(sp.carrier, sq.carrier, Matrix._of_raw(sp.field, tuple(rows), sq.carrier.dim))
    if not amap.is_multiplicative():
        raise InvariantViolation("smash quotient map is not an algebra map")
    return sq, amap
