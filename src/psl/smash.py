"""Smash products of a partial action: A # H and A #_par H = (A # H)(1_A # 1_H).

Tensor coordinates on A (x) H are A-block-major (index = a*dim_H + h), so
the embedded copy a # 1_H of A keeps its own coordinates inside each block.
The carrier of the partial smash product is the image of right
multiplication by 1_A # 1_H, with its RREF rows as basis; when A # H is
unital (a global action) that image is all of A (x) H and is not spanned.
Carrier coordinates stay in the sparse form of `Subspace._coords`
throughout the build; only `SmashProduct.project` makes them dense.  The
dual H*-action on the carrier is built, and its axioms checked, on first read
of `SmashProduct.dual_action`, so a command that never reads it pays for
neither.
"""

from __future__ import annotations

from typing import Sequence

from psl.algebra import (
    Algebra,
    AlgebraMap,
    InvariantViolation,
    NotAnIdeal,
    _cleared,
    _closed_subalgebra,
    _multiply_raw,
    check_algebra,
    is_ideal,
)
from psl.exactla import Matrix, Subspace, _canon, _coerce, _compact, _dense, _nonzero, preimage_under
from psl.hopf import dual_hopf
from psl.paction import (
    NotHStable,
    PartialAction,
    _comul_terms,
    check_partial_action,
    is_global,
    is_h_stable,
)


def tensor_coords(pa: PartialAction, avec: Sequence, hvec: Sequence) -> tuple:
    """Coordinates of a (x) h in A-block-major layout."""
    field = pa.field
    h = _coerce(field, hvec, pa.hopf.dim)
    return _canon([x * y for x in _coerce(field, avec, pa.alg.dim) for y in h], field.char)


def _summed(pairs, p: int) -> tuple:
    """The sum of sparse (k, x) pairs as its nonzero (k, c) in key order, in kernel form (`_compact`)."""
    acc = {}
    for k, x in pairs:
        acc[k] = acc.get(k, 0) + x
    keys = sorted(acc)
    return tuple((keys[s], c) for s, c in _compact([acc[k] for k in keys], p))


def build_full_smash(pa: PartialAction) -> Algebra:
    """A # H with (a#h)(b#g) = sum a(h1.b) # h2 g, with unit 1_A # 1_H exactly when `is_global(pa)`.

    (1 # 1)(b # g) = b # g always, and (a # h)(1 # 1) = a # h for all a, h
    iff h . 1_A = eps(h) 1_A; a wrong answer fails the carrier's right unit
    law in `build_partial_smash`.

    Delta(h_i)(1 (x) h_g) is formed once per pair (h_i, h_g), and each product
    is accumulated, sparse, over the nonzero terms of Delta(h_i)(1 (x) h_g) only.
    """
    H, A = pa.hopf, pa.alg
    m, n = H.dim, A.dim
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
    terms = [[None] * (n * m) for _ in range(n * m)]
    for i in range(m):
        for g in range(m):
            d = [((hp, u), c * x) for hp, hq, c in comul[i] for u, x in h_terms[hq][g]]  # Delta(h_i)(1 (x) h_g)
            d = d if len(d) == 1 else _summed(d, p)  # its nonzero terms ((r, u), c), for h_r (x) h_u
            move = d[0][0] if len(d) == 1 and d[0][1] == 1 else None  # one term with coefficient 1: entries only move
            for j in range(n):
                row = terms[j * m + i]
                for k in range(n):
                    parts = a_parts[j][k]
                    if move:
                        r, u = move
                        row[k * m + g] = tuple((t * m + u, xa) for t, xa in parts[r])
                    else:
                        row[k * m + g] = _summed(((t * m + u, c * xa) for (r, u), c in d for t, xa in parts[r]), p)
    terms = tuple(map(tuple, terms))
    labels = tuple(f"{A.labels[j]}#{H.alg.labels[i]}" for j in range(n) for i in range(m))
    unit = tensor_coords(pa, A.unit, H.unit) if is_global(pa) else None
    return Algebra._of_terms(field, terms, unit, labels)


class SmashProduct:
    """The unital partial smash product with its carrier data.

    `dual_action` is the global H*-action phi |> (a # h) = sum a # h1 phi(h2) on the carrier,
    built and checked on first read and kept.
    """

    # `_dual` holds the dual action once `dual_action` has built it
    __slots__ = ("pa", "full", "carrier", "coords", "include_A", "unit_element", "_unit_terms", "_dual")

    def __init__(self, pa, full, carrier, coords, include_A, unit_element):
        self.pa = pa
        self.full = full
        self.carrier = carrier
        self.coords = coords
        self.include_A = include_A
        self.unit_element = unit_element
        self._unit_terms = _nonzero(unit_element)
        self._dual = None

    @property
    def field(self):
        return self.pa.field

    @property
    def dual_action(self) -> PartialAction:
        if self._dual is None:
            self._dual = _build_dual_action(self)
        return self._dual

    def __repr__(self):
        return (
            f"SmashProduct(A dim {self.pa.alg.dim} # H dim {self.pa.hopf.dim}: "
            f"full {self.full.dim}, carrier {self.carrier.dim})"
        )

    def project(self, tensor_vec: Sequence) -> tuple:
        """(x)(1_A # 1_H) in carrier coordinates, for any x in A # H."""
        c = self._project(_nonzero(_coerce(self.field, tensor_vec, self.full.dim)))
        return tuple(_dense(c, self.carrier.dim))

    def _project(self, x: tuple) -> tuple:
        """project() of a sparse tensor vector, as the sparse coordinates of `Subspace._coords`."""
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
    p = field.char
    full = build_full_smash(pa)
    N = full.dim
    u = full.unit if full.unit is not None else tensor_coords(pa, A.unit, H.unit)  # 1_A # 1_H
    u_terms = _nonzero(u)

    if full.unit is not None:
        # a global action: x u = x for every x, so the carrier is A (x) H
        image = Subspace.full_space(field, N)
    else:  # x u and x (D u) span the same image, and D u is integral (`_cleared`)
        du = _cleared((u_terms,), p)[1][0]
        image = Subspace._span(field, N, [_multiply_raw(full.terms, ((i, 1),), du) for i in range(N)])
    d = image.dim
    carrier, in_carrier = _closed_subalgebra(
        full, image, _dense(u_terms, N), "carrier is not multiplicatively closed", [f"w{s}" for s in range(d)]
    )
    check_algebra(carrier).raise_if_failed("partial smash carrier axioms")

    # a # 1_H for the basis of A
    h_unit = _nonzero(H.unit)
    incl = [in_carrier(_dense(((j * m + i, c) for i, c in h_unit), N)) for j in range(n)]
    include_A = AlgebraMap(A, carrier, Matrix._of_raw(field, tuple(tuple(_dense(c, d)) for c in incl), d))
    if not include_A.is_injective():
        raise InvariantViolation("A does not embed in the partial smash product")
    if not include_A.is_multiplicative():
        raise InvariantViolation("A -> A#H is not an algebra map")

    return SmashProduct(pa, full, carrier, image, include_A, u)


def _build_dual_action(sp: SmashProduct) -> PartialAction:
    """The dual action of `sp`, checked: its axioms hold and it is global."""
    H, image = sp.pa.hopf, sp.coords
    m, N = H.dim, sp.full.dim
    # h_r* -> (a # h_i) = sum_p comul[i][p][r] a # h_p
    coproducts = [[[] for _ in range(m)] for _ in range(m)]
    for i, parts in enumerate(_comul_terms(H)):
        for hp, hq, c in parts:
            coproducts[hq][i].append((hp, c))
    act = []
    for r in range(m):
        act_r = []
        for row in image._sparse_rows():
            out = [0] * N
            for idx, c in row:
                j, i = divmod(idx, m)
                for hp, x in coproducts[r][i]:
                    out[j * m + hp] += c * x
            coords = image._coords(out)
            if coords is None:
                raise InvariantViolation("carrier is not multiplicatively closed")
            act_r.append(coords)
        act.append(tuple(act_r))
    dual_action = PartialAction._of_terms(dual_hopf(H), sp.carrier, tuple(act))
    check_partial_action(dual_action).raise_if_failed("dual Hopf action axioms")
    if not is_global(dual_action):
        raise InvariantViolation("H* action on the partial smash product must be global")
    return dual_action


def phi_ideal(sp: SmashProduct, I: Subspace) -> Subspace:
    """Phi(I) = I # H in carrier coordinates, for an H-stable ideal I of A."""
    pa = sp.pa
    if not is_ideal(pa.alg, I):
        raise NotAnIdeal("phi_ideal needs a two-sided ideal of A")
    if not is_h_stable(pa, I):
        raise NotHStable("phi_ideal needs an H-stable ideal")
    m = pa.hopf.dim
    vecs = [
        _dense(sp._project(tuple((j * m + i, c) for j, c in enumerate(x) if c)), sp.carrier.dim)
        for x in I.rows
        for i in range(m)
    ]
    return Subspace._span(sp.field, sp.carrier.dim, vecs)


def psi_ideal(sp: SmashProduct, J: Subspace) -> Subspace:
    """Psi(J) = {a : a # 1_H in J} for an ideal J of the carrier: J intersect A pulled back
    along the injective inclusion, as one left kernel."""
    if not is_ideal(sp.carrier, J):
        raise NotAnIdeal("psi_ideal needs a two-sided ideal of the carrier")
    result = preimage_under(sp.include_A.matrix, J)
    if not (is_ideal(sp.pa.alg, result) and is_h_stable(sp.pa, result)):
        raise InvariantViolation("psi image must be an H-stable ideal of A")
    return result
