"""Left integrals and Maschke's criterion against independent routes.

The system h_i Lambda = eps(h_i) Lambda is written from the public product of
basis vectors, and solved by sympy's null space over Q and by listing every
Lambda in F_p^dim over F_p.  `is_semisimple` is checked against Maschke's closed
forms (Larson-Sweedler): kG is semisimple iff p does not divide |G|, (kG)*
always is, and Sweedler's H_4 never is; each dual is isomorphic to one of these.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from psl.exactla import GF, QQ, Subspace
from psl.hopf import (
    GroupTable,
    dual_group_algebra,
    dual_hopf,
    group_algebra,
    is_semisimple,
    left_integrals,
    sweedler_h4,
)
from helpers import all_vectors
from test_lattice_oracle import span_set
from test_nonabelian import s3_table

FIELDS = (QQ, GF(2), GF(3), GF(5))


def hopf_algebras(field):
    """(label, H, whether H is semisimple by Maschke's closed forms), with the dual of each."""
    p = field.char
    found = []  # (label, H, H semisimple, its dual semisimple)
    for G, name in [(GroupTable.cyclic(n), f"C{n}") for n in range(1, 7)] + [(s3_table()[0], "S3")]:
        ss = p == 0 or G.order % p != 0
        found.append((f"k{name}", group_algebra(field, G), ss, True))
        found.append((f"(k{name})*", dual_group_algebra(field, G), True, ss))
    if p != 2:
        found.append(("H4", sweedler_h4(field), False, False))
    # the dual of kG is (kG)*, that of (kG)* is kG, and H_4 is self-dual
    return [(label, H, ss) for label, H, ss, _ in found] + [
        (f"dual {label}", dual_hopf(H), dual_ss) for label, H, _, dual_ss in found
    ]


def integral_system(H) -> list[list]:
    """Row (i, t): the coefficient of h_t in h_i Lambda - eps(h_i) Lambda, as a covector in Lambda."""
    A, m = H.alg, H.dim
    products = [[A.multiply(A.basis_vector(i), A.basis_vector(j)) for j in range(m)] for i in range(m)]
    return [
        [products[i][j][t] - (H.counit[i] if j == t else 0) for j in range(m)]
        for i in range(m)
        for t in range(m)
    ]


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_left_integrals_against_an_independent_solver(field):
    p = field.char
    for label, H, _ in hopf_algebras(field):
        system = integral_system(H)
        if p == 0:
            sym = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in system])
            basis = [[Fraction(int(x.p), int(x.q)) for x in v] for v in sym.nullspace()]
            assert left_integrals(H) == Subspace.from_vectors(QQ, H.dim, basis), label
        else:
            rows = {tuple(x % p for x in row) for row in system} - {(0,) * H.dim}
            solutions = {
                v for v in all_vectors(field, H.dim)
                if all(sum(c * x for c, x in zip(row, v)) % p == 0 for row in rows)
            }
            assert span_set(p, left_integrals(H).rows, H.dim) == solutions, label


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_is_semisimple_matches_maschke(field):
    for label, H, semisimple in hopf_algebras(field):
        assert is_semisimple(H) == semisimple, label
