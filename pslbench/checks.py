"""Correctness checks for the JSON that `psl verify` and `psl radicals` print.

Nothing here calls into `psl`.  Radical bases are checked with the
benchmark's own exact arithmetic (`Fraction` over Q, ints mod p over F_p)
on structure constants that this module rebuilds from the workspace JSON:
group algebras, Sweedler's H4, products of fields, trivial actions and the
smash product (a # h)(b # g) = sum a (h1 . b) # h2 g.
"""

from __future__ import annotations

from fractions import Fraction

RADICAL_LABELS = ("J(A)", "P(A)", "J_H(A)", "P_H(A)", "J(A#H)", "P(A#H)")


class Arith:
    """Scalars of Q (p = 0) or F_p: parsing, normalisation and inverses."""

    def __init__(self, p: int):
        self.p = p

    def parse(self, text: str):
        return int(text) % self.p if self.p else Fraction(text)

    def norm(self, x):
        return x % self.p if self.p else x

    def inv(self, x):
        return pow(x, self.p - 2, self.p) if self.p else 1 / x


def field_arith(doc: dict) -> Arith:
    """The scalars of a workspace document's field."""
    field = doc["field"]
    return Arith(int(field["p"]) if field["kind"] == "Fp" else 0)


# ---------------------------------------------------------------------------
# spans

def rref(ar: Arith, vectors) -> list[tuple]:
    """Reduced row echelon basis of the span, rows ordered by pivot."""
    rows = [list(v) for v in vectors]
    basis: list[list] = []
    pivots: list[int] = []
    for row in rows:
        for b, c in zip(basis, pivots):
            if row[c]:
                f = row[c]
                row = [ar.norm(x - f * y) for x, y in zip(row, b)]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None:
            continue
        f = ar.inv(row[lead])
        row = [ar.norm(x * f) for x in row]
        for k, b in enumerate(basis):
            if b[lead]:
                g = b[lead]
                basis[k] = [ar.norm(x - g * y) for x, y in zip(b, row)]
        basis.append(row)
        pivots.append(lead)
    order = sorted(range(len(basis)), key=pivots.__getitem__)
    return [tuple(basis[i]) for i in order]


def rank(ar: Arith, vectors) -> int:
    return len(rref(ar, vectors))


def spans_equal(ar: Arith, u, v) -> bool:
    return rref(ar, u) == rref(ar, v)


def contained(ar: Arith, u, v) -> bool:
    """span(u) is inside span(v)."""
    return rank(ar, list(v) + list(u)) == rank(ar, v)


# ---------------------------------------------------------------------------
# algebras given by structure constants

class Alg:
    """Algebra with e_i e_j = sum_k mult[i][j][k] e_k."""

    def __init__(self, ar: Arith, mult, unit):
        self.ar = ar
        self.dim = len(mult)
        self.mult = mult
        self.unit = tuple(unit)

    def basis(self, i: int) -> tuple:
        return tuple(1 if k == i else 0 for k in range(self.dim))

    def mul(self, x, y) -> tuple:
        out = [0] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                c = xi * yj
                for k, m in enumerate(self.mult[i][j]):
                    if m:
                        out[k] += c * m
        return tuple(self.ar.norm(v) for v in out)


def is_two_sided_ideal(alg: Alg, gens, rows) -> bool:
    """span(rows) is closed under left and right products with span(gens)."""
    ar = alg.ar
    products = [alg.mul(g, r) for g in gens for r in rows]
    products += [alg.mul(r, g) for g in gens for r in rows]
    return contained(ar, products, rows)


def is_nilpotent(alg: Alg, rows) -> bool:
    """Some power I^k of I = span(rows) is zero."""
    ar = alg.ar
    power = rref(ar, rows)
    while power:
        nxt = rref(ar, [alg.mul(x, y) for x in power for y in rows])
        if len(nxt) == len(power):
            return False
        power = nxt
    return True


class Hopf:
    """Hopf algebra data the smash product needs: algebra, Delta, epsilon."""

    def __init__(self, alg: Alg, comul, counit):
        self.alg = alg
        self.comul = comul  # comul[i] = {(p, q): c} with Delta(h_i) = sum c h_p (x) h_q
        self.counit = tuple(counit)


def _unit_vec(n: int, i: int) -> tuple:
    return tuple(1 if k == i else 0 for k in range(n))


def group_table(spec: dict) -> list[list[int]]:
    if "cyclic" in spec:
        n = int(spec["cyclic"])
        return [[(i + j) % n for j in range(n)] for i in range(n)]
    return [list(row) for row in spec["cayley"]]


def group_algebra(ar: Arith, table) -> Hopf:
    n = len(table)
    identity = next(e for e in range(n) if table[e] == list(range(n)))
    mult = [[_unit_vec(n, table[i][j]) for j in range(n)] for i in range(n)]
    alg = Alg(ar, mult, _unit_vec(n, identity))
    return Hopf(alg, [{(i, i): 1} for i in range(n)], [1] * n)


def sweedler_h4(ar: Arith) -> Hopf:
    """Basis 1, g, x, gx with g^2 = 1, x^2 = 0, xg = -gx."""
    e = [_unit_vec(4, i) for i in range(4)]
    zero = (0,) * 4
    neg = lambda i: tuple(ar.norm(-c) for c in e[i])  # noqa: E731
    mult = [
        [e[0], e[1], e[2], e[3]],
        [e[1], e[0], e[3], e[2]],
        [e[2], neg(3), zero, zero],
        [e[3], neg(2), zero, zero],
    ]
    comul = [{(0, 0): 1}, {(1, 1): 1}, {(2, 0): 1, (1, 2): 1}, {(3, 1): 1, (0, 3): 1}]
    return Hopf(Alg(ar, mult, e[0]), comul, (1, 1, 0, 0))


def product_of_fields(ar: Arith, k: int) -> Alg:
    zero = (0,) * k
    mult = [[_unit_vec(k, i) if i == j else zero for j in range(k)] for i in range(k)]
    return Alg(ar, mult, (1,) * k)


class Smash:
    """A # H on A-block-major coordinates (index a * dim H + h) and its carrier.

    The carrier is the span of x (1_A # 1_H); its basis is the reduced row
    echelon basis, which is canonical, so carrier coordinates printed by
    `psl radicals` refer to these rows.
    """

    def __init__(self, A: Alg, H: Hopf, act):
        ar = A.ar
        self.A = A
        n, m = A.dim, H.alg.dim
        N = n * m
        mult = [[None] * N for _ in range(N)]
        for s in range(N):
            j, i = divmod(s, m)
            for t in range(N):
                k, g = divmod(t, m)
                out = [0] * N
                for (p, q), c in H.comul[i].items():
                    apart = A.mul(A.basis(j), act[p][k])
                    hpart = H.alg.mult[q][g]
                    for a, xa in enumerate(apart):
                        for h, xh in enumerate(hpart):
                            out[a * m + h] += c * xa * xh
                mult[s][t] = tuple(ar.norm(v) for v in out)
        u = [ar.norm(ca * ch) for ca in A.unit for ch in H.alg.unit]
        self.full = Alg(ar, mult, u)
        self.rows = rref(ar, [self.full.mul(self.full.basis(s), u) for s in range(N)])

    def from_carrier(self, coords) -> tuple:
        out = [0] * self.full.dim
        for c, row in zip(coords, self.rows):
            for idx, x in enumerate(row):
                out[idx] += c * x
        return tuple(self.full.ar.norm(v) for v in out)


def action_model(doc: dict, name: str) -> Smash | None:
    """Rebuild a workspace action's smash product from its JSON; None if not modelled.

    Only trivial actions h . a = eps(h) a are modelled.  The other builders
    in the benchmark's workspaces have all six radicals zero, and a zero
    radical needs no structure constants to check.
    """
    ar = field_arith(doc)
    spec = doc["actions"][name]
    if spec.get("builder") != "trivial":
        return None
    hspec = doc["hopf_algebras"][spec["hopf"]]
    if hspec["constructor"] == "group_algebra":
        H = group_algebra(ar, group_table(doc["groups"][hspec["group"]]))
    elif hspec["constructor"] == "sweedler_h4":
        H = sweedler_h4(ar)
    else:
        return None
    aspec = doc["algebras"][spec["algebra"]]
    if aspec["constructor"] == "product_of_fields":
        A = product_of_fields(ar, int(aspec["k"]))
    elif aspec["constructor"] == "group_algebra":
        A = group_algebra(ar, group_table(doc["groups"][aspec["group"]])).alg
    else:
        return None
    act = [
        [tuple(ar.norm(H.counit[i] * x) for x in A.basis(k)) for k in range(A.dim)]
        for i in range(H.alg.dim)
    ]
    return Smash(A, H, act)


# ---------------------------------------------------------------------------
# output checkers: each returns (problems, results); no problems means correct

def check_verify(theorem: str, payload) -> tuple[list[str], int]:
    """`psl verify THEOREM --output json`: a passing report with >= 1 check."""
    if not isinstance(payload, dict):
        return ["output is not a JSON object"], 0
    problems = []
    if payload.get("command") != "verify" or payload.get("theorem") != theorem:
        problems.append(f"report is for {payload.get('command')} {payload.get('theorem')}")
    checks = payload.get("checks")
    if not isinstance(checks, int) or checks < 1:
        problems.append(f"check count {checks!r} is not a positive integer")
        checks = 0
    if payload.get("ok") is not True:
        problems.append("report is not ok")
    if payload.get("failures"):
        problems.append(f"{len(payload['failures'])} failing cases, first {payload['failures'][0]}")
    lines = payload.get("lines") or [""]
    if not lines[0].endswith(f": PASS ({checks} checks)"):
        problems.append(f"summary line {lines[0]!r} disagrees with the report")
    return problems, (checks if not problems else 0)


def check_radicals(action: str, payload, expected, model: Smash | None,
                   ar: Arith) -> tuple[list[str], int]:
    """`psl radicals ACTION --output json` against the derived dimensions.

    expected holds the dims of J(A), P(A), J_H(A), P_H(A), J(A#H), P(A#H).
    Checks P = J on both levels, J_H inside J(A), and that every basis
    spans a two-sided nilpotent ideal of A or of the carrier of A # H.
    """
    if not isinstance(payload, dict):
        return ["output is not a JSON object"], 0
    if payload.get("command") != "radicals" or payload.get("action") != action:
        return [f"report is for {payload.get('command')} {payload.get('action')}"], 0
    radicals = payload.get("radicals", {})
    problems = []
    bases = {}
    for label, want in zip(RADICAL_LABELS, expected):
        entry = radicals.get(label)
        if entry is None:
            problems.append(f"{label} missing")
            continue
        rows = [tuple(ar.parse(x) for x in row) for row in entry["basis"]]
        if entry["dim"] != len(rows):
            problems.append(f"{label}: dim {entry['dim']} but {len(rows)} basis rows")
        if rank(ar, rows) != len(rows):
            problems.append(f"{label}: basis rows are dependent")
        if len(rows) != want:
            problems.append(f"{label}: dim {len(rows)}, expected {want}")
        bases[label] = rows
    if problems:
        return problems, 0
    for p_label, j_label in (("P(A)", "J(A)"), ("P_H(A)", "J_H(A)"), ("P(A#H)", "J(A#H)")):
        if not spans_equal(ar, bases[p_label], bases[j_label]):
            problems.append(f"{p_label} != {j_label}")
    if not contained(ar, bases["J_H(A)"], bases["J(A)"]):
        problems.append("J_H(A) is not inside J(A)")
    nonzero = [label for label in RADICAL_LABELS if bases[label]]
    if nonzero and model is None:
        problems.append(f"no structure constants to check {', '.join(nonzero)}")
        return problems, 0
    for label in nonzero:
        if label.endswith("(A#H)"):
            if any(len(r) != len(model.rows) for r in bases[label]):
                problems.append(f"{label}: vectors are not in carrier coordinates of dim {len(model.rows)}")
                continue
            alg, gens = model.full, model.rows
            rows = [model.from_carrier(r) for r in bases[label]]
        else:
            alg = model.A
            if any(len(r) != alg.dim for r in bases[label]):
                problems.append(f"{label}: vectors are not of length dim A = {alg.dim}")
                continue
            gens = [alg.basis(i) for i in range(alg.dim)]
            rows = bases[label]
        if not is_two_sided_ideal(alg, gens, rows):
            problems.append(f"{label} is not a two-sided ideal")
        elif not is_nilpotent(alg, rows):
            problems.append(f"{label} is not nilpotent")
    return problems, (len(RADICAL_LABELS) if not problems else 0)
