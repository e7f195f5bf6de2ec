"""The output checkers accept right answers and reject wrong ones.

    python3 -m pytest -q pslbench/test_checks.py
"""

import json

import pytest

from checks import action_model, check_radicals, check_verify, field_arith
from workloads import RADICAL_DIMS, WORKSPACES


def verify_payload(theorem="T4.26", checks=3, failures=()):
    ok = not failures
    return {
        "command": "verify",
        "theorem": theorem,
        "ok": ok,
        "checks": checks,
        "failures": [{"name": n, "detail": ""} for n in failures],
        "lines": [f"{theorem} x: {'PASS' if ok else 'FAIL'} ({checks} checks)"],
    }


def radicals_payload(action, a_rows=(), carrier_rows=(), jh_rows=None):
    jh_rows = a_rows if jh_rows is None else jh_rows
    rows = {
        "J(A)": a_rows, "P(A)": a_rows, "J_H(A)": jh_rows, "P_H(A)": jh_rows,
        "J(A#H)": carrier_rows, "P(A#H)": carrier_rows,
    }
    return {
        "command": "radicals",
        "action": action,
        "radicals": {
            label: {"dim": len(r), "basis": [[str(x) for x in row] for row in r]}
            for label, r in rows.items()
        },
    }


def run_check(ws_file, action, payload):
    doc = json.loads((WORKSPACES / ws_file).read_text())
    model = action_model(doc, action)
    return check_radicals(action, payload, RADICAL_DIMS[ws_file][action], model, field_arith(doc))


def test_verify_accepts_passing_report():
    assert check_verify("T4.26", verify_payload()) == ([], 3)


@pytest.mark.parametrize("payload", [
    verify_payload(failures=["random-3(F2): J_H*(A#H) = J_H(A)#H"]),
    verify_payload(checks=0),
    verify_payload(theorem="T4.14"),
    "not an object",
])
def test_verify_rejects(payload):
    problems, results = check_verify("T4.26", payload)
    assert problems and results == 0


def test_verify_rejects_summary_that_disagrees():
    payload = verify_payload()
    payload["lines"] = ["T4.26 x: PASS (2 checks)"]
    assert check_verify("T4.26", payload)[0]


# F_2 C_2 acting trivially on F_2: A # H = F_2 C_2 on the basis 1, g, with
# J = span(1 + g).  F_2 C_3 acting trivially on F_2 C_2: J(A) = span(1 + g)
# and J(A # H) = J(A) (x) F_2 C_3, in A-block-major coordinates.
C3_ON_F2C2 = [(1, 0, 0, 1, 0, 0), (0, 1, 0, 0, 1, 0), (0, 0, 1, 0, 0, 1)]
GOOD = [
    ("f2.json", "c2-on-f2", radicals_payload("c2-on-f2", carrier_rows=[(1, 1)])),
    ("f2.json", "c3-on-f2c2", radicals_payload("c3-on-f2c2", a_rows=[(1, 1)], carrier_rows=C3_ON_F2C2)),
    ("q.json", "triple", radicals_payload("triple")),
]


@pytest.mark.parametrize("ws_file,action,payload", GOOD)
def test_radicals_accepts_right_answer(ws_file, action, payload):
    assert run_check(ws_file, action, payload) == ([], 6)


def test_radicals_rejects_subspace_that_is_not_an_ideal():
    # span(1) has the expected dim 1, but g * 1 = g leaves it
    problems, _ = run_check("f2.json", "c2-on-f2", radicals_payload("c2-on-f2", carrier_rows=[(1, 0)]))
    assert problems == ["J(A#H) is not a two-sided ideal", "P(A#H) is not a two-sided ideal"]


def test_radicals_rejects_ideal_that_is_not_nilpotent():
    # H4 acting trivially on Q^2: the block e_1 (x) H4 is a 4-dim ideal holding an idempotent
    block = [tuple(1 if k == i else 0 for k in range(8)) for i in range(4)]
    problems, _ = run_check("q.json", "h4-on-q2", radicals_payload("h4-on-q2", carrier_rows=block))
    assert problems == ["J(A#H) is not nilpotent", "P(A#H) is not nilpotent"]


def test_radicals_rejects_wrong_dimension():
    problems, results = run_check("q.json", "sweedler-trivial", radicals_payload("sweedler-trivial"))
    assert problems == ["J(A#H): dim 0, expected 2", "P(A#H): dim 0, expected 2"]
    assert results == 0


def test_radicals_rejects_prime_radical_that_differs():
    payload = radicals_payload("c2-on-f2", carrier_rows=[(1, 1)])
    payload["radicals"]["P(A#H)"]["basis"] = [["0", "1"]]
    assert run_check("f2.json", "c2-on-f2", payload)[0][0] == "P(A#H) != J(A#H)"


def test_radicals_rejects_h_radical_outside_jacobson():
    payload = radicals_payload("c3-on-f2c2", a_rows=[(1, 1)], carrier_rows=C3_ON_F2C2, jh_rows=[(1, 0)])
    assert "J_H(A) is not inside J(A)" in run_check("f2.json", "c3-on-f2c2", payload)[0]
