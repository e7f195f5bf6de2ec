"""Workspace loading and the psl command-line front end."""

import json
from pathlib import Path

import pytest

from helpers import dense_act
from psl import algebra, cli, hopf, paction, workspace
from psl.cli import main
from psl.exactla import QQ
from psl.hopf import MAX_GROUP_ORDER, GroupTable, GroupTooLarge
from psl.paction import c4_triple
from psl.workspace import (
    ParseError,
    UnresolvedReference,
    WorkspaceAxiomError,
    load_workspace,
)

SAMPLE = Path(__file__).resolve().parent.parent / "workspaces" / "sample.json"


def fp_workspace(tmp_path, extra_actions=None):
    doc = {
        "version": "psl-workspace/1",
        "field": {"kind": "Fp", "p": 2},
        "groups": {"C2": {"cyclic": 2}},
        "hopf_algebras": {"F2C2": {"constructor": "group_algebra", "group": "C2"}},
        "algebras": {
            "F2": {"constructor": "product_of_fields", "k": 1},
            "F2C2alg": {"constructor": "group_algebra", "group": "C2"},
        },
        "actions": {
            "fixD": {"builder": "trivial", "hopf": "F2C2", "algebra": "F2"},
            "self": {"builder": "trivial", "hopf": "F2C2", "algebra": "F2C2alg"},
        },
    }
    if extra_actions:
        doc["actions"].update(extra_actions)
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    return path


def test_load_sample_workspace():
    ws = load_workspace(str(SAMPLE))
    assert ws.field == QQ
    assert set(ws.actions) == {"triple", "corner", "trivial4", "sweedler-trivial"}
    assert dense_act(ws.actions["triple"]) == dense_act(c4_triple(QQ))
    assert ws.ideals["e1-line"].dim == 1


def test_load_rejects_bad_version(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"version": "nope", "field": {"kind": "Q"}}))
    with pytest.raises(ParseError):
        load_workspace(str(path))


def test_load_rejects_unresolved_reference(tmp_path):
    doc = {
        "version": "psl-workspace/1",
        "field": {"kind": "Q"},
        "actions": {"a": {"builder": "trivial", "hopf": "missing", "algebra": "missing"}},
    }
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(UnresolvedReference):
        load_workspace(str(path))


def test_explicit_action_tensor_checked_on_load(tmp_path):
    pa = c4_triple(QQ)
    good_act = [
        [[str(x) for x in vec] for vec in row] for row in dense_act(pa)
    ]
    doc = {
        "version": "psl-workspace/1",
        "field": {"kind": "Q"},
        "groups": {"C4": {"cyclic": 4}},
        "hopf_algebras": {"H": {"constructor": "group_algebra", "group": "C4"}},
        "algebras": {"A": {"constructor": "product_of_fields", "k": 3}},
        "actions": {"explicit": {"hopf": "H", "algebra": "A", "act": good_act}},
    }
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    ws = load_workspace(str(path))
    assert dense_act(ws.actions["explicit"]) == dense_act(pa)

    doc["actions"]["explicit"]["act"][1][0] = ["1", "0", "0"]  # corrupt g . e1
    path.write_text(json.dumps(doc))
    with pytest.raises(WorkspaceAxiomError):
        load_workspace(str(path))


def test_cli_check_pass(capsys):
    assert main(["check", "--workspace", str(SAMPLE), "triple"]) == 0
    out = capsys.readouterr().out
    assert "pass" in out


def test_cli_check_corrupted_exits_one(tmp_path, capsys):
    pa = c4_triple(QQ)
    act = [[[str(x) for x in vec] for vec in row] for row in dense_act(pa)]
    act[1][0] = ["1", "0", "0"]
    doc = {
        "version": "psl-workspace/1",
        "field": {"kind": "Q"},
        "groups": {"C4": {"cyclic": 4}},
        "hopf_algebras": {"H": {"constructor": "group_algebra", "group": "C4"}},
        "algebras": {"A": {"constructor": "product_of_fields", "k": 3}},
        "actions": {"bad": {"hopf": "H", "algebra": "A", "act": act}},
    }
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--workspace", str(path), "bad"]) == 1
    out = capsys.readouterr().out
    assert "witness" in out and "PA" in out


def test_cli_check_unknown_name_exits_two(capsys):
    assert main(["check", "--workspace", str(SAMPLE), "nonsense"]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_smash_dims(capsys):
    assert main(["smash", "--workspace", str(SAMPLE), "corner"]) == 0
    assert "full 2, partial 1" in capsys.readouterr().out
    assert main(["smash", "--workspace", str(SAMPLE), "triple"]) == 0
    assert "full 12, partial 9" in capsys.readouterr().out


def test_cli_smash_trivial_q1(tmp_path, capsys):
    doc = {
        "version": "psl-workspace/1",
        "field": {"kind": "Q"},
        "groups": {"C2": {"cyclic": 2}},
        "hopf_algebras": {"H": {"constructor": "group_algebra", "group": "C2"}},
        "algebras": {"A": {"constructor": "product_of_fields", "k": 1}},
        "actions": {"t": {"builder": "trivial", "hopf": "H", "algebra": "A"}},
    }
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    assert main(["smash", "--workspace", str(path), "t"]) == 0
    assert "full 2, partial 2" in capsys.readouterr().out


def test_cli_radicals_fix_b_zeros(capsys):
    assert main(["radicals", "--workspace", str(SAMPLE), "triple"]) == 0
    out = capsys.readouterr().out
    for label in ("J(A)", "P(A)", "J_H(A)", "P_H(A)", "J(A#H)", "P(A#H)"):
        assert f"{label}: dim 0" in out


def test_cli_radicals_fix_d(tmp_path, capsys):
    path = fp_workspace(tmp_path)
    assert main(["radicals", "--workspace", str(path), "fixD"]) == 0
    out = capsys.readouterr().out
    assert "J(A): dim 0" in out
    assert "J(A#H): dim 1" in out


def test_cli_radicals_trivial_self_action(tmp_path, capsys):
    path = fp_workspace(tmp_path)
    assert main(["radicals", "--workspace", str(path), "self"]) == 0
    out = capsys.readouterr().out
    assert "J(A): dim 1" in out
    assert "J_H(A): dim 1" in out


def test_cli_enumerate_ideals(tmp_path, capsys):
    path = fp_workspace(tmp_path)
    assert main(["enumerate-ideals", "--workspace", str(path), "self"]) == 0
    out = capsys.readouterr().out
    assert "H-stable ideals" in out


def trivial_workspace(tmp_path, p, k, group_order=1):
    """kC_n acting trivially on the product of k copies of F_p."""
    doc = {
        "version": "psl-workspace/1",
        "field": {"kind": "Fp", "p": p},
        "groups": {"G": {"cyclic": group_order}},
        "hopf_algebras": {"kG": {"constructor": "group_algebra", "group": "G"}},
        "algebras": {"A": {"constructor": "product_of_fields", "k": k}},
        "actions": {"triv": {"builder": "trivial", "hopf": "kG", "algebra": "A"}},
    }
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    return path


# (p, k, caps): raised caps that let F_p^k pass the enumeration budget of 2^17 lines
OVER_BUDGET = [
    (13, 6, ["--dim-cap", "6", "--field-cap", "13"]),  # (13^6 - 1) / 12 = 402234 lines
    (2, 20, ["--dim-cap", "20"]),  # 2^20 - 1 = 1048575 lines
]


@pytest.mark.parametrize("p, k, caps", OVER_BUDGET)
def test_cli_enumerate_ideals_over_budget_exits_2(tmp_path, capsys, p, k, caps):
    path = trivial_workspace(tmp_path, p, k)
    assert main(["enumerate-ideals", "--workspace", str(path), "triv", *caps]) == 2
    err = capsys.readouterr().err
    assert "projective space too large" in err and "Traceback" not in err


@pytest.mark.parametrize("p, k, caps", OVER_BUDGET)
def test_cli_verify_over_budget_takes_the_non_enumerating_route(tmp_path, capsys, p, k, caps):
    path = trivial_workspace(tmp_path, p, k)
    for theorem in ("P4.22", "T3.6", "C3.7", "C4.13"):
        assert main(["verify", theorem, "--trials", "0", "--workspace", str(path), *caps]) == 0
    capsys.readouterr()


def test_cli_verify_c37_carrier_over_budget(tmp_path, capsys):
    # A = F_13^4 enumerates (2380 lines), but a carrier of dim up to 8 over F_13 would not
    path = trivial_workspace(tmp_path, 13, 4, group_order=2)
    assert main(["verify", "C3.7", "--trials", "0", "--workspace", str(path), "--field-cap", "13"]) == 0
    capsys.readouterr()


def test_cli_large_prime_field(tmp_path, capsys):
    path = tmp_path / "ws.json"
    doc = json.loads(trivial_workspace(tmp_path, 2**61 - 1, 2, group_order=2).read_text())
    for command in ("radicals", "smash", "check"):
        assert main([command, "--workspace", str(path), "triv"]) == 0
    capsys.readouterr()
    doc["field"]["p"] = 2**89 - 1  # prime, but past the exact range of the primality test
    path.write_text(json.dumps(doc))
    assert main(["radicals", "--workspace", str(path), "triv"]) == 2
    assert f"GF({2**89 - 1})" in capsys.readouterr().err


def test_cli_verify_pass_and_unknown(capsys):
    assert main(["verify", "NEG-SS"]) == 0
    capsys.readouterr()
    assert main(["verify", "T9.99"]) == 2
    assert "unknown theorem" in capsys.readouterr().err


def test_cli_verify_deterministic_under_seed(capsys):
    assert main(["verify", "T4.26", "--trials", "6", "--seed", "5", "--output", "json"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "T4.26", "--trials", "6", "--seed", "5", "--output", "json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["ok"] is True


def test_cli_verify_with_workspace(capsys):
    assert main(["verify", "T4.26", "--trials", "2", "--workspace", str(SAMPLE)]) == 0
    out = capsys.readouterr().out
    assert "workspace:triple" in out or "PASS" in out


def test_cli_verify_neg_ss_on_sweedler_workspace(capsys):
    assert main(["verify", "NEG-SS", "--workspace", str(SAMPLE)]) == 0
    capsys.readouterr()


def test_workspace_modules_section(tmp_path):
    # A itself as a right partial module over the trivial QC2-action on Q^2:
    # m <| h = eps(h) m, checked on load
    a_act = [
        [["1", "0"], ["0", "0"]],
        [["0", "0"], ["0", "1"]],
    ]
    h_act = [
        [["1", "0"], ["0", "1"]],
        [["1", "0"], ["0", "1"]],
    ]
    doc = {
        "version": "psl-workspace/1",
        "field": {"kind": "Q"},
        "groups": {"C2": {"cyclic": 2}},
        "hopf_algebras": {"H": {"constructor": "group_algebra", "group": "C2"}},
        "algebras": {"A": {"constructor": "product_of_fields", "k": 2}},
        "actions": {"t": {"builder": "trivial", "hopf": "H", "algebra": "A"}},
        "modules": {
            "reg": {"action": "t", "side": "right", "dim": 2, "a_act": a_act, "h_act": h_act}
        },
    }
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    ws = load_workspace(str(path))
    assert ws.modules["reg"].dim == 2
    assert main(["check", "--workspace", str(path), "reg"]) == 0

    # corrupting the H-action must be caught on load by other commands
    doc["modules"]["reg"]["h_act"][1] = [["0", "1"], ["1", "0"]]
    path.write_text(json.dumps(doc))
    with pytest.raises(WorkspaceAxiomError):
        load_workspace(str(path))
    assert main(["check", "--workspace", str(path), "reg"]) == 1


def test_cli_check_other_kinds(capsys):
    assert main(["check", "--workspace", str(SAMPLE), "QC4"]) == 0
    assert main(["check", "--workspace", str(SAMPLE), "Q3"]) == 0
    assert main(["check", "--workspace", str(SAMPLE), "C4"]) == 0
    assert main(["check", "--workspace", str(SAMPLE), "e1-line"]) == 0
    capsys.readouterr()


def test_cli_json_output_shape(capsys):
    assert main(["radicals", "--workspace", str(SAMPLE), "triple", "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["radicals"]["J(A#H)"]["dim"] == 0
    assert payload["command"] == "radicals"


def test_cli_radicals_reports_both_methods(tmp_path, capsys):
    # A = F_3^2 has dim < 3, its 6-dim carrier under trivial F_3 C_3 does not
    doc = {
        "version": "psl-workspace/1",
        "field": {"kind": "Fp", "p": 3},
        "groups": {"C3": {"cyclic": 3}},
        "hopf_algebras": {"H": {"constructor": "group_algebra", "group": "C3"}},
        "algebras": {"A": {"constructor": "product_of_fields", "k": 2}},
        "actions": {"t": {"builder": "trivial", "hopf": "H", "algebra": "A"}},
    }
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    assert main(["radicals", "--workspace", str(path), "t", "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["method"] == "trace-form"
    assert payload["carrier_method"] == "cohen-ivanyos-wales"
    assert payload["radicals"]["J(A#H)"]["dim"] == 4


def test_cli_radicals_non_normal_subgroup_exits_two(tmp_path, capsys):
    doc = {
        "version": "psl-workspace/1",
        "field": {"kind": "Q"},
        "groups": {
            "S3": {
                "cayley": [[0, 1, 2, 3, 4, 5], [1, 2, 0, 5, 3, 4], [2, 0, 1, 4, 5, 3],
                           [3, 4, 5, 0, 1, 2], [4, 5, 3, 2, 0, 1], [5, 3, 4, 1, 2, 0]],
            }
        },
        "actions": {"bad": {"builder": "dual_group_idempotent", "group": "S3", "subgroup": [0, 3]}},
    }
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    assert main(["radicals", "--workspace", str(path), "bad"]) == 2
    captured = capsys.readouterr()
    assert "action 'bad'" in captured.err and "normal subgroup" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_cli_verify_c3_7_seed_1_passes(capsys):
    # random instances with dim A above the cap are left out, not enumerated
    assert main(["verify", "C3.7", "--seed", "1"]) == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize("vector, message", [
    (["1/0", "0", "0"], "ZeroDivisionError"),
    (["1", "0"], "AmbientMismatch: vector length 2 != 3"),
])
def test_cli_malformed_ideal_vector_exits_two(tmp_path, capsys, vector, message):
    doc = json.loads(SAMPLE.read_text())
    doc["ideals"]["e1-line"]["vectors"] = [vector]
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    assert main(["radicals", "--workspace", str(path), "triple"]) == 2
    captured = capsys.readouterr()
    assert "ideal 'e1-line'" in captured.err and message in captured.err
    assert "Traceback" not in captured.err + captured.out


def _no_group(doc):
    del doc["hopf_algebras"]["QC4"]["group"]


@pytest.mark.parametrize("mutate, message", [
    (lambda doc: doc.update(field="x"), "bad field spec"),
    (lambda doc: doc.update(actions="x"), "'actions' must be an object"),
    (lambda doc: doc["groups"].update(C2={"cyclic": 0}), "group 'C2'"),
    (lambda doc: doc["algebras"]["Q3"].update(k="x"), "algebra 'Q3'"),
    (_no_group, "hopf algebra 'QC4': missing 'group'"),
], ids=["field", "section", "group-order", "algebra-k", "hopf-group"])
def test_cli_malformed_workspace_exits_two(tmp_path, capsys, mutate, message):
    doc = json.loads(SAMPLE.read_text())
    mutate(doc)
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_workspace(str(path))
    assert main(["radicals", "--workspace", str(path), "triple"]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err + captured.out


def _with_bad_action(entry, field=None, groups=None):
    def mutate(doc):
        doc["actions"]["bad"] = entry
        if field is not None:
            doc["field"] = field
        doc["groups"].update(groups or {})
    return mutate


S3_TABLE = {"cayley": [[0, 1, 2, 3, 4, 5], [1, 2, 0, 5, 3, 4], [2, 0, 1, 4, 5, 3],
                       [3, 4, 5, 0, 1, 2], [4, 5, 3, 2, 0, 1], [5, 3, 4, 1, 2, 0]]}


@pytest.mark.parametrize("mutate, message", [
    (_with_bad_action({"builder": "dual_group_idempotent", "group": "S3", "subgroup": [0, 3]},
                      groups={"S3": S3_TABLE}), "is not a normal subgroup"),
    (_with_bad_action({"builder": "dual_group_idempotent", "group": "C3", "subgroup": [0, 1, 2]},
                      field={"kind": "Fp", "p": 3}, groups={"C3": {"cyclic": 3}}),
     "char 3 divides |N| = 3"),
    (_with_bad_action({"builder": "dual_group_idempotent", "group": "C2", "subgroup": [0, 7]}),
     "is not a normal subgroup"),
    (_with_bad_action({"builder": "dual_group_idempotent", "subgroup": [0]}), "missing 'group'"),
    (_with_bad_action({"builder": "dual_group_idempotent", "group": "C2"}), "missing 'subgroup'"),
    (_with_bad_action({"builder": "dual_group_idempotent", "group": "C9", "subgroup": [0]}),
     "group 'C9' not defined"),
    (_with_bad_action({"builder": "nope"}), "unknown builder 'nope'"),
    (_with_bad_action({"builder": "trivial", "hopf": "nope", "algebra": "Q3"}),
     "unknown hopf/algebra reference"),
    (_with_bad_action({"builder": "trivial", "hopf": "QC4", "algebra": "nope"}),
     "unknown hopf/algebra reference"),
], ids=["non-normal", "char-divides", "out-of-range", "no-group", "no-subgroup", "unknown-group",
        "unknown-builder", "unresolved-hopf", "unresolved-algebra"])
def test_cli_malformed_builder_exits_two_for_other_action(tmp_path, capsys, mutate, message):
    # builder parameters are checked on load, though only the named action is built
    doc = json.loads(SAMPLE.read_text())
    mutate(doc)
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    for command in ("radicals", "smash", "check"):
        assert main([command, "--workspace", str(path), "triple"]) == 2
        captured = capsys.readouterr()
        assert "action 'bad'" in captured.err and message in captured.err
        assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("mutate, action, line", [
    (None, "nosuch", "error: no action named 'nosuch' in the workspace"),
    (_with_bad_action({"builder": "dual_group_idempotent", "group": "C9", "subgroup": [0]}),
     "triple", "error: action 'bad': group 'C9' not defined"),
], ids=["unknown-action", "entry-prefixed"])
def test_cli_unresolved_reference_prints_its_message_unquoted(tmp_path, capsys, mutate, action, line):
    # UnresolvedReference is a KeyError, whose str() would put the message in quotes
    doc = json.loads(SAMPLE.read_text())
    if mutate is not None:
        mutate(doc)
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    assert main(["radicals", "--workspace", str(path), action]) == 2
    captured = capsys.readouterr()
    assert captured.err == line + "\n"
    assert captured.out == ""


def test_cli_reused_grammar_answers_as_a_fresh_one(monkeypatch, tmp_path, capsys):
    # valid commands interleaved with every kind of usage error, run through the
    # grammar main keeps and through a new build_parser() per call
    valid = ["radicals", "--workspace", str(SAMPLE), "triple", "--output", "json"]
    f2 = str(fp_workspace(tmp_path))
    calls = [
        valid,
        ["verify"],
        ["check", "--workspace", str(SAMPLE), "triple"],
        ["verify", "T4.26", "--trials", "-1"],
        ["enumerate-ideals", "--workspace", f2, "self", "--dim-cap", "0"],
        ["smash", "--workspace", str(SAMPLE), "corner"],
        ["radicals", "triple"],
        ["enumerate-ideals", "--workspace", f2, "self"],
        ["nosuch"],
        ["--help"],
        ["verify", "--help"],
        valid,
    ]

    def run_all():
        results = []
        for argv in calls:
            code = main(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        return results

    kept = run_all()
    monkeypatch.setattr(cli, "_grammar", cli.build_parser)
    fresh = run_all()
    assert kept == fresh
    assert [code for code, _, _ in kept] == [0, 2, 0, 2, 2, 0, 2, 0, 2, 0, 0, 0]
    assert kept[-1] == kept[0]
    # text output after a JSON call: no option value outlives its call
    assert kept[2][1] == "check triple (action): pass\n"
    assert kept[5][1].startswith("smash corner: full 2, partial 1\n")
    assert "the following arguments are required: theorem" in kept[1][2]
    assert "must be at least 0, got -1" in kept[3][2]
    assert "must be at least 1, got 0" in kept[4][2]
    assert "the following arguments are required: --workspace" in kept[6][2]
    assert "invalid choice: 'nosuch'" in kept[8][2]
    assert kept[9][1].startswith("usage: psl ") and kept[10][1].startswith("usage: psl verify ")


BENCH_WORKSPACES = Path(__file__).resolve().parent.parent / "pslbench" / "workspaces"


@pytest.fixture
def build_counts(monkeypatch):
    """Count the calls of the action builders and of the action checker."""
    counts = dict.fromkeys(("dual_group_idempotent", "c4_triple", "check_partial_action"), 0)
    for name in counts:
        original = getattr(paction, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(paction, name, counted)
        if hasattr(workspace, name):
            monkeypatch.setattr(workspace, name, counted)
    return counts


def test_cli_builds_only_the_named_action(build_counts, capsys):
    assert main(["radicals", "--workspace", str(BENCH_WORKSPACES / "q.json"), "triple"]) == 0
    capsys.readouterr()
    assert build_counts == {"dual_group_idempotent": 0, "c4_triple": 1, "check_partial_action": 1}


def test_cli_builds_the_action_on_every_call(build_counts, capsys):
    # nothing built by one command is kept for the next
    path = str(BENCH_WORKSPACES / "q.json")
    assert main(["radicals", "--workspace", path, "corner"]) == 0
    assert main(["radicals", "--workspace", path, "corner"]) == 0
    capsys.readouterr()
    assert build_counts["dual_group_idempotent"] == 2
    assert build_counts["c4_triple"] == 0


def test_workspace_builds_each_action_once(build_counts):
    ws = load_workspace(str(BENCH_WORKSPACES / "q.json"))
    assert build_counts["dual_group_idempotent"] == 0
    assert list(ws.actions)[:2] == ["triple", "corner"]
    assert "corner" in ws.actions and "nope" not in ws.actions
    assert build_counts["dual_group_idempotent"] == 0
    assert ws.actions["corner"] is ws.actions["corner"]
    assert ws.action("corner") is ws.actions["corner"]
    assert build_counts["dual_group_idempotent"] == 1
    assert len(dict(ws.actions.items())) == len(ws.actions) == 11
    assert build_counts["dual_group_idempotent"] == 4
    assert build_counts["c4_triple"] == 1


@pytest.mark.parametrize("path", [
    SAMPLE, BENCH_WORKSPACES / "q.json", BENCH_WORKSPACES / "f2.json", BENCH_WORKSPACES / "f3.json",
], ids=lambda p: p.name)
def test_cli_check_every_named_object(path, capsys):
    doc = json.loads(path.read_text())
    for section in ("groups", "hopf_algebras", "algebras", "actions", "ideals", "modules"):
        for name in doc.get(section, {}):
            assert main(["check", "--workspace", str(path), name]) == 0, name
    capsys.readouterr()


def explicit_doc():
    """QC2 written out as an explicit Hopf algebra acting trivially on Q^2, with an ideal
    and the regular right partial module of the action."""
    return {
        "version": "psl-workspace/1",
        "field": {"kind": "Q"},
        "hopf_algebras": {"H": {
            "mult": [[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]],
            "unit": ["1", "0"],
            "comul": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
            "counit": ["1", "1"],
            "antipode": [["1", "0"], ["0", "1"]],
        }},
        "algebras": {"A": {
            "mult": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
            "unit": ["1", "1"],
        }},
        "actions": {"t": {"hopf": "H", "algebra": "A",
                          "act": [[["1", "0"], ["0", "1"]], [["1", "0"], ["0", "1"]]]}},
        "ideals": {"I": {"action": "t", "vectors": [["1", "0"]]}},
        "modules": {"reg": {
            "action": "t", "side": "right", "dim": 2,
            "a_act": [[["1", "0"], ["0", "0"]], [["0", "0"], ["0", "1"]]],
            "h_act": [[["1", "0"], ["0", "1"]], [["1", "0"], ["0", "1"]]],
        }},
    }


TENSORS = {
    "act": (("actions", "t", "act"), "action 't'"),
    "comul": (("hopf_algebras", "H", "comul"), "hopf algebra 'H'"),
    "a_act": (("modules", "reg", "a_act"), "module 'reg'"),
    "h_act": (("modules", "reg", "h_act"), "module 'reg'"),
}


def test_explicit_doc_loads(tmp_path):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(explicit_doc()))
    ws = load_workspace(str(path))
    assert ws.modules["reg"].dim == 2 and ws.ideals["I"].dim == 1
    assert main(["radicals", "--workspace", str(path), "t"]) == 0


@pytest.mark.parametrize("tensor", sorted(TENSORS))
@pytest.mark.parametrize("length", ["short", "long"])
def test_cli_tensor_of_wrong_length_exits_two(tmp_path, capsys, tensor, length):
    # a short tensor is not indexed out of range, a long one is not truncated
    doc = explicit_doc()
    (section, name, key), entry = TENSORS[tensor]
    t = doc[section][name][key]
    if length == "short":
        t.pop()
    else:
        t.append(t[0])
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    assert main(["radicals", "--workspace", str(path), "t"]) == 2
    captured = capsys.readouterr()
    assert entry in captured.err and "DimensionMismatch" in captured.err
    assert "Traceback" not in captured.err + captured.out


def _string_at(section, name, key, i, j):
    def mutate(doc):
        doc[section][name][key][i][j] = "10"
    return mutate


@pytest.mark.parametrize("mutate, entry", [
    (lambda doc: doc["algebras"]["A"].update(unit="10"), "algebra 'A'"),
    (lambda doc: doc["hopf_algebras"]["H"].update(counit="11"), "hopf algebra 'H'"),
    (lambda doc: doc["ideals"]["I"].update(vectors=["10"]), "ideal 'I'"),
    (lambda doc: doc["hopf_algebras"]["H"].update(antipode=["10", "01"]), "hopf algebra 'H'"),
    (_string_at("actions", "t", "act", 1, 0), "action 't'"),
    (_string_at("hopf_algebras", "H", "comul", 0, 0), "hopf algebra 'H'"),
    (_string_at("modules", "reg", "a_act", 0, 0), "module 'reg'"),
    (_string_at("modules", "reg", "h_act", 1, 1), "module 'reg'"),
], ids=["unit", "counit", "ideal", "antipode", "act", "comul", "a_act", "h_act"])
def test_cli_string_for_vector_exits_two(tmp_path, capsys, mutate, entry):
    # "10" is not read as the vector (1, 0)
    doc = explicit_doc()
    mutate(doc)
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    assert main(["check", "--workspace", str(path), "t"]) == 2
    captured = capsys.readouterr()
    assert entry in captured.err and "TypeError" in captured.err
    assert "Traceback" not in captured.err + captured.out


def _ideal_on_algebra(ref):
    def mutate(doc):
        ideal = doc["ideals"]["I"]
        del ideal["action"]
        ideal["algebra"] = ref
    return mutate


def _reference(section, name, key, ref):
    def mutate(doc):
        doc[section][name][key] = ref
    return mutate


@pytest.mark.parametrize("mutate, entry, key", [
    (_reference("actions", "t", "hopf", ["H"]), "action 't'", "hopf"),
    (_reference("actions", "t", "algebra", {"x": 1}), "action 't'", "algebra"),
    (_reference("ideals", "I", "action", ["t"]), "ideal 'I'", "action"),
    (_ideal_on_algebra(["A"]), "ideal 'I'", "algebra"),
    (_reference("modules", "reg", "action", ["t"]), "module 'reg'", "action"),
], ids=["action-hopf", "action-algebra", "ideal-action", "ideal-algebra", "module-action"])
def test_cli_reference_that_is_not_a_name_exits_two(tmp_path, capsys, mutate, entry, key):
    doc = explicit_doc()
    mutate(doc)
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_workspace(str(path))
    assert main(["radicals", "--workspace", str(path), "t"]) == 2
    captured = capsys.readouterr()
    assert entry in captured.err and f"{key!r} must be a name" in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_ideal_on_an_algebra_still_loads(tmp_path):
    doc = explicit_doc()
    _ideal_on_algebra("A")(doc)
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    assert load_workspace(str(path)).ideals["I"].dim == 1


@pytest.fixture
def no_large_range(monkeypatch):
    """Fail at once if psl.hopf or psl.algebra iterates over more than MAX_GROUP_ORDER elements."""
    real = range

    def guarded(*args):
        if max(args) > MAX_GROUP_ORDER:
            raise AssertionError(f"range{args} reached before the cap")
        return real(*args)

    monkeypatch.setattr(hopf, "range", guarded, raising=False)
    monkeypatch.setattr(algebra, "range", guarded, raising=False)


@pytest.mark.parametrize("group, message", [
    ({"cyclic": 1000000000}, "group order 1000000000 exceeds the cap"),
    ({"cyclic": MAX_GROUP_ORDER + 1}, f"group order {MAX_GROUP_ORDER + 1} exceeds the cap"),
    ({"cayley": [[0]] * (MAX_GROUP_ORDER + 1)}, f"group order {MAX_GROUP_ORDER + 1} exceeds the cap"),
    ({"cyclic": float("inf")}, "TypeError: 'cyclic' must be an integer, got float"),
], ids=["cyclic-1e9", "cyclic-cap+1", "cayley-cap+1", "cyclic-infinity"])
def test_cli_group_order_above_the_cap_exits_two(tmp_path, capsys, no_large_range, group, message):
    # the cap is checked before the Cayley table is built: no_large_range fails the
    # test instead of letting a table of that order be allocated
    doc = json.loads(SAMPLE.read_text())
    doc["groups"]["C4"] = group
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    assert main(["radicals", "--workspace", str(path), "triple"]) == 2
    captured = capsys.readouterr()
    assert "group 'C4'" in captured.err and message in captured.err
    assert "Traceback" not in captured.err + captured.out


def test_group_order_cap_is_above_every_checked_in_workspace():
    for path in [SAMPLE] + sorted(BENCH_WORKSPACES.glob("*.json")):
        for group in load_workspace(str(path)).groups.values():
            assert 4 * group.order <= MAX_GROUP_ORDER
    with pytest.raises(GroupTooLarge):
        GroupTable.cyclic(MAX_GROUP_ORDER + 1)


@pytest.mark.parametrize("k, message", [
    (10 ** 6, "product_of_fields k = 1000000 exceeds the cap"),
    (MAX_GROUP_ORDER + 1, f"product_of_fields k = {MAX_GROUP_ORDER + 1} exceeds the cap"),
    (float("inf"), "TypeError: 'k' must be an integer, got float"),
], ids=["k-1e6", "k-cap+1", "k-infinity"])
def test_cli_product_of_fields_above_the_cap_exits_two(tmp_path, capsys, no_large_range, k, message):
    # the cap is checked before any tensor is built: no_large_range fails the test
    # instead of letting a k x k x k tensor be allocated
    doc = json.loads(SAMPLE.read_text())
    doc["algebras"]["Q3"]["k"] = k
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    assert main(["radicals", "--workspace", str(path), "triple"]) == 2
    captured = capsys.readouterr()
    assert "algebra 'Q3'" in captured.err and message in captured.err
    assert "Traceback" not in captured.err + captured.out


def counts_doc():
    """F_5 workspace with a count or index in every place one can stand."""
    return {
        "version": "psl-workspace/1",
        "field": {"kind": "Fp", "p": 5},
        "groups": {"C2": {"cyclic": 2}, "T": {"cayley": [[0, 1], [1, 0]], "labels": ["a", "b"]}},
        "hopf_algebras": {"kC2": {"constructor": "group_algebra", "group": "C2"}},
        "algebras": {"A": {"constructor": "product_of_fields", "k": 2}},
        "actions": {
            "triv": {"builder": "trivial", "hopf": "kC2", "algebra": "A"},
            "corner": {"builder": "dual_group_idempotent", "group": "T", "subgroup": [0, 1]},
        },
        "modules": {"M": {"action": "triv", "dim": 1, "a_act": [[[1]], [[0]]], "h_act": [[[1]], [[1]]]}},
    }


def test_counts_doc_loads(tmp_path, capsys):
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(counts_doc()))
    assert main(["radicals", "--workspace", str(path), "triv"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("section, name, key, value, entry", [
    ("groups", "C2", "cyclic", 4.7, "group 'C2'"),
    ("groups", "C2", "cyclic", True, "group 'C2'"),
    ("algebras", "A", "k", 3.9, "algebra 'A'"),
    (None, "field", "p", 5.5, "bad field spec"),
    ("groups", "T", "cayley", [[0, 1.9], [1.2, 0]], "group 'T'"),
    ("actions", "corner", "subgroup", [0, 1.5], "action 'corner'"),
    ("groups", "T", "labels", "ab", "group 'T'"),
    ("groups", "T", "labels", ["a"], "group 'T'"),
    ("modules", "M", "dim", 1.0, "module 'M'"),
], ids=["cyclic-float", "cyclic-bool", "k-float", "p-float", "cayley-float", "subgroup-float",
        "labels-string", "labels-short", "module-dim-float"])
def test_cli_count_index_or_label_of_the_wrong_type_exits_two(tmp_path, capsys, section, name, key, value, entry):
    # a count or an index is a JSON integer (not a bool), and labels are a list of strings, one per element
    doc = counts_doc()
    (doc[section] if section else doc)[name][key] = value
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        load_workspace(str(path))
    assert main(["radicals", "--workspace", str(path), "triv"]) == 2
    captured = capsys.readouterr()
    assert entry in captured.err and f"'{key}'" in captured.err
    assert "Traceback" not in captured.err + captured.out
