"""The theorem table of `psl verify`: one check per theorem for seeded and workspace instances."""

import json
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations_with_replacement
from pathlib import Path

import pytest

from helpers import dense_mult
import psl.paction as paction
import psl.radicals as radicals
import psl.smash as smash
import psl.verify as verify
from psl.algebra import Algebra, InvariantViolation, check_algebra, is_ideal, nilpotency_index
from psl.cli import main
from psl.exactla import GF, QQ, Subspace, unit_vec
from psl.radicals import trace_form_kernel
from psl.verify import (
    NEGATIVE_CONTROLS,
    THEOREMS,
    fixture_d,
    random_algebra,
    random_partial_action,
    seeded_instances,
    truncated_polynomial_algebra,
)
from psl.workspace import load_workspace
from test_invariants import integrals_not_one_dimensional, translation_action_fails

ROOT = Path(__file__).resolve().parent.parent
SAMPLE = ROOT / "workspaces" / "sample.json"


def test_random_algebra_with_max_dim_one_asks_for_no_empty_range():
    # kind 4 quotients a group algebra of order at least 2, more than max_dim = 1 allows
    seeds = range(40)
    assert any(random.Random(s).randrange(5) == 4 for s in seeds)
    for s in seeds:
        for p in (2, 3, 5):
            assert random_algebra(random.Random(s), GF(p), max_dim=1).dim <= 2


def test_seeded_draws_include_a_large_trace_form_kernel():
    # F_5C_5 over F_5 has an identically zero trace form: K = A, and (5^5 - 1)/4 = 781 lines
    hard = []
    for tag, pa in seeded_instances(None, 0, 100, 6, 5, ()):
        A, p = pa.alg, pa.field.char
        if 0 < p <= A.dim:
            K = trace_form_kernel(A)
            if not (is_ideal(A, K) and nilpotency_index(A, K) is not None) and (p ** K.dim - 1) // (p - 1) > 700:
                hard.append(tag)
    assert hard


def test_an_error_inside_a_draw_propagates(monkeypatch):
    def broken(H, A):
        raise ValueError("broken builder")

    monkeypatch.setattr(verify, "trivial_action", broken)
    with pytest.raises(ValueError, match="broken builder"):
        random_partial_action(random.Random(0), GF(3))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(3), GF(5)], ids=repr)
def test_truncated_polynomial_algebra_equals_its_public_twin(field):
    for k in range(1, 6):
        z = (field.zero,) * k
        mult = [[unit_vec(field, k, i + j) if i + j < k else z for j in range(k)] for i in range(k)]
        labels = ["1"] + [f"x^{i}" if i > 1 else "x" for i in range(1, k)]
        twin = Algebra(field, mult, unit=unit_vec(field, k, 0), labels=labels)
        A = truncated_polynomial_algebra(field, k)
        assert A == twin and hash(A) == hash(twin)
        # repr tells a Fraction from an int, which == and hash do not
        assert repr(A.terms) == repr(twin.terms) and repr(dense_mult(A)) == repr(dense_mult(twin))
        assert repr(A.unit) == repr(twin.unit) and A.labels == twin.labels
        assert check_algebra(A).ok


def test_full_smash_built_once_per_action(monkeypatch):
    built = []
    real = smash.build_full_smash

    def counting(pa):
        built.append(pa)
        return real(pa)

    monkeypatch.setattr(smash, "build_full_smash", counting)
    assert THEOREMS["T4.26"].run(trials=6).ok
    assert built
    assert len(built) == len({id(pa) for pa in built})


def test_one_verify_run_builds_each_hopf_algebra_once(monkeypatch):
    built = []

    def counting(name, real):
        def build(field, G):
            built.append((name, field, G.order))
            return real(field, G)
        return build

    for module in (verify, paction):
        for name in ("group_algebra", "dual_group_algebra"):
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    assert THEOREMS["T4.26"].run().ok
    assert built
    assert len(built) == len(set(built))


def test_equal_draws_share_one_full_smash(monkeypatch):
    built = []
    real = smash.build_full_smash

    def counting(pa):
        built.append((pa, pa.alg.labels, pa.hopf.alg.labels))
        return real(pa)

    monkeypatch.setattr(smash, "build_full_smash", counting)
    assert THEOREMS["T4.26"].run().ok
    assert built
    assert len(built) == len(set(built))


@pytest.mark.parametrize("breakage, message", [
    (translation_action_fails, "dual group translation axioms failed"),
    (integrals_not_one_dimensional, "integral space has dimension 0"),
])
def test_checks_still_fire_after_a_verify_run(monkeypatch, breakage, message):
    # nothing a run builds outlives it, so fresh objects are built and checked again
    assert THEOREMS["T4.26"].run(trials=6).ok
    call = breakage(monkeypatch)
    with pytest.raises(InvariantViolation, match=message):
        call()


def test_h_radicals_enumerate_once_per_instance(monkeypatch):
    # the source asks for the ideals of a draw and the check asks again: one lattice per checked action
    lattices = []
    real = radicals._invariant_lattice

    def counting(*args):
        lattices.append(args)
        return real(*args)

    monkeypatch.setattr(radicals, "_invariant_lattice", counting)
    theorem = THEOREMS["C4.13"]
    enumerated = {}

    def check(report, tag, pa, **kwargs):
        applied = theorem.check(report, tag, pa, **kwargs)
        if pa._ideals is not None:
            enumerated[id(pa)] = pa  # held for the run, so no two actions share an id
        return applied

    for seed in range(4):
        assert theorem._replace(check=check).run(seed).ok
    assert 0 < len(lattices) == len(enumerated)


@pytest.mark.parametrize("theorem_id", ["T3.6", "C3.7", "P4.22", "C4.13"])
def test_lattice_theorems_enumerate_each_action_once(monkeypatch, theorem_id):
    # the pool hands an equal draw to later tags as the same action, which keeps its ideals
    real_enumerate, real_lattice = radicals.enumerate_h_stable_ideals, radicals._invariant_lattice
    asked, lattices = [], []

    def enumerate_ideals(pa, *args, **kwargs):
        ideals = real_enumerate(pa, *args, **kwargs)
        assert type(ideals) is tuple
        asked.append(pa)  # only the asks answered, held for the run, so no two actions share an id
        return ideals

    def lattice(*args):
        lattices.append(args)
        return real_lattice(*args)

    monkeypatch.setattr(radicals, "enumerate_h_stable_ideals", enumerate_ideals)
    monkeypatch.setattr(verify, "enumerate_h_stable_ideals", enumerate_ideals)
    monkeypatch.setattr(radicals, "_invariant_lattice", lattice)
    theorem = THEOREMS[theorem_id]
    checked = []

    def check(report, tag, pa, **kwargs):
        checked.append(pa)
        return theorem.check(report, tag, pa, **kwargs)

    repeats = 0
    for seed in range(4):
        asked.clear()
        lattices.clear()
        checked.clear()
        assert theorem._replace(check=check).run(seed).ok
        assert len(lattices) == len({id(pa) for pa in asked}), seed
        repeats += len(checked) - len({id(pa) for pa in checked})  # tags checked on a shared action
    assert repeats


def calls_per_input(monkeypatch, theorem_id, name):
    """Calls of `verify.<name>(obj, I)` over seeds 0-3, counted per (checked instance, rows of I).

    `obj` is the smash product or the action of the instance being checked.
    """
    theorem = THEOREMS[theorem_id]
    real = getattr(verify, name)
    instance = [0]
    calls = Counter()

    def counting(obj, I):
        calls[instance[0], I.rows] += 1
        return real(obj, I)

    def check(report, tag, pa, **kwargs):
        instance[0] += 1
        return theorem.check(report, tag, pa, **kwargs)

    monkeypatch.setattr(verify, name, counting)
    for seed in range(4):
        assert theorem._replace(check=check).run(seed).ok
    return calls


def test_ideal_correspondence_derives_each_phi_once(monkeypatch):
    # the pair loop reads Phi(I+J), Phi(I/\J) and Phi(IJ) from the images already derived
    calls = calls_per_input(monkeypatch, "T3.6", "phi_ideal")
    assert calls and set(calls.values()) == {1}


def test_h_radicals_derive_each_hrz_once(monkeypatch):
    # Hrz(Hrz(I)) is a lookup once the loop has reached Hrz(I), or derives it for the loop
    calls = calls_per_input(monkeypatch, "C4.13", "h_radical_of_ideal")
    assert calls and set(calls.values()) == {1}


def ideal_correspondence_enumerations():
    """(smash product, ideals, their Phi images) of each T3.6 instance at seeds 0-3 that enumerates."""
    theorem = THEOREMS["T3.6"]
    out = []

    def check(report, tag, pa, **kwargs):
        ideals = verify._ideals_or_none(pa, kwargs["dim_cap"], kwargs["field_cap"])
        if ideals is not None:
            sp = smash.build_partial_smash(pa)
            out.append((sp, ideals, [smash.phi_ideal(sp, I) for I in ideals]))
        return theorem.check(report, tag, pa, **kwargs)

    for seed in range(4):
        assert theorem._replace(check=check).run(seed).ok
    return out


def test_nested_pairs_read_by_inclusion_agree_with_elimination():
    # on I <= J, Phi(I+J) = Phi(I)+Phi(J) and Phi(I/\J) = Phi(I)/\Phi(J) both read Phi(I) <= Phi(J)
    nested = other = outside = 0
    for sp, ideals, images in ideal_correspondence_enumerations():
        for i, j in combinations_with_replacement(range(len(ideals)), 2):
            I, J = ideals[i], ideals[j]
            if not (I <= J or J <= I):
                other += 1
                continue
            nested += 1
            small, big = (i, j) if I.dim <= J.dim else (j, i)
            by_inclusion = images[small] <= images[big]
            by_sum = smash.phi_ideal(sp, I + J) == images[i] + images[j]
            by_intersection = smash.phi_ideal(sp, I.intersect(J)) == images[i].intersect(images[j])
            assert by_inclusion == by_sum == by_intersection
        # the identity the shortcut rests on, also where the images do not nest
        for X in images:
            for Y in images:
                assert (X <= Y) == (X + Y == Y) == (X.intersect(Y) == X)
                outside += not X <= Y
    assert nested and other and outside


@pytest.mark.parametrize("dim", [0, 1, 2])
def test_ideal_correspondence_catches_phi_wrong_at_one_dimension(monkeypatch, dim):
    real = verify.phi_ideal

    def corrupted(sp, I):
        return Subspace.full_space(sp.field, sp.carrier.dim) if I.dim == dim else real(sp, I)

    monkeypatch.setattr(verify, "phi_ideal", corrupted)
    assert not all(THEOREMS["T3.6"].run(seed).ok for seed in range(4))


@pytest.mark.parametrize("theorem_id", sorted(THEOREMS))
def test_every_theorem_checks_the_sample_workspace(theorem_id, capsys):
    argv = ["verify", theorem_id, "--workspace", str(SAMPLE), "--trials", "2", "--output", "json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] and payload["checks"] > 0 and payload["failures"] == []


def f2_workspace(tmp_path, p: int = 2) -> Path:
    # F_2^3 has 8 ideals, more than the six random ideals drawn beyond the caps
    doc = {
        "version": "psl-workspace/1",
        "field": {"kind": "Fp", "p": p},
        "groups": {"C2": {"cyclic": 2}},
        "hopf_algebras": {"H": {"constructor": "group_algebra", "group": "C2"}},
        "algebras": {"A": {"constructor": "product_of_fields", "k": 3}},
        "actions": {"t": {"builder": "trivial", "hopf": "H", "algebra": "A"}},
    }
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    return path


def test_ideal_correspondence_reads_a_nested_pair_by_inclusion(tmp_path, monkeypatch):
    # Phi(span e_0) is made the whole carrier, which Phi(span(e_0, e_1)) does not contain
    pa = load_workspace(str(f2_workspace(tmp_path))).action("t")
    F2 = GF(2)
    small = Subspace.from_vectors(F2, 3, [(1, 0, 0)])
    big = Subspace.from_vectors(F2, 3, [(1, 0, 0), (0, 1, 0)])
    real = verify.phi_ideal

    def phi(sp, I):
        return Subspace.full_space(sp.field, sp.carrier.dim) if I == small else real(sp, I)

    monkeypatch.setattr(verify, "phi_ideal", phi)
    report = verify.VerifyReport("T3.6")
    verify.check_ideal_correspondence(report, "t", pa, seed=0, dim_cap=6, field_cap=5)
    ideals = radicals.enumerate_h_stable_ideals(pa)
    failed = {c.name: c.detail for c in report.cases if not c.ok}
    pair = f"t: lattice ops at pair ({ideals.index(small)},{ideals.index(big)})"
    assert failed[pair].startswith("sum False, intersection False")


@pytest.mark.parametrize("theorem_id, name, detail", [
    ("T3.6", "workspace:t: lattice ops on all pairs", "8^2 pairs"),
    ("C3.7", "workspace:t: same count on both sides", "8 vs 8"),
    ("P4.22", "workspace:t: semiprimitivity criterion", "J_H dim 0, 0 nonzero H-stable ideals inside J(A)"),
    ("C4.13", "workspace:t: Hrz(ideal dim 2)", "quotient route dim 2, enumeration dim 2"),
])
def test_small_finite_workspace_actions_get_the_enumeration_cases(tmp_path, theorem_id, name, detail):
    ws = load_workspace(str(f2_workspace(tmp_path)))
    workspace = [(f"workspace:{n}", pa) for n, pa in ws.actions.items()]
    report = THEOREMS[theorem_id].run(trials=0, workspace=workspace)
    assert report.ok, report.summary()
    assert (name, True, detail) in [(c.name, c.ok, c.detail) for c in report.cases]


def test_dual_ideals_enumerate_a_carrier_by_its_dimension(tmp_path, capsys):
    # the corner has dim A * dim H = 12 but a carrier of dim 4; F_2^4 under C2 has a carrier
    # of dim 8, the enumeration's cap on that side, above --dim-cap; F_2^5's has dim 10
    doc = {
        "version": "psl-workspace/1",
        "field": {"kind": "Fp", "p": 2},
        "groups": {"C2": {"cyclic": 2}, "C6": {"cyclic": 6}},
        "hopf_algebras": {"H": {"constructor": "group_algebra", "group": "C2"}},
        "algebras": {"A4": {"constructor": "product_of_fields", "k": 4},
                     "A5": {"constructor": "product_of_fields", "k": 5}},
        "actions": {
            "corner": {"builder": "dual_group_idempotent", "group": "C6", "subgroup": [0, 2, 4]},
            "t4": {"builder": "trivial", "hopf": "H", "algebra": "A4"},
            "t5": {"builder": "trivial", "hopf": "H", "algebra": "A5"},
        },
    }
    path = tmp_path / "ws.json"
    path.write_text(json.dumps(doc))
    ws = load_workspace(str(path))
    report = THEOREMS["C3.7"].run(trials=0, workspace=[(f"workspace:{n}", pa) for n, pa in ws.actions.items()])
    assert report.ok, report.summary()
    cases = [(c.name, c.detail) for c in report.cases]
    assert ("workspace:corner: same count on both sides", "2 vs 2") in cases
    assert ("workspace:t4: same count on both sides", "16 vs 16") in cases
    assert ("workspace:t5: lattice ops on all pairs", "32^2 pairs") in cases  # the T3.6 check
    assert main(["verify", "C3.7", "--trials", "0", "--workspace", str(path), "--output", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"] == len(cases)


def test_the_enumeration_gate_passes_on_any_other_error(monkeypatch):
    # InvariantViolation is a ValueError, but not a refusal: it must not turn into the fallback route
    def broken(*args):
        raise InvariantViolation("lattice check failed")

    monkeypatch.setattr(radicals, "_invariant_lattice", broken)
    with pytest.raises(InvariantViolation, match="lattice check failed"):
        THEOREMS["P4.22"].run()


@pytest.mark.parametrize("theorem_id", ["T5.1", "C5.7", "T5.8", "C5.9"])
def test_semisimple_theorems_take_only_workspace_actions_with_semisimple_h(tmp_path, theorem_id):
    # C2 acts trivially on F_p^3: F_2C_2 is not semisimple, F_3C_2 is
    tags = {}
    for p in (2, 3):
        ws = load_workspace(str(f2_workspace(tmp_path, p)))
        report = THEOREMS[theorem_id].run(trials=0, workspace=[(f"workspace:{n}", pa) for n, pa in ws.actions.items()])
        assert report.ok, report.summary()
        tags[p] = [c.name for c in report.cases if c.name.startswith("workspace:")]
    assert tags[2] == [] and len(tags[3]) == 1


def test_negative_controls_have_their_radical_dimensions():
    report = THEOREMS["NEG-SS"].run()
    assert [(c.name, c.ok, c.detail) for c in report.cases] == [
        (f"{tag}: J(A (x) H) has dimension {dim}", True, f"dim {dim}")
        for tag, (_, dim) in NEGATIVE_CONTROLS.items()
    ]
    assert [dim for _, dim in NEGATIVE_CONTROLS.values()] == [1, 2, 4]


def test_negative_control_with_another_radical_dimension_fails(monkeypatch):
    monkeypatch.setitem(NEGATIVE_CONTROLS, "FIX-D", (fixture_d, 2))
    report = THEOREMS["NEG-SS"].run()
    assert not report.ok
    assert [c.detail for c in report.cases if not c.ok] == ["dim 1"]


def test_negative_control_that_fails_the_hypotheses_fails(monkeypatch, capsys):
    monkeypatch.setattr(verify, "is_semisimple", lambda H: True)
    report = THEOREMS["NEG-SS"].run()
    assert [c.name for c in report.cases] == [f"{tag}: hypotheses hold" for tag in NEGATIVE_CONTROLS]
    assert not any(c.ok for c in report.cases)
    assert main(["verify", "NEG-SS"]) == 1
    capsys.readouterr()


def test_hypotheses_floor_follows_trials(capsys):
    report = THEOREMS["T5.8"].run(trials=6)
    assert report.ok, report.summary()
    floor = report.cases[-1]
    assert floor.name == "hypotheses applied at least 6 times"
    assert main(["verify", "T5.8", "--trials", "6"]) == 0
    assert main(["verify", "T5.1", "--trials", "1", "--workspace", str(SAMPLE)]) == 0
    capsys.readouterr()


def test_default_trials_keep_the_floor_of_ten():
    assert THEOREMS["T5.1"].run().cases[-1].name == "hypotheses applied at least 10 times"


@pytest.mark.parametrize("argv, message", [
    (["verify", "T4.26", "--trials", "-3"], "must be at least 0"),
    (["verify", "T4.26", "--dim-cap", "0"], "must be at least 1"),
    (["verify", "T4.26", "--field-cap", "1"], "must be at least 2"),
    (["verify", "T4.26", "--trials", "x"], "invalid int value"),
    (["enumerate-ideals", "--workspace", str(SAMPLE), "triple", "--dim-cap", "0"], "must be at least 1"),
    (["enumerate-ideals", "--workspace", str(SAMPLE), "triple", "--field-cap", "1"], "must be at least 2"),
])
def test_out_of_range_counts_exit_two(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err + captured.out


@pytest.mark.parametrize("argv", [["verify", "T4.26", "--trials", "3"], ["verify", "P4.22"]])
def test_optimized_interpreter_reports_the_same(argv):
    # python -O strips asserts, so equal reports show that no invariant rests on one
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    outputs = []
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, "-m", "psl.cli", *argv, "--output", "json"],
            capture_output=True, text=True, env=env, timeout=600,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(json.loads(proc.stdout))
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("output", ["text", "json"])
def test_closed_stdout_exits_141_without_a_traceback(output):
    # the reader of the pipe has gone before the command writes
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "psl.cli", "verify", "T3.6", "--output", output],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=600,
        )
    finally:
        os.close(write)
    assert proc.returncode == 141
    assert proc.stderr == ""
