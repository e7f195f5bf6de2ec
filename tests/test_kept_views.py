"""The kernel views psl keeps on an immutable object equal what they replace, and die with the command.

A `Subspace` keeps the kernel form of its rows (handed over by the elimination
that spans it, the identity's shared rows for the full space, or built on first
use) and its non-pivot columns, an `Algebra` its multiplication operators per
side and its checked Jacobson radical, a `PartialAction` its J_H(A) and a
`SmashProduct` its checked dual action.  Every such object that
the commands below create is recorded as it is made; afterwards each view it
kept must equal the view computed afresh, on the object itself or on an equal
object built anew, which has kept nothing.  The views live on the objects, and
the objects on the command that made them, so a second run of a command
repeats every radical computation of the first.
"""

from collections import Counter
from pathlib import Path

from psl import exactla, radicals
from psl.algebra import Algebra, _mult_operators
from psl.cli import main
from psl.exactla import Subspace, _nonzero
from psl.paction import PartialAction
from psl.radicals import h_jacobson_radical, jacobson_radical
from psl.smash import SmashProduct, build_partial_smash
from psl.workspace import load_workspace

ROOT = Path(__file__).resolve().parent.parent
Q_WORKSPACE = ROOT / "pslbench" / "workspaces" / "q.json"


def record_instances(monkeypatch, classes) -> list:
    """The list that every later instance of one of `classes` is appended to as it is made,
    through the public constructor or through `_of_terms`."""
    made = []
    for cls in classes:
        init = cls.__init__

        def recorded_init(self, *args, init=init, **kwargs):
            init(self, *args, **kwargs)
            made.append(self)

        monkeypatch.setattr(cls, "__init__", recorded_init)
        if "_of_terms" in vars(cls):
            of_terms = vars(cls)["_of_terms"].__func__

            def recorded_of_terms(cls, *args, of_terms=of_terms, **kwargs):
                made.append(of_terms(cls, *args, **kwargs))
                return made[-1]

            monkeypatch.setattr(cls, "_of_terms", classmethod(recorded_of_terms))
    return made


def fresh_algebra(A: Algebra) -> Algebra:
    return Algebra._of_terms(A.field, A.terms, A.unit, A.labels)


def test_kept_views_equal_what_they_replace(monkeypatch, capsys):
    made = record_instances(monkeypatch, (Subspace, Algebra, PartialAction))
    assert main(["verify", "T3.6", "--seed", "2", "--output", "json"]) == 0
    assert main(["verify", "T4.26", "--output", "json"]) == 0  # J_H(A) through h_jacobson_radical
    for name in load_workspace(str(Q_WORKSPACE)).actions:
        assert main(["radicals", "--workspace", str(Q_WORKSPACE), name, "--output", "json"]) == 0
    monkeypatch.undo()
    kept = Counter()
    for X in made:
        if isinstance(X, Subspace) and X._sparse is not None:
            assert X._sparse == tuple(_nonzero(r) for r in X.rows)
            kept["rows"] += 1
        elif isinstance(X, Algebra):
            twin = fresh_algebra(X)
            for side, ops in X._ops.items():
                assert ops == _mult_operators(twin, side)
                kept["operators"] += 1
            if X._radical is not None:
                assert X._radical == jacobson_radical(twin)
                kept["radical"] += 1
        elif isinstance(X, PartialAction) and X._h_radical is not None:
            twin = PartialAction._of_terms(X.hopf, fresh_algebra(X.alg), X._terms)
            assert X._h_radical == h_jacobson_radical(twin)
            kept["h-radical"] += 1
    # every kind of view was kept somewhere, so none of the comparisons above is vacuous
    assert sorted(kept) == ["h-radical", "operators", "radical", "rows"], kept


def test_kept_dual_action_equals_one_built_afresh(monkeypatch, capsys):
    made = record_instances(monkeypatch, (SmashProduct,))
    assert main(["verify", "T4.26", "--output", "json"]) == 0
    for path in sorted((ROOT / "pslbench" / "workspaces").glob("*.json")):
        for name in load_workspace(str(path)).actions:
            assert main(["smash", "--workspace", str(path), name, "--output", "json"]) == 0
    monkeypatch.undo()
    kept = [sp for sp in made if sp._dual is not None]
    assert kept
    for sp in kept:
        pa = sp.pa
        twin = PartialAction._of_terms(pa.hopf, fresh_algebra(pa.alg), pa._terms)
        assert sp._dual == build_partial_smash(twin).dual_action


def test_kept_complement_equals_the_recomputed_one(monkeypatch, capsys):
    made = record_instances(monkeypatch, (Subspace,))
    assert main(["verify", "T4.26", "--output", "json"]) == 0
    monkeypatch.undo()
    kept = [S for S in made if S._complement is not None]
    assert kept
    for S in kept:
        assert S._complement == tuple(c for c in range(S.ambient) if c not in S.pivots)
        assert S.complement_indices() is S._complement


def test_spans_hand_over_their_sparse_rows(monkeypatch, capsys):
    # a spanned subspace holds the sparse rows of its elimination from the start, so
    # `_sparse_rows` finds them without a pass of `_nonzero` over the dense rows
    spanned = []
    span = exactla._Echelon.span

    def recorded_span(self, field, n):
        S = span(self, field, n)
        spanned.append((S, S._sparse))
        return S

    monkeypatch.setattr(exactla._Echelon, "span", recorded_span)
    assert main(["verify", "T3.6", "--seed", "2", "--output", "json"]) == 0
    for name in load_workspace(str(Q_WORKSPACE)).actions:
        assert main(["radicals", "--workspace", str(Q_WORKSPACE), name, "--output", "json"]) == 0
    assert 0 in {S.field.char for S, _ in spanned} and any(S.field.char for S, _ in spanned)  # Q and F_p
    for S, handed in spanned:
        assert handed is not None and handed == tuple(_nonzero(r) for r in S.rows)
        assert S._sparse_rows() is handed


def test_full_spaces_hold_the_shared_identity_rows(monkeypatch, capsys):
    # a full subspace holds the identity's sparse rows from the start, one tuple per
    # dimension, so `_sparse_rows` never rebuilds them
    full = []
    full_space = Subspace.full_space.__func__

    def recorded_full_space(cls, field, ambient):
        full.append(full_space(cls, field, ambient))
        return full[-1]

    monkeypatch.setattr(Subspace, "full_space", classmethod(recorded_full_space))
    assert main(["verify", "T3.6", "--seed", "2", "--output", "json"]) == 0
    monkeypatch.undo()
    assert full
    for S in full:
        assert S._sparse is not None and S._sparse == tuple(_nonzero(r) for r in S.rows)
        assert S._sparse_rows() is Subspace.full_space(S.field, S.ambient)._sparse


def test_nothing_a_command_computes_outlives_it(monkeypatch, capsys):
    # a radical kept on an object that outlived its command would be read, not computed,
    # by the second run
    calls = []
    real = radicals.trace_form_kernel

    def counting(A):
        calls.append(A.dim)
        return real(A)

    monkeypatch.setattr(radicals, "trace_form_kernel", counting)
    counts = []
    for _ in range(2):
        start = len(calls)
        assert main(["verify", "T4.26", "--output", "json"]) == 0
        counts.append(len(calls) - start)
    assert counts[0] == counts[1] > 0
