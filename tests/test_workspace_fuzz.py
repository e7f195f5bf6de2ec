"""Mutated workspaces through the psl front end: exit 0, 1 or 2, never an exception.

Each example takes one checked-in workspace, changes one value (to null, a
bool, a small int, a string, a list or an object) or deletes one key, and runs
`radicals`, `smash` or `check` on one of its names.  Every size a mutation can
write is at most 8, so no run leaves the capped paths.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from psl.cli import main

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = [
    ROOT / "workspaces" / "sample.json",
    *(ROOT / "pslbench" / "workspaces" / f"{name}.json" for name in ("q", "f2", "f3")),
]
SETTINGS = hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)

replacements = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 8),
    st.sampled_from(["", "x", "0", "2", "-1/2", "e1", "C2", "trivial"]),
    st.lists(st.integers(-3, 8), max_size=3),
    st.sampled_from([{}, {"cyclic": 2}, {"kind": "Fp", "p": 3}]),
)


def paths(value, prefix=()):
    """Every (path, is a dict key) below `value`, containers included."""
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield prefix + (key,), isinstance(value, dict)
        yield from paths(child, prefix + (key,))


def names(doc):
    """The names of the document's objects: the keys of every section but `field`."""
    return sorted({name for key, section in doc.items() if key != "field" and isinstance(section, dict) for name in section})


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("document", DOCUMENTS, ids=lambda path: path.stem)
def test_mutated_workspace_exits_zero_one_or_two(document):
    original = json.loads(document.read_text())
    targets = list(paths(original))
    actions = sorted(original["actions"])

    @hypothesis.given(st.data())
    @SETTINGS
    def mutate_and_run(data):
        doc = json.loads(document.read_text())
        path, keyed = data.draw(st.sampled_from(targets), label="path")
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if keyed and data.draw(st.booleans(), label="delete"):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(replacements, label="value")
        command = data.draw(st.sampled_from(["radicals", "smash", "check"]), label="command")
        name = data.draw(st.sampled_from(actions if command != "check" else names(original)), label="name")
        with tempfile.TemporaryDirectory() as tmp:
            ws = Path(tmp) / "ws.json"
            ws.write_text(json.dumps(doc))
            code, err = run([command, "--workspace", str(ws), name, "--output", "json"])
        assert code in (0, 1, 2), err
        assert "Traceback" not in err

    mutate_and_run()
