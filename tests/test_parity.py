"""Parity of psl's answers with a stored record, `parity.json`.

The record holds one sha256 per key:

- `verify:<id>:<seed>` hashes the `THEOREMS[id].run` case list (name, ok, detail)
  of every theorem id at seeds 0-3;
- `<workspace>:<command>:<action>` hashes the exit code and JSON output of
  `psl radicals`, `psl smash` and `psl check` on every action of the four
  checked-in workspaces, and of `psl enumerate-ideals` on every action of
  the two workspaces over F_p.

A change that must not move any answer (a kernel rewrite, a new cache)
keeps every hash, and a mismatch names the keys that moved.  Run as a
script, the file compares without writing: it prints the keys that moved
and exits 1 if any did, 0 if none did.

    PYTHONPATH=src python3 tests/test_parity.py

After a change that is meant to move answers, such as a new random-number
stream in the instance generator, rewrite the record with `--write` and say
so in CHANGES.md.  Any other argument exits 2.

    PYTHONPATH=src python3 tests/test_parity.py --write
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).resolve().parent / "parity.json"
SEEDS = range(4)
WORKSPACES = {
    "sample": ROOT / "workspaces" / "sample.json",
    "q": ROOT / "pslbench" / "workspaces" / "q.json",
    "f2": ROOT / "pslbench" / "workspaces" / "f2.json",
    "f3": ROOT / "pslbench" / "workspaces" / "f3.json",
}
COMMANDS = ("radicals", "smash", "check")
# the workspaces over a finite field, whose H-stable ideals can be enumerated
ENUMERATED = ("f2", "f3")


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _verify_cases(theorem_id: str, seed: int):
    from psl.verify import THEOREMS

    return [[c.name, c.ok, c.detail] for c in THEOREMS[theorem_id].run(seed=seed).cases]


def _cli(args: list[str]):
    from psl.cli import main

    out = io.StringIO()
    with redirect_stdout(out):
        code = main(args + ["--output", "json"])
    return [code, out.getvalue()]


def snapshot() -> dict[str, str]:
    """Every key of the record with the hash of what the code in `src/` answers now."""
    from psl.verify import THEOREMS
    from psl.workspace import load_workspace

    record = {}
    for theorem_id in sorted(THEOREMS):
        for seed in SEEDS:
            record[f"verify:{theorem_id}:{seed}"] = _digest(_verify_cases(theorem_id, seed))
    for ws_name, path in WORKSPACES.items():
        for action in load_workspace(str(path)).actions:
            for command in COMMANDS:
                out = _cli([command, "--workspace", str(path), action])
                record[f"{ws_name}:{command}:{action}"] = _digest(out)
            if ws_name in ENUMERATED:
                out = _cli(["enumerate-ideals", "--workspace", str(path), action])
                record[f"{ws_name}:enumerate-ideals:{action}"] = _digest(out)
    return record


def moved_keys(stored: dict[str, str], now: dict[str, str]) -> list[str]:
    """The keys whose hash differs, or that only one side has."""
    return sorted(k for k in stored.keys() | now.keys() if stored.get(k) != now.get(k))


def test_answers_match_the_record():
    stored = json.loads(RECORD.read_text())
    moved = moved_keys(stored, snapshot())
    assert not moved, f"{len(moved)} of {len(stored)} answers moved: {', '.join(moved)}"


def main(argv: list[str]) -> int:
    if argv == ["--write"]:
        RECORD.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
        print(f"wrote {RECORD}")
        return 0
    if argv:
        print("usage: test_parity.py [--write]", file=sys.stderr)
        return 2
    stored = json.loads(RECORD.read_text())
    moved = moved_keys(stored, snapshot())
    for key in moved:
        print(key)
    print(f"{len(moved)} of {len(stored)} answers moved")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main(sys.argv[1:]))
