"""The four workloads: the CLI operations each one runs and what they must print.

An operation is one `psl` command line.  A round is every operation of the
workload once, in an order drawn from the benchmark seed; the operations
themselves do not depend on the seed, so every run does the same work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from checks import action_model, check_radicals, check_verify, field_arith

WORKSPACES = Path(__file__).resolve().parent / "workspaces"

VERIFY_TRANSFER = ("T4.26", "T4.14", "P4.20", "C4.13-INT", "T5.1", "C5.7", "T5.8", "C5.9", "NEG-SS")
VERIFY_LATTICE = ("T3.6", "C3.7", "P4.22", "C4.13")
LATTICE_SEEDS = range(4)

# `verify_C3_7` never compares the instance dimension with --dim-cap before it
# enumerates ideals, so seed 1 ends in DimensionTooLarge on every run.
EXPECTED_FAILURES = frozenset({"verify C3.7 --seed 1"})

# dims of J(A), P(A), J_H(A), P_H(A), J(A#H), P(A#H); README.md derives each row
ZERO = (0, 0, 0, 0, 0, 0)
RADICAL_DIMS = {
    "q.json": {
        "triple": ZERO,
        "corner": ZERO,
        "trivial4": ZERO,
        "sweedler-trivial": (0, 0, 0, 0, 2, 2),
        "c6-corner": ZERO,
        "c8-corner": ZERO,
        "s3-corner": ZERO,
        "qc4-on-qc2": ZERO,
        "qc3-on-q2": ZERO,
        "qs3-on-q1": ZERO,
        "h4-on-q2": (0, 0, 0, 0, 4, 4),
    },
    "f2.json": {
        "c2-on-f2": (0, 0, 0, 0, 1, 1),
        "c4-on-f2sq": (0, 0, 0, 0, 6, 6),
        "c3-on-f2c2": (1, 1, 1, 1, 3, 3),
        "c4-on-f2c2": (1, 1, 1, 1, 7, 7),
        "c3-corner": ZERO,
    },
    "f3.json": {
        "triple": ZERO,
        "c3-on-f3sq": (0, 0, 0, 0, 4, 4),
        "c2-on-f3c3": (2, 2, 2, 2, 4, 4),
        "h4-on-f3": (0, 0, 0, 0, 2, 2),
        "c4-corner": ZERO,
    },
}


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    check: object  # payload -> (problems, results)


def _verify_op(theorem: str, seed: int | None = None) -> Op:
    extra = () if seed is None else ("--seed", str(seed))
    return Op(
        " ".join(("verify", theorem) + extra),
        ("verify", theorem, *extra, "--output", "json"),
        lambda payload: check_verify(theorem, payload),
    )


def _radicals_ops(ws_file: str) -> list[Op]:
    path = WORKSPACES / ws_file
    doc = json.loads(path.read_text(encoding="utf-8"))
    ar = field_arith(doc)
    ops = []
    for action, dims in RADICAL_DIMS[ws_file].items():
        model = action_model(doc, action)

        def check(payload, action=action, dims=dims, model=model):
            return check_radicals(action, payload, dims, model, ar)

        ops.append(Op(
            f"radicals {ws_file} {action}",
            ("radicals", "--workspace", str(path), action, "--output", "json"),
            check,
        ))
    return ops


@dataclass(frozen=True)
class Workload:
    name: str
    workspaces: tuple[str, ...]
    ops: object  # () -> list[Op]

    def workspace_paths(self) -> list[str]:
        return [str(WORKSPACES / ws) for ws in self.workspaces]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-transfer", (), lambda: [_verify_op(t) for t in VERIFY_TRANSFER]),
        Workload(
            "verify-lattice", (),
            lambda: [_verify_op(t, s) for s in LATTICE_SEEDS for t in VERIFY_LATTICE],
        ),
        Workload("radicals-q", ("q.json",), lambda: _radicals_ops("q.json")),
        Workload(
            "radicals-fp", ("f2.json", "f3.json"),
            lambda: _radicals_ops("f2.json") + _radicals_ops("f3.json"),
        ),
    )
}
