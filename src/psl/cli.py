"""Batch front end.

    psl check           --workspace ws.json NAME
    psl smash           --workspace ws.json ACTION
    psl radicals        --workspace ws.json ACTION
    psl enumerate-ideals --workspace ws.json ACTION
    psl verify THEOREM  [--workspace ws.json] [--seed N] [--trials N]

Exit codes: 0 pass, 1 mathematical failure (with witness), 2 usage or
parse error, 141 stdout closed by its reader.  All reported entries are
exact rationals or residues.

`main(argv)` is the in-process entry point and returns the exit code.  It
builds the argument grammar on its first call and keeps it for the process,
so only later in-process calls skip that build; a shell invocation makes one
call and does the same work as before.  Nothing a command computes
outlives its call.

`import psl.cli` loads what `check`, `smash`, `radicals` and
`enumerate-ideals` run.  `psl.verify` (the theorem table) is imported on
demand by `verify`, and `psl.pmod` (partial modules) by a workspace with a
`modules` section, so no other command pays for them; like any import, each
then stays loaded for the process.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from psl.algebra import check_algebra
from psl.hopf import check_hopf
from psl.paction import check_partial_action, is_global
from psl.radicals import (
    DimensionTooLarge,
    FieldNotFinite,
    enumerate_h_stable_ideals,
    h_jacobson_radical,
    jacobson_radical,
)
from psl.smash import build_partial_smash
from psl.workspace import (
    ParseError,
    UnresolvedReference,
    WorkspaceAxiomError,
    format_subspace,
    load_workspace,
)

EXIT_PASS = 0
EXIT_MATH_FAIL = 1
EXIT_USAGE = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, a shell's status for a writer whose reader has gone


def _emit(payload: dict, output: str) -> None:
    if output == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in payload.get("lines", []):
            print(line)


def cmd_check(ws, name: str, output: str) -> int:
    kind, obj = ws.resolve(name)
    if kind == "hopf":
        report = check_hopf(obj)
    elif kind == "algebra":
        report = check_algebra(obj)
    elif kind == "action":
        report = check_partial_action(obj)
    elif kind == "module":
        from psl.pmod import check_partial_module  # loaded already by the workspace's modules

        report = check_partial_module(obj)
    else:  # a group's table is validated on construction; ideals are canonical subspaces
        report = None
    ok = report.ok if report is not None else True
    failures = list(report.failures) if report is not None else []
    payload = {
        "command": "check",
        "name": name,
        "kind": kind,
        "ok": ok,
        "failures": failures,
        "lines": [f"check {name} ({kind}): {'pass' if ok else 'FAIL'}"]
        + [f"  witness: {f}" for f in failures],
    }
    _emit(payload, output)
    return EXIT_PASS if ok else EXIT_MATH_FAIL


def cmd_smash(ws, name: str, output: str) -> int:
    pa = ws.action(name)
    sp = build_partial_smash(pa)
    field = pa.field
    payload = {
        "command": "smash",
        "action": name,
        "full_dim": sp.full.dim,
        "carrier_dim": sp.carrier.dim,
        "is_global": is_global(pa),
        "unit": [field.format_scalar(x) for x in sp.unit_element],
        "carrier_basis": [[field.format_scalar(x) for x in row] for row in sp.coords.rows],
        "dual_action_global": is_global(sp.dual_action),
    }
    payload["lines"] = [
        f"smash {name}: full {sp.full.dim}, partial {sp.carrier.dim}",
        f"  action is global: {payload['is_global']}",
        f"  unit (A(x)H coords): {payload['unit']}",
        f"  dual H*-action passes and is global: {payload['dual_action_global']}",
    ] + [f"  basis[{i}] = {row}" for i, row in enumerate(payload["carrier_basis"])]
    _emit(payload, output)
    return EXIT_PASS


def cmd_radicals(ws, name: str, output: str) -> int:
    pa = ws.action(name)
    field = pa.field
    sp = build_partial_smash(pa)
    ja = jacobson_radical(pa.alg)
    jc = jacobson_radical(sp.carrier)
    # in finite dimension P = J, so P_H = (P:H) is the kept J_H = (J:H)
    jh = h_jacobson_radical(pa)
    entries = [
        ("J(A)", ja.radical), ("P(A)", ja.radical),
        ("J_H(A)", jh), ("P_H(A)", jh),
        ("J(A#H)", jc.radical), ("P(A#H)", jc.radical),
    ]
    payload = {
        "command": "radicals",
        "action": name,
        "radicals": {
            label: {"dim": s.dim, "basis": format_subspace(field, s)} for label, s in entries
        },
        "method": ja.method,
        "carrier_method": jc.method,
    }
    payload["lines"] = [
        f"radicals for {name} (method: {ja.method}; A#H method: {jc.method})"
    ] + [
        f"  {label}: dim {s.dim}"
        + (f", basis {format_subspace(field, s)}" if s.dim else "")
        for label, s in entries
    ]
    _emit(payload, output)
    return EXIT_PASS


def cmd_enumerate_ideals(ws, name: str, dim_cap: int, field_cap: int, output: str) -> int:
    pa = ws.action(name)
    try:
        ideals = enumerate_h_stable_ideals(pa, dim_cap=dim_cap, field_cap=field_cap)
    except (FieldNotFinite, DimensionTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    payload = {
        "command": "enumerate-ideals",
        "action": name,
        "count": len(ideals),
        "ideals": [
            {"dim": I.dim, "basis": format_subspace(pa.field, I)} for I in ideals
        ],
    }
    payload["lines"] = [f"{len(ideals)} H-stable ideals of {name}"] + [
        f"  dim {I.dim}: {format_subspace(pa.field, I)}" for I in ideals
    ]
    _emit(payload, output)
    return EXIT_PASS


def cmd_verify(args) -> int:
    from psl.verify import THEOREMS

    theorem = THEOREMS.get(args.theorem)
    if theorem is None:
        print(
            f"error: unknown theorem id {args.theorem!r}; known: {', '.join(sorted(THEOREMS))}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    workspace = ()
    if args.workspace:
        ws = load_workspace(args.workspace)
        workspace = [(f"workspace:{name}", pa) for name, pa in ws.actions.items()]
    report = theorem.run(args.seed, args.trials, args.dim_cap, args.field_cap, workspace)
    payload = {
        "command": "verify",
        "theorem": args.theorem,
        "ok": report.ok,
        "checks": len(report.cases),
        "failures": [
            {"name": c.name, "detail": c.detail} for c in report.cases if not c.ok
        ],
        "lines": report.summary().splitlines(),
    }
    _emit(payload, args.output)
    return EXIT_PASS if report.ok else EXIT_MATH_FAIL


def _int_at_least(low: int):
    """argparse type for an int no smaller than `low`; argparse turns a refusal into exit 2."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="psl",
        description="exact checks for partial Hopf actions, smash products and H-radicals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_workspace=True):
        p.add_argument("--workspace", required=needs_workspace, help="workspace JSON file")
        p.add_argument("--output", choices=("text", "json"), default="text")

    p_check = sub.add_parser("check", help="run the axiom checker for a named object")
    common(p_check)
    p_check.add_argument("name")

    p_smash = sub.add_parser("smash", help="build the partial smash product of an action")
    common(p_smash)
    p_smash.add_argument("action")

    p_rad = sub.add_parser("radicals", help="compute all six radicals for an action")
    common(p_rad)
    p_rad.add_argument("action")

    p_enum = sub.add_parser("enumerate-ideals", help="list all H-stable ideals (finite fields)")
    common(p_enum)
    p_enum.add_argument("action")
    p_enum.add_argument("--dim-cap", type=_int_at_least(1), default=6)
    p_enum.add_argument("--field-cap", type=_int_at_least(2), default=5)

    p_ver = sub.add_parser("verify", help="machine-verify one of the named theorems")
    common(p_ver, needs_workspace=False)
    p_ver.add_argument("theorem")
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--trials", type=_int_at_least(0), default=None)
    p_ver.add_argument("--dim-cap", type=_int_at_least(1), default=6)
    p_ver.add_argument("--field-cap", type=_int_at_least(2), default=5)
    return parser


@functools.cache
def _grammar() -> argparse.ArgumentParser:
    """The parser `main` uses: built on its first call and kept for the process.
    Parsing does not change it, so later calls only run `parse_args`."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command in-process and return its exit code."""
    parser = _grammar()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_PASS
    try:
        if args.command == "verify":
            return cmd_verify(args)
        # `check` defers axiom validation to its own checker so that a
        # corrupted tensor reports a witness and exit code 1, not a parse error
        ws = load_workspace(args.workspace, check=args.command != "check")
        if args.command == "check":
            return cmd_check(ws, args.name, args.output)
        if args.command == "smash":
            return cmd_smash(ws, args.action, args.output)
        if args.command == "radicals":
            return cmd_radicals(ws, args.action, args.output)
        # the subparsers are required and their choices fixed, so this is enumerate-ideals
        return cmd_enumerate_ideals(ws, args.action, args.dim_cap, args.field_cap, args.output)
    except WorkspaceAxiomError as exc:
        print(f"axiom failure: {exc}", file=sys.stderr)
        for witness in exc.failures[:5]:
            print(f"  witness: {witness}", file=sys.stderr)
        return EXIT_MATH_FAIL
    except (ParseError, UnresolvedReference) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout now writes to devnull, so the interpreter's last flush of it cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
