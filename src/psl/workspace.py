"""Versioned JSON workspace: named groups, Hopf algebras, algebras,
partial actions, ideals and modules.

Scalars travel as strings "num/den" over Q and as plain integers over
F_p, so every load/store round trip is bit-exact.  All explicit tensors
are run through their checkers on load.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field as dc_field

from psl.algebra import Algebra, InvariantViolation, check_algebra, product_of_fields
from psl.exactla import Field, Subspace, parse_field
from psl.hopf import (
    GroupTable,
    HopfAlgebra,
    Matrix,
    check_hopf,
    dual_group_algebra,
    dual_hopf,
    group_algebra,
    sweedler_h4,
)
from psl.paction import (
    PartialAction,
    c4_triple,
    check_partial_action,
    dual_group_idempotent,
    trivial_action,
)
from psl.pmod import PartialModule, check_partial_module

WORKSPACE_VERSION = "psl-workspace/1"


class ParseError(ValueError):
    """Malformed workspace document."""


class UnresolvedReference(KeyError):
    """A name used in the workspace or on the command line does not resolve."""


class WorkspaceAxiomError(ValueError):
    """An explicit tensor in the workspace fails its axiom checker."""

    def __init__(self, name: str, kind: str, failures: tuple[str, ...]):
        super().__init__(f"{kind} {name!r} fails axioms: {failures[0]}")
        self.name = name
        self.kind = kind
        self.failures = failures


@dataclass
class Workspace:
    field: Field
    groups: dict = dc_field(default_factory=dict)
    hopf_algebras: dict = dc_field(default_factory=dict)
    algebras: dict = dc_field(default_factory=dict)
    actions: dict = dc_field(default_factory=dict)
    ideals: dict = dc_field(default_factory=dict)
    modules: dict = dc_field(default_factory=dict)

    def resolve(self, name: str):
        """(kind, object) for a name in any namespace."""
        for kind, table in (
            ("group", self.groups),
            ("hopf", self.hopf_algebras),
            ("algebra", self.algebras),
            ("action", self.actions),
            ("ideal", self.ideals),
            ("module", self.modules),
        ):
            if name in table:
                return kind, table[name]
        raise UnresolvedReference(f"no object named {name!r} in the workspace")

    def action(self, name: str) -> PartialAction:
        if name not in self.actions:
            raise UnresolvedReference(f"no action named {name!r} in the workspace")
        return self.actions[name]


def _section(doc: dict, key: str) -> dict:
    """A name -> entry section of the document, every entry an object."""
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise ParseError(f"{key!r} must be an object mapping names to entries")
    for name, spec in section.items():
        if not isinstance(spec, dict):
            raise ParseError(f"{key!r} entry {name!r} must be an object")
    return section


@contextmanager
def _entry(kind: str, name: str):
    """Report a malformed entry as a ParseError that names it."""
    try:
        yield
    except (ParseError, UnresolvedReference, InvariantViolation):
        raise
    except KeyError as exc:
        raise ParseError(f"{kind} {name!r}: missing {exc}") from exc
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ParseError(f"{kind} {name!r}: {type(exc).__name__}: {exc}") from exc


def load_workspace(path_or_dict, check: bool = True) -> Workspace:
    if isinstance(path_or_dict, dict):
        doc = path_or_dict
    else:
        try:
            with open(path_or_dict, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot read workspace: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("version") != WORKSPACE_VERSION:
        raise ParseError(f"workspace version must be {WORKSPACE_VERSION!r}")
    if "field" not in doc:
        raise ParseError("workspace needs a 'field' entry")
    if not isinstance(doc["field"], dict):
        raise ParseError(f"bad field spec: expected an object, got {type(doc['field']).__name__}")
    try:
        field = parse_field(doc["field"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ParseError(f"bad field spec: {exc}") from exc
    ws = Workspace(field=field)

    for name, spec in _section(doc, "groups").items():
        with _entry("group", name):
            if "cyclic" in spec:
                ws.groups[name] = GroupTable.cyclic(int(spec["cyclic"]))
            elif "cayley" in spec:
                ws.groups[name] = GroupTable(spec["cayley"], labels=spec.get("labels"))
            else:
                raise ParseError(f"group {name!r}: need 'cyclic' or 'cayley'")

    def get_group(name):
        if name not in ws.groups:
            raise UnresolvedReference(f"group {name!r} not defined")
        return ws.groups[name]

    for name, spec in _section(doc, "hopf_algebras").items():
        ctor = spec.get("constructor")
        with _entry("hopf algebra", name):
            if ctor == "group_algebra":
                H = group_algebra(field, get_group(spec["group"]))
            elif ctor == "dual_group_algebra":
                H = dual_group_algebra(field, get_group(spec["group"]))
            elif ctor == "sweedler_h4":
                H = sweedler_h4(field)
            elif ctor == "dual_hopf":
                ref = spec.get("of")
                if ref not in ws.hopf_algebras:
                    raise UnresolvedReference(f"hopf algebra {ref!r} not defined")
                H = dual_hopf(ws.hopf_algebras[ref])
            elif ctor is None:
                alg = Algebra(
                    field,
                    spec["mult"],
                    unit=spec["unit"],
                    labels=spec.get("labels"),
                )
                H = HopfAlgebra(
                    alg,
                    spec["comul"],
                    spec["counit"],
                    Matrix(field, spec["antipode"]),
                )
            else:
                raise ParseError(f"hopf algebra {name!r}: unknown constructor {ctor!r}")
        if ctor is None and check:
            report = check_hopf(H)
            if not report.ok:
                raise WorkspaceAxiomError(name, "hopf algebra", report.failures)
        ws.hopf_algebras[name] = H

    for name, spec in _section(doc, "algebras").items():
        ctor = spec.get("constructor")
        with _entry("algebra", name):
            if ctor == "product_of_fields":
                A = product_of_fields(field, int(spec["k"]))
            elif ctor == "group_algebra":
                A = group_algebra(field, get_group(spec["group"])).alg
            elif ctor is None:
                A = Algebra(
                    field,
                    spec["mult"],
                    unit=spec["unit"] if "unit" in spec else None,
                    labels=spec.get("labels"),
                )
            else:
                raise ParseError(f"algebra {name!r}: unknown constructor {ctor!r}")
        if ctor is None and check:
            report = check_algebra(A)
            if not report.ok:
                raise WorkspaceAxiomError(name, "algebra", report.failures)
        ws.algebras[name] = A

    for name, spec in _section(doc, "actions").items():
        builder = spec.get("builder")
        if builder in ("trivial", None):
            H = ws.hopf_algebras.get(spec.get("hopf"))
            A = ws.algebras.get(spec.get("algebra"))
            if H is None or A is None:
                raise UnresolvedReference(f"action {name!r}: unknown hopf/algebra reference")
        # e.g. BadSubgroup or CharDividesOrder: the document asks for an impossible action
        with _entry("action", name):
            if builder == "trivial":
                pa = trivial_action(H, A)
            elif builder == "c4_triple":
                pa = c4_triple(field)
            elif builder == "dual_group_idempotent":
                pa = dual_group_idempotent(field, get_group(spec["group"]), spec["subgroup"])
            elif builder is None:
                pa = PartialAction(H, A, spec["act"])
            else:
                raise ParseError(f"action {name!r}: unknown builder {builder!r}")
        if builder is None and check:
            report = check_partial_action(pa)
            if not report.ok:
                raise WorkspaceAxiomError(name, "action", report.failures)
        ws.actions[name] = pa

    for name, spec in _section(doc, "ideals").items():
        if "action" in spec:
            pa = ws.actions.get(spec["action"])
            if pa is None:
                raise UnresolvedReference(f"ideal {name!r}: unknown action {spec['action']!r}")
            ambient = pa.alg.dim
        elif "algebra" in spec:
            A = ws.algebras.get(spec["algebra"])
            if A is None:
                raise UnresolvedReference(f"ideal {name!r}: unknown algebra {spec['algebra']!r}")
            ambient = A.dim
        else:
            raise ParseError(f"ideal {name!r}: need an 'action' or 'algebra' reference")
        # e.g. an entry "1/0", or a vector whose length is not the ambient dimension
        with _entry("ideal", name):
            ws.ideals[name] = Subspace.from_vectors(field, ambient, spec.get("vectors", []))

    for name, spec in _section(doc, "modules").items():
        pa = ws.actions.get(spec.get("action"))
        if pa is None:
            raise UnresolvedReference(f"module {name!r}: unknown action {spec.get('action')!r}")
        with _entry("module", name):
            M = PartialModule(
                spec.get("side", "right"),
                pa,
                int(spec["dim"]),
                spec["a_act"],
                spec["h_act"],
            )
        if check:
            report = check_partial_module(M)
            if not report.ok:
                raise WorkspaceAxiomError(name, "module", report.failures)
        ws.modules[name] = M

    return ws


def format_subspace(field: Field, space: Subspace) -> list[list[str]]:
    """Exact entries for reports (no decimal rounding anywhere)."""
    return [[field.format_scalar(x) for x in row] for row in space.rows]
