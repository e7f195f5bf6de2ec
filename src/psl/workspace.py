"""Versioned JSON workspace: named groups, Hopf algebras, algebras,
partial actions, ideals and modules.

Scalars travel as strings "num/den" over Q and as plain integers over
F_p, so every load/store round trip is bit-exact.  Everything the document
states is checked on load: its shape, every reference, every explicit
tensor by its axiom checker, and the parameters of every builder action.
A builder action (`trivial`, `c4_triple`, `dual_group_idempotent`) is
built on its first lookup, at most once per `Workspace`, and the checks its
builder runs on what it builds run then.  A command thus builds only the
actions it uses; an ideal or module builds the action it names on load.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from contextlib import contextmanager
from functools import partial

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
    _check_pair,
    _normal_subgroup,
    c4_triple,
    check_partial_action,
    dual_group_idempotent,
    trivial_action,
)

WORKSPACE_VERSION = "psl-workspace/1"


class ParseError(ValueError):
    """Malformed workspace document."""


class UnresolvedReference(KeyError):
    """A name used in the workspace or on the command line does not resolve."""

    def __str__(self) -> str:
        # KeyError.__str__ would quote the message as if it were a key
        return self.args[0]


class WorkspaceAxiomError(ValueError):
    """An explicit tensor in the workspace fails its axiom checker."""

    def __init__(self, name: str, kind: str, failures: tuple[str, ...]):
        super().__init__(f"{kind} {name!r} fails axioms: {failures[0]}")
        self.name = name
        self.kind = kind
        self.failures = failures


class _Actions(Mapping):
    """Read-only name -> PartialAction in document order.

    An entry is a PartialAction or a thunk that builds one; a thunk runs on
    the first lookup of its name, inside `_entry`, and its action replaces it.
    """

    def __init__(self):
        self._entries = {}

    def __getitem__(self, name: str) -> PartialAction:
        entry = self._entries[name]
        if not isinstance(entry, PartialAction):
            with _entry("action", name):
                entry = entry()
            self._entries[name] = entry
        return entry

    def __contains__(self, name) -> bool:
        return name in self._entries

    def __iter__(self):
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


class Workspace:
    """The named objects of one document, one table per section."""

    def __init__(self, field: Field):
        self.field = field
        self.groups = {}
        self.hopf_algebras = {}
        self.algebras = {}
        self.actions = _Actions()
        self.ideals = {}
        self.modules = {}

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
    """Report a malformed entry as a ParseError, and a name it uses that does not
    resolve as an UnresolvedReference; either message names the entry."""
    try:
        yield
    except (ParseError, InvariantViolation):
        raise
    except UnresolvedReference as exc:
        raise UnresolvedReference(f"{kind} {name!r}: {exc.args[0]}") from exc
    except KeyError as exc:
        raise ParseError(f"{kind} {name!r}: missing {exc}") from exc
    except (ValueError, TypeError, ZeroDivisionError, OverflowError) as exc:
        raise ParseError(f"{kind} {name!r}: {type(exc).__name__}: {exc}") from exc


def _named(table: Mapping, spec: dict, key: str, what: str):
    """The object that the reference `spec[key]` names in `table`.

    Call it inside `_entry`, which names the entry in the error: a reference
    that is not a string is a TypeError, one that names nothing an
    UnresolvedReference.
    """
    ref = spec.get(key)
    if ref is not None and not isinstance(ref, str):
        raise TypeError(f"{key!r} must be a name, got {type(ref).__name__}")
    if ref not in table:
        raise UnresolvedReference(f"unknown {what} {ref!r}")
    return table[ref]


def _integer(x, what: str) -> int:
    """A count or index: a JSON integer (an int, not a bool); a TypeError naming `what` otherwise."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise TypeError(f"{what} must be an integer, got {type(x).__name__}")
    return x


def _integers(xs, what: str) -> list[int]:
    """A JSON list of integers; a TypeError naming `what` otherwise."""
    if not isinstance(xs, list):
        raise TypeError(f"{what} must be a list, got {type(xs).__name__}")
    return [_integer(x, f"{what} entry") for x in xs]


def _labels(spec: dict) -> list[str] | None:
    """The optional 'labels' of an entry: a JSON list of strings."""
    labels = spec.get("labels")
    if labels is not None and not (isinstance(labels, list) and all(isinstance(x, str) for x in labels)):
        raise TypeError(f"'labels' must be a list of strings, got {labels!r}")
    return labels


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
                ws.groups[name] = GroupTable.cyclic(_integer(spec["cyclic"], "'cyclic'"))
            elif "cayley" in spec:
                cayley = [_integers(row, "'cayley' row") for row in spec["cayley"]]
                ws.groups[name] = GroupTable(cayley, labels=_labels(spec))
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
                    labels=_labels(spec),
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
                A = product_of_fields(field, _integer(spec["k"], "'k'"))
            elif ctor == "group_algebra":
                A = group_algebra(field, get_group(spec["group"])).alg
            elif ctor is None:
                A = Algebra(
                    field,
                    spec["mult"],
                    unit=spec["unit"] if "unit" in spec else None,
                    labels=_labels(spec),
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
        # e.g. BadSubgroup or CharDividesOrder: the document asks for an impossible action.
        # A builder's parameters are checked here; the build waits for a lookup.
        with _entry("action", name):
            if builder in ("trivial", None):
                H = _named(ws.hopf_algebras, spec, "hopf", "hopf/algebra reference")
                A = _named(ws.algebras, spec, "algebra", "hopf/algebra reference")
            if builder == "trivial":
                _check_pair(H, A)
                pa = partial(trivial_action, H, A)
            elif builder == "c4_triple":
                pa = partial(c4_triple, field)
            elif builder == "dual_group_idempotent":
                G = get_group(spec["group"])
                N = _normal_subgroup(field, G, _integers(spec["subgroup"], "'subgroup'"))
                pa = partial(dual_group_idempotent, field, G, N)
            elif builder is None:
                pa = PartialAction(H, A, spec["act"])
            else:
                raise ParseError(f"action {name!r}: unknown builder {builder!r}")
        if builder is None and check:
            report = check_partial_action(pa)
            if not report.ok:
                raise WorkspaceAxiomError(name, "action", report.failures)
        ws.actions._entries[name] = pa

    for name, spec in _section(doc, "ideals").items():
        # e.g. an entry "1/0", or a vector whose length is not the ambient dimension
        with _entry("ideal", name):
            if "action" in spec:
                ambient = _named(ws.actions, spec, "action", "action").alg.dim
            elif "algebra" in spec:
                ambient = _named(ws.algebras, spec, "algebra", "algebra").dim
            else:
                raise ParseError(f"ideal {name!r}: need an 'action' or 'algebra' reference")
            ws.ideals[name] = Subspace.from_vectors(field, ambient, spec.get("vectors", []))

    modules = _section(doc, "modules")
    if modules:
        from psl.pmod import PartialModule, check_partial_module  # only a document with modules needs them
    for name, spec in modules.items():
        with _entry("module", name):
            M = PartialModule(
                spec.get("side", "right"),
                _named(ws.actions, spec, "action", "action"),
                _integer(spec["dim"], "'dim'"),
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
