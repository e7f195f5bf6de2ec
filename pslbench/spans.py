"""Per-layer spans over `psl`, installed from outside the package.

`install` replaces every public function of the `psl` modules by a timing
wrapper, in each `psl` module namespace that holds it (so
`psl.verify.build_partial_smash` is wrapped as well as
`psl.smash.build_partial_smash`), and wraps the public methods on their
classes.  Each wrapper records a span; a span's self time is its duration
minus the time of its child spans.  A call into a group that is already
open further up the stack (recursion, `left_kernel` calling `kernel`)
opens no span of its own, so its time stays with the outer span.

Spans are grouped into the layers of LAYERS; every other public function
gets a group `<module>:<qualname>` of its own, kept in the run record.
Scalar and vector helpers (FOLDED) and generators are not wrapped: their
time counts as the caller's self time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter

LAYERS = {
    "algebra.multiply": ["algebra:Algebra.multiply", "algebra:multiply"],
    "paction.act": ["paction:PartialAction.act_basis", "paction:PartialAction.act_vec"],
    "paction.check": ["paction:check_partial_action"],
    "smash.build": ["smash:build_partial_smash"],
    "smash.full": ["smash:build_full_smash"],
    "algebra.check": ["algebra:check_algebra"],
    "radicals.trace_form": [],  # jacobson_radical, split by RadicalReport.method
    "radicals.brute": [],
    "exactla.enumerate": ["exactla:enumerate_invariant_subspaces"],
    "exactla.from_vectors": ["exactla:Subspace.from_vectors"],
    "exactla.reduce": ["exactla:Subspace.reduce"],
    "exactla.kernel": ["exactla:Matrix.kernel", "exactla:Matrix.left_kernel", "exactla:kernel"],
    "algebra.ideal": ["algebra:ideal_closure", "algebra:is_ideal", "algebra:span_products"],
    "smash.phi_psi": ["smash:phi_ideal", "smash:psi_ideal"],
    "radicals.enumerate_ideals": ["radicals:enumerate_h_stable_ideals"],
    "workspace.load": ["workspace:load_workspace"],
    "paction.colon": ["paction:colon_ideal"],
    "hopf.build": [
        "hopf:group_algebra", "hopf:dual_group_algebra", "hopf:dual_hopf", "hopf:sweedler_h4",
    ],
    "hopf.check": ["hopf:check_hopf"],
    "verify.instance": ["verify:random_partial_action"],
}
# layers whose cost sits mostly in their children: also report time including them
INCLUSIVE = ("workspace.load", "smash.build")
GROUP_OF = {fn: group for group, fns in LAYERS.items() for fn in fns}
RADICAL_METHODS = {"trace-form": "radicals.trace_form", "brute-nilpotent": "radicals.brute"}
JACOBSON = "radicals:jacobson_radical"
KERNEL = "radicals:trace_form_kernel"

FOLDED = {
    "exactla:Fp", "exactla:Field", "exactla:RationalField", "exactla:PrimeField", "exactla:GF",
    "exactla:zero_vec", "exactla:unit_vec", "exactla:vec_add", "exactla:vec_sub",
    "exactla:vec_scale", "exactla:is_zero_vec",
    "algebra:Algebra.coerce", "algebra:Algebra.zero", "algebra:Algebra.basis_vector",
    "radicals:brute_nilpotent_radical",
}


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.frames: list[list] = []  # per open span: [child ns, trace-form kernel dim]
        self.open: Counter = Counter()
        self.brute_candidates = 0

    def span(self, fn, key: str, classify=None):
        frames, open_, calls = self.frames, self.open, self.calls
        self_ns, total_ns = self.self_ns, self.total_ns
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_[key]:
                return fn(*args, **kwargs)
            open_[key] += 1
            frame = [0, None]
            frames.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                frames.pop()
                if frames:
                    frames[-1][0] += dt
                open_[key] -= 1
                group = classify(args, kwargs, result, frame) if classify else key
                calls[group] += 1
                self_ns[group] += dt - frame[0]
                total_ns[group] += dt

        return wrapper

    def observe_kernel(self, fn):
        """trace_form_kernel stays folded; its dim k sizes the brute-force search."""
        frames = self.frames

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            K = fn(*args, **kwargs)
            if frames:
                frames[-1][1] = K.dim
            return K

        return wrapper

    def classify_radical(self, args, kwargs, result, frame) -> str:
        A = args[0] if args else kwargs["A"]
        p = A.field.char
        method = getattr(result, "method", None)
        if method is None:  # raised: the method jacobson_radical would have used
            method = "trace-form" if p == 0 or p > A.dim else "brute-nilpotent"
        group = RADICAL_METHODS.get(method, f"radicals:{method}")
        if group == "radicals.brute" and frame[1] is not None:
            self.brute_candidates += (p ** frame[1] - 1) // (p - 1)
        return group

    def make(self, fn, key: str):
        if key == KERNEL:  # folded too, but observed
            return self.observe_kernel(fn)
        if key in FOLDED or inspect.isgeneratorfunction(fn):
            return None
        if key == JACOBSON:
            return self.span(fn, key, self.classify_radical)
        return self.span(fn, GROUP_OF.get(key, key))

    def install(self) -> int:
        """Wrap every public psl function and method; returns how many were wrapped."""
        count = 0
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == "psl" or name.startswith("psl."))
        }
        replaced = {}
        for modname, mod in modules.items():
            short = modname.rpartition(".")[2]
            if modname == "psl" or short.startswith("_"):
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != modname:
                    continue
                if inspect.isfunction(obj):
                    wrapped = self.make(obj, f"{short}:{name}")
                    if wrapped is not None:
                        replaced[id(obj)] = (obj, wrapped)
                elif inspect.isclass(obj) and f"{short}:{name}" not in FOLDED:
                    count += self._wrap_methods(short, obj)
        for mod in modules.values():
            for name, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
        return count + len(replaced)

    def _wrap_methods(self, short: str, cls) -> int:
        count = 0
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            key = f"{short}:{cls.__name__}.{name}"
            if isinstance(attr, (classmethod, staticmethod)):
                wrapped = self.make(attr.__func__, key)
                if wrapped is not None:
                    setattr(cls, name, type(attr)(wrapped))
                    count += 1
            elif inspect.isfunction(attr):
                wrapped = self.make(attr, key)
                if wrapped is not None:
                    setattr(cls, name, wrapped)
                    count += 1
        return count

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics: calls and self time of each LAYERS group."""
        out = {}
        for group in LAYERS:
            out[f"{group}.calls"] = (self.calls[group], "count")
            out[f"{group}.self_s"] = (self.self_ns[group] / 1e9, "s")
        for group in INCLUSIVE:
            out[f"{group}.total_s"] = (self.total_ns[group] / 1e9, "s")
        out["radicals.brute.candidates"] = (self.brute_candidates, "count")
        instances = self.calls["verify.instance"]
        out["verify.builds_per_instance"] = (
            self.calls["smash.build"] / instances if instances else 0.0, "ratio",
        )
        return out

    def all_groups(self) -> dict[str, dict]:
        return {
            g: {"calls": self.calls[g], "self_s": self.self_ns[g] / 1e9, "total_s": self.total_ns[g] / 1e9}
            for g in sorted(self.calls)
        }
