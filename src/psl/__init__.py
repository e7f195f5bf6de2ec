"""psl: exact-arithmetic lab for partial Hopf actions, partial smash
products and equivariant (H-)radicals of finite-dimensional algebras.

Everything is computed over Q (arbitrary-precision rationals) or a prime
field F_p; no floating point anywhere.  Every scalar is an int in [0, p)
over F_p, and over Q an int where it is integral and a Fraction otherwise,
with the field kept on the container that holds it; see psl.exactla.

`import psl` loads no submodule.  Each name of `__all__` is looked up in
`_EXPORTS` on its first access (PEP 562), which imports the module that
defines it and keeps the object here, so `from psl import jacobson_radical`
loads only what `psl.radicals` needs, and a `psl` command only the modules
it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    **dict.fromkeys(("GF", "QQ", "Field", "Matrix", "Subspace"), "psl.exactla"),
    **dict.fromkeys(("Algebra", "AlgebraMap", "check_algebra", "product_of_fields"), "psl.algebra"),
    **dict.fromkeys(
        (
            "GroupTable", "HopfAlgebra", "check_hopf", "dual_group_algebra", "dual_hopf",
            "group_algebra", "is_semisimple", "left_integrals", "sweedler_h4",
        ),
        "psl.hopf",
    ),
    **dict.fromkeys(
        (
            "PartialAction", "PartialCoaction", "action_to_coaction", "c4_triple",
            "check_partial_action", "check_partial_coaction", "coaction_to_action",
            "coinvariant_subalgebra", "colon_ideal", "dual_group_idempotent", "induce_from_ideal",
            "invariant_subalgebra", "is_global", "is_h_stable", "quotient_action", "trivial_action",
        ),
        "psl.paction",
    ),
    **dict.fromkeys(
        ("SmashProduct", "build_full_smash", "build_partial_smash", "phi_ideal", "psi_ideal"),
        "psl.smash",
    ),
    **dict.fromkeys(
        (
            "RadicalReport", "enumerate_h_stable_ideals", "h_jacobson_radical", "h_prime_radical",
            "h_radical_of_ideal", "is_h_prime", "is_h_semiprime", "is_h_semiprimitive", "is_semiprime",
            "is_semiprimitive", "jacobson_radical", "prime_radical",
        ),
        "psl.radicals",
    ),
    **dict.fromkeys(
        (
            "AlgebraModule", "PartialModule", "annihilator", "check_partial_module", "extend_left_module",
            "extend_right_module", "from_smash_module", "irreducible_extension", "is_irreducible",
            "quotient_module", "to_smash_module",
        ),
        "psl.pmod",
    ),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
