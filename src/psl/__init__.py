"""psl: exact-arithmetic lab for partial Hopf actions, partial smash
products and equivariant (H-)radicals of finite-dimensional algebras.

Everything is computed over Q (arbitrary-precision rationals) or a prime
field F_p; no floating point anywhere.  Every scalar is an int in [0, p)
over F_p or a Fraction over Q, with the field kept on the container that
holds it; see psl.exactla.
"""

from psl.exactla import GF, QQ, Field, Matrix, Subspace
from psl.algebra import Algebra, AlgebraMap, check_algebra, product_of_fields
from psl.hopf import (
    GroupTable,
    HopfAlgebra,
    check_hopf,
    dual_group_algebra,
    dual_hopf,
    group_algebra,
    is_semisimple,
    left_integrals,
    sweedler_h4,
)
from psl.paction import (
    PartialAction,
    PartialCoaction,
    action_to_coaction,
    c4_triple,
    check_partial_action,
    check_partial_coaction,
    coaction_to_action,
    coinvariant_subalgebra,
    colon_ideal,
    dual_group_idempotent,
    induce_from_ideal,
    invariant_subalgebra,
    is_global,
    is_h_stable,
    quotient_action,
    trivial_action,
)
from psl.smash import (
    SmashProduct,
    build_full_smash,
    build_partial_smash,
    dual_hopf_action,
    phi_ideal,
    psi_ideal,
)
from psl.radicals import (
    RadicalReport,
    enumerate_h_stable_ideals,
    h_jacobson_radical,
    h_prime_radical,
    h_radical_of_ideal,
    is_h_prime,
    is_h_semiprime,
    is_h_semiprimitive,
    is_semiprime,
    is_semiprimitive,
    jacobson_radical,
    prime_radical,
)
from psl.pmod import (
    AlgebraModule,
    PartialModule,
    annihilator,
    check_partial_module,
    extend_left_module,
    extend_right_module,
    from_smash_module,
    irreducible_extension,
    is_irreducible,
    quotient_module,
    to_smash_module,
)

__version__ = "0.1.0"
