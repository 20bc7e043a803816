"""Exact arithmetic in rings of multisymmetric functions.

The invariants of the symmetric group permuting n slots of m variables,
handled through their orbit-sum basis: products, expansion into the
concrete polynomial ring, rewriting into the free generators e_i(nu) for
primitive nu, and the defining relations of the finite-slot ring, with a
brute-force oracle for differential checks.  The reference routines
and library conveniences that no command reaches live in
multisym.reference, which loads on first use of one of its names.
"""

import sys

from .coeffring import QQ, Ring, ZZ, Zmod
from .monomial import grlex_key, mono_cmp, mono_mul, primitive_decompose
from .msf import (INF, AmbientMismatch, MsfElement, WeightExceedsAmbient,
                  alphas_of_multidegree, basis_alphas, e_alpha,
                  element_from_json, element_to_json, make_alpha)
from .polyring import NPoly, npoly_text
from .relations import genpoly_expand, kernel_basis, verify_relation
from .rewrite import (GenPoly, evaluate, newton_p, plethysm_P, primitive_reduce,
                      reduce_to_monomial_es, rewrite)

__version__ = "0.1.0"

__all__ = [
    "Ring", "ZZ", "QQ", "Zmod",
    "mono_mul", "mono_cmp", "grlex_key", "primitive_decompose",
    "NPoly", "subst_slot", "sn_act", "npoly_text", "parse_npoly",
    "INF", "MsfElement", "AmbientMismatch", "WeightExceedsAmbient",
    "make_alpha", "e_alpha", "product", "expand", "truncate", "merge_repeats",
    "ek_of_f", "alphas_of_multidegree", "basis_alphas",
    "element_to_json", "element_from_json",
    "newton_p", "plethysm_P", "to_e_basis",
    "GenPoly", "reduce_to_monomial_es", "primitive_reduce", "rewrite", "evaluate",
    "free_monomial_count",
    "kernel_basis", "relation_polys", "verify_relation", "genpoly_expand",
    "char_zero_ideal_gens", "coverage_rank",
    "clear_caches",
]


def __getattr__(name: str):
    # the names of __all__ not bound above live in reference, which loads on
    # first use of one, so importing the command line front end never compiles it
    if name in __all__:
        from . import reference
        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


def clear_caches() -> None:
    """Empty every module-level functools cache of the package.

    The caches hold ring-independent data, so clearing them only
    costs time; it never changes a result.
    """
    for name, mod in list(sys.modules.items()):
        if not name.startswith(__name__ + "."):
            continue
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
