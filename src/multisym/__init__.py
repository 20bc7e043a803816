"""Exact arithmetic in rings of multisymmetric functions.

The invariants of the symmetric group permuting n slots of m variables,
handled through their orbit-sum basis: products, expansion into the
concrete polynomial ring, rewriting into the free generators e_i(nu) for
primitive nu, and the defining relations of the finite-slot ring, with a
brute-force oracle for differential checks.

Importing the package runs coeffring, monomial, polyring and msf, the
orbit-sum engine.  The modules rewrite, relations, oracle and linalg are
registered in sys.modules at import, but each one is compiled and run
only on the first access to one of its attributes (importlib.util.
LazyLoader).  So of the commands, product, expand and basis run none of
them; rewrite runs rewrite; relations runs rewrite and relations; verify
runs all four.  The saving is the compile of those modules, which a
process without usable bytecode pays on every start; with the bytecode
cached it is nil.  The package attributes relations, oracle and linalg
are those modules; multisym.rewrite is the function, as every other
exported name of rewrite and relations, served on first use.  The
paper's results as library functions (ek_of_f, char_zero_ideal_gens,
coverage_rank, ...) and the parsers, which no command reaches, live in
multisym.reference, which is not registered: it loads on first use of
one of its names.  The classical e-basis elimination, the S_n slot
helpers and the merge rule written out on its own are references the
tests compare against, and live with the tests.
"""

import sys
from importlib.util import LazyLoader, module_from_spec
from importlib.machinery import PathFinder

from .coeffring import QQ, Ring, ZZ, Zmod
from .monomial import grlex_key, mono_cmp, mono_mul, primitive_decompose
from .msf import (INF, AmbientMismatch, MsfElement, WeightExceedsAmbient,
                  alphas_of_multidegree, basis_alphas, e_alpha,
                  element_from_json, element_to_json, make_alpha)
from .polyring import NPoly, npoly_text

__version__ = "0.1.0"


def _lazy(name: str):
    """Register the submodule name in sys.modules, to run on first attribute access."""
    spec = PathFinder.find_spec(f"{__name__}.{name}", __path__)
    spec.loader = LazyLoader(spec.loader)
    module = module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


relations = _lazy("relations")
oracle = _lazy("oracle")
linalg = _lazy("linalg")
_lazy("rewrite")  # not bound: the package attribute rewrite is the function
# the class of a registered module until its first attribute access runs it
_LazyModule = type(linalg)

# the exported names of the registered modules, served (and run) on first use
_DEFERRED = {
    "genpoly_expand": "relations", "kernel_basis": "relations", "verify_relation": "relations",
    "GenPoly": "rewrite", "evaluate": "rewrite", "newton_p": "rewrite",
    "plethysm_P": "rewrite", "primitive_reduce": "rewrite",
    "reduce_to_monomial_es": "rewrite", "rewrite": "rewrite",
}

__all__ = [
    "Ring", "ZZ", "QQ", "Zmod",
    "mono_mul", "mono_cmp", "grlex_key", "primitive_decompose",
    "NPoly", "npoly_text", "parse_npoly",
    "INF", "MsfElement", "AmbientMismatch", "WeightExceedsAmbient",
    "make_alpha", "e_alpha", "product", "expand", "truncate",
    "ek_of_f", "alphas_of_multidegree", "basis_alphas",
    "element_to_json", "element_from_json",
    "newton_p", "plethysm_P",
    "GenPoly", "reduce_to_monomial_es", "primitive_reduce", "rewrite", "evaluate",
    "free_monomial_count",
    "kernel_basis", "relation_polys", "verify_relation", "genpoly_expand",
    "char_zero_ideal_gens", "coverage_rank",
    "clear_caches",
]


def __getattr__(name: str):
    # the names of __all__ not bound above live in a registered module or in
    # reference, which loads on first use of one, so importing the command
    # line front end never compiles it
    if name in _DEFERRED:
        return getattr(sys.modules[f"{__name__}.{_DEFERRED[name]}"], name)
    if name in __all__:
        from . import reference
        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


def clear_caches() -> None:
    """Empty every module-level functools cache of the package.

    The caches hold ring-independent data, so clearing them only
    costs time; it never changes a result.  A registered module that has
    not run holds no cache, and is left unrun.
    """
    for name, mod in list(sys.modules.items()):
        if not name.startswith(__name__ + ".") or type(mod) is _LazyModule:
            continue
        for obj in vars(mod).values():
            # as cli binds them, a registered module may be an attribute
            if type(obj) is not _LazyModule and callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()
