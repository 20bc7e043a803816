"""The independent routes stay independent.

The oracle is the ground truth of the differential checks, and route 1 of
the vanishing check (rewrite.evaluate) must not share route 2's
code in relations: one fault there would otherwise pass the same wrong
result on both sides.  Nor may route 2 or the oracle read the interned
symbol-monomial ids that GenPoly stores: they read GenPoly.terms, keyed
by the symbol monomials themselves.  The front end, route 2 and the
oracle never name msf's table of index ids either; they build basis
symbols through msf._basis_symbol.  The command line front end never
imports the reference module, so no CLI process compiles it.  Read from
the source, so a lazy import inside a function counts too, and so do the
package's registrations of modules that run on first use (_lazy("name"))
and a lookup of one in sys.modules.
"""

import ast
import importlib
import pathlib
import pkgutil
import sys

import pytest

import multisym
from multisym.coeffring import ZZ, Zmod
from multisym.relations import relations_of, verify_relation
from multisym.rewrite import GenPoly

SRC = pathlib.Path(multisym.__file__).parent


def package_imports(module: str) -> set:
    """The multisym modules a module of the package imports, anywhere in it."""
    names = set()
    for node in ast.walk(ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None:  # from . import x
                names.update(alias.name for alias in node.names)
            elif node.level == 1:
                names.add(node.module.split(".")[0])
            elif node.module and node.module.startswith("multisym."):
                names.add(node.module.split(".")[1])
            elif node.module == "multisym":
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("multisym."))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "_lazy"):  # a registration in __init__
            names.add(node.args[0].value)
        elif (isinstance(node, ast.Subscript) and ast.unparse(node.value) == "sys.modules"
              and isinstance(node.slice, ast.Constant)
              and node.slice.value.startswith("multisym.")):
            names.add(node.slice.value.split(".")[1])
    return names


@pytest.mark.parametrize("module, forbidden", [
    ("oracle", {"msf", "rewrite", "relations", "reference"}),
    ("rewrite", {"relations"}),
])
def test_module_does_not_import(module, forbidden):
    imports = package_imports(module)
    assert imports  # the walk does see the module's own imports
    assert not imports & forbidden


# the intern table of rewrite, its pair table of products, and what reads them
TABLE_NAMES = {"_SYMMONOS", "_IDS", "_intern", "_decoded", "_id_products", "_products"}


def source_names(module: str) -> set:
    """Every name and attribute name in a module of the package."""
    tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
    return ({node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
            | {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
               for alias in node.names})


def test_route_2_imports_only_the_public_rewrite():
    tree = ast.parse((SRC / "relations.py").read_text(encoding="utf-8"))
    taken = {alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "rewrite"
             for alias in node.names}
    assert taken == {"GenPoly", "evaluate", "rewrite"}


@pytest.mark.parametrize("module", ["relations", "oracle"])
def test_module_never_names_the_intern_table(module):
    names = source_names(module)
    assert "terms" in names  # the walk does see attributes
    assert not names & TABLE_NAMES
    assert TABLE_NAMES <= source_names("rewrite")


# msf's intern table of orbit-sum indices
ALPHA_TABLE_NAMES = {"_ALPHAS", "_ALPHA_IDS", "_intern_alpha", "_decoded_alphas"}


@pytest.mark.parametrize("module", ["cli", "relations", "oracle"])
def test_module_never_names_the_index_table(module):
    names = source_names(module)
    assert "terms" in names  # the walk does see attributes
    assert not names & ALPHA_TABLE_NAMES
    assert ALPHA_TABLE_NAMES <= source_names("msf")


def test_route_2_reads_generator_polynomials_through_terms(monkeypatch):
    """While relations are found and checked, no code in relations.py reads
    a GenPoly's id-keyed dict _d."""
    readers = []
    stored = GenPoly.__dict__["_d"]

    def spy(self):
        readers.append(sys._getframe(1).f_code.co_filename)
        return stored.__get__(self, GenPoly)

    monkeypatch.setattr(GenPoly, "_d", property(spy, stored.__set__))
    for ring in (ZZ, Zmod(3)):
        for _, g in relations_of(2, 2, (2, 2), ring):
            assert verify_relation(g, 2)
    relations = str(SRC / "relations.py")
    assert readers and str(SRC / "rewrite.py") in readers
    assert relations not in readers


def test_cli_path_never_imports_reference():
    """The modules cli reaches, through imports anywhere in their source,
    are the engine's; reference is not among them."""
    reached, todo = set(), ["cli"]
    while todo:
        module = todo.pop()
        if module not in reached:
            reached.add(module)
            todo.extend(package_imports(module))
    assert reached == {"cli", "coeffring", "monomial", "msf", "polyring", "rewrite",
                       "relations", "linalg", "oracle"}
    # cli takes rewrite from sys.modules, as the package attribute is the function
    assert {"rewrite", "relations", "linalg", "oracle"} <= package_imports("cli")
    # the walk sees a lazy import and each registration
    assert {"reference", "rewrite", "relations", "linalg", "oracle"} <= package_imports("__init__")


def test_no_package_attribute_shadows_a_submodule():
    """The package attribute rewrite is the function, shadowing the module
    of that name; no other attribute or exported name may do the same."""
    names = {info.name for info in pkgutil.iter_modules(multisym.__path__)}
    assert {"cli", "reference", "rewrite"} <= names
    shadowed = set()
    for name in names:
        module = importlib.import_module(f"multisym.{name}")
        if getattr(multisym, name) is not module:
            shadowed.add(name)
    assert shadowed == {"rewrite"}
    assert set(multisym.__all__) & names == {"rewrite"}
