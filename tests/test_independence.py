"""The independent routes stay independent.

The oracle is the ground truth of the differential checks, and route 1 of
the vanishing check (rewrite.evaluates_to_zero) must not share route 2's
code in relations: one fault there would otherwise pass the same wrong
result on both sides.  The command line front end never imports the
reference module, so no CLI process compiles it.  Read from the source, so
a lazy import inside a function counts too.
"""

import ast
import importlib
import pathlib
import pkgutil

import pytest

import multisym

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
    return names


@pytest.mark.parametrize("module, forbidden", [
    ("oracle", {"msf", "rewrite", "relations", "reference"}),
    ("rewrite", {"relations"}),
])
def test_module_does_not_import(module, forbidden):
    imports = package_imports(module)
    assert imports  # the walk does see the module's own imports
    assert not imports & forbidden


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
    assert "reference" in package_imports("__init__")  # the walk sees a lazy import


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
