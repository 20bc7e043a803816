"""The independent routes stay independent.

The oracle is the ground truth of the differential checks, and route 1 of
the vanishing check (rewrite.evaluates_to_zero) must not share route 2's
code in relations: one fault there would otherwise pass the same wrong
result on both sides.  Read from the source, so a lazy import inside a
function counts too.
"""

import ast
import pathlib

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
    ("oracle", {"msf", "rewrite", "relations"}),
    ("rewrite", {"relations"}),
])
def test_module_does_not_import(module, forbidden):
    imports = package_imports(module)
    assert imports  # the walk does see the module's own imports
    assert not imports & forbidden
