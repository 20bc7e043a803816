"""Each command runs only the modules it needs, and wrapping stays possible.

The package registers rewrite, relations, oracle and linalg in sys.modules
when it is imported, and each one runs on the first access to one of its
attributes.  Checked in fresh processes: which of them each command runs,
that clear_caches runs none, and that a caller who snapshots the package's
modules right after importing the command line front end (as the bench
tracer does) can replace a layer function in every module that holds it.
"""

import json
import subprocess
import sys

import pytest

import multisym
from multisym import cli
from multisym.coeffring import ZZ
from multisym.msf import INF, e_alpha, element_to_json
from test_process_entry import _child_env

LAZY = ("linalg", "oracle", "relations", "rewrite")

# a module has run once exec has put __builtins__ in its namespace; reading
# the namespace through object.__getattribute__ runs nothing
PRELUDE = (
    "import contextlib, io, json, sys\n"
    "import multisym\n"
    "from multisym import cli\n"
    f"LAZY = {LAZY!r}\n"
    "def ran():\n"
    "    return [name for name in LAZY if '__builtins__' in\n"
    "            object.__getattribute__(sys.modules['multisym.' + name], '__dict__')]\n"
    "def main(argv):\n"
    "    with contextlib.redirect_stdout(io.StringIO()):\n"
    "        return cli.main(argv)\n")


def _child(script: str, *args) -> list:
    """The JSON lines that a fresh interpreter running PRELUDE + script prints."""
    res = subprocess.run([sys.executable, "-c", PRELUDE + script, *map(str, args)],
                         env=_child_env(), capture_output=True, timeout=120)
    assert res.returncode == 0, res.stderr.decode()
    return [json.loads(line) for line in res.stdout.decode().splitlines()]


@pytest.fixture
def x_file(tmp_path):
    x = e_alpha([((1, 0), 2), ((0, 1), 1)], INF, 2, ZZ) + e_alpha([((1, 1), 1)], INF, 2, ZZ)
    path = tmp_path / "x.json"
    path.write_text(json.dumps(element_to_json(x)))
    return path


@pytest.mark.parametrize("argv, runs", [
    (["product", "{x}", "{x}"], []),
    (["product", "{x}", "{x}", "--text"], []),
    (["expand", "{x3}"], []),
    (["basis", "--n", "2", "--m", "2", "--max-degree", "2,2"], []),
    (["rewrite", "--check", "{x}"], ["rewrite"]),
    (["relations", "--n", "2", "--m", "2", "--max-degree", "2,2"], ["relations", "rewrite"]),
    (["verify", "--n", "2", "--m", "2", "--max-total-degree", "3"], list(LAZY)),
], ids=["product", "product-text", "expand", "basis", "rewrite-check", "relations", "verify"])
def test_a_command_runs_only_the_modules_it_needs(x_file, argv, runs):
    x3 = x_file.parent / "x3.json"
    x3.write_text(json.dumps(element_to_json(e_alpha([((1, 0), 2)], 3, 2, ZZ))))
    argv = [a.format(x=x_file, x3=x3) for a in argv]
    got = _child(
        "print(json.dumps([{'multisym.' + n for n in LAZY} <= set(sys.modules), ran()]))\n"
        "code = main(sys.argv[1:])\n"
        "print(json.dumps([code, ran(), type(multisym.rewrite).__name__]))\n", *argv)
    assert got == [[True, []], [0, runs, "function"]]


def test_clear_caches_runs_no_registered_module(x_file):
    got = _child(
        "multisym.clear_caches()\n"
        "print(json.dumps(ran()))\n"
        "main(['product', sys.argv[1], sys.argv[1]])\n"
        "multisym.clear_caches()\n"
        "print(json.dumps(ran()))\n"
        "main(['rewrite', sys.argv[1]])\n"
        "multisym.clear_caches()\n"
        "print(json.dumps([ran(), sys.modules['multisym.rewrite']._reduce_alpha.cache_info().currsize]))\n",
        x_file)
    assert got == [[], [], [["rewrite"], 0]]


# (module, attribute): layer functions the bench tracer wraps, which only
# rewrite, relations and verify reach
TRACED = [("multisym.rewrite", "evaluate"), ("multisym.relations", "genpoly_expand"),
          ("multisym.relations", "kernel_basis"), ("multisym.oracle", "count_orbits")]


def test_a_function_replaced_in_every_module_snapshot_is_called():
    """Snapshot the package's modules right after importing cli, then
    replace each traced function in every snapshot module that holds it:
    relations and verify must call every replacement.  A registered
    module is in the snapshot; one that a command imported only when it
    ran would not be, and its callers would keep the original."""
    got = _child(
        "import importlib\n"
        f"TRACED = {TRACED!r}\n"
        "mods = [m for k, m in sys.modules.items() if k == 'multisym' or k.startswith('multisym.')]\n"
        "calls = dict.fromkeys(['.'.join(t) for t in TRACED], 0)\n"
        "def wrap(name, fn):\n"
        "    def wrapped(*args, **kwargs):\n"
        "        calls[name] += 1\n"
        "        return fn(*args, **kwargs)\n"
        "    return wrapped\n"
        "for modname, attr in TRACED:\n"
        "    orig = getattr(importlib.import_module(modname), attr)\n"
        "    wrapped = wrap(modname + '.' + attr, orig)\n"
        "    for mod in mods:\n"
        "        for key, val in list(vars(mod).items()):\n"
        "            if val is orig:\n"
        "                setattr(mod, key, wrapped)\n"
        "codes = [main(['verify', '--n', '2', '--m', '2', '--max-total-degree', '3']),\n"
        "         main(['relations', '--n', '2', '--m', '2', '--max-degree', '2,2'])]\n"
        "print(json.dumps([codes, calls]))\n")
    codes, calls = got[0]
    assert codes == [0, 0]
    assert set(calls) == {".".join(t) for t in TRACED}
    assert all(calls.values()), calls


def test_the_package_serves_the_registered_modules_and_their_names():
    for name in ("relations", "oracle", "linalg"):
        assert getattr(multisym, name) is sys.modules[f"multisym.{name}"]
    rewrite_mod = sys.modules["multisym.rewrite"]
    assert cli.rw is rewrite_mod and cli.rel is multisym.relations
    assert multisym.rewrite is rewrite_mod.rewrite
    for name, module in multisym._DEFERRED.items():
        assert name in multisym.__all__
        assert getattr(multisym, name) is getattr(sys.modules[f"multisym.{module}"], name)
