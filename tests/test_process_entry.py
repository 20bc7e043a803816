"""The process entry `run()` against in-process `main()`, and the collector.

`python -m multisym.cli` runs `run()`: main() with the cyclic garbage
collector off and the heap frozen before exit.  That may change no output
byte and no exit code, and main() itself must leave the collector alone.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import multisym
from conftest import run_main
from multisym import cli
from multisym.coeffring import QQ, ZZ
from multisym.msf import INF, e_alpha, element_to_json
from multisym.reference import relation_items
from multisym.relations import verify_relation
from multisym.rewrite import evaluate, rewrite

SRC = str(Path(multisym.__file__).resolve().parent.parent)

# Patches applied before the CLI module runs, in the child and in process,
# so that the exits no well-formed input reaches can be compared too.
PATCHES = {
    "check-fails": ("r = importlib.import_module('multisym.rewrite'); real = r.evaluate; "
                    "r.evaluate = lambda g, n: real(g, n) + real(g, n)"),
    "relation-fails": ("r = importlib.import_module('multisym.relations'); "
                       "r.verify_relation = lambda g, n: False"),
}


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _as_process(argv, cwd, patch=None):
    if patch is None:
        cmd = [sys.executable, "-m", "multisym.cli", *argv]
    else:
        cmd = [sys.executable, "-c",
               "import importlib, runpy; " + PATCHES[patch] + "; "
               "runpy.run_module('multisym.cli', run_name='__main__', alter_sys=True)",
               *argv]
    res = subprocess.run(cmd, cwd=cwd, env=_child_env(), capture_output=True,
                         timeout=120)
    return res.returncode, res.stdout.decode(), res.stderr.decode()


@pytest.fixture
def files(tmp_path):
    def put(name, el):
        (tmp_path / name).write_text(json.dumps(element_to_json(el)))
    put("x.json", e_alpha([((1, 0), 2), ((0, 1), 1)], 3, 2, ZZ))
    put("y.json", e_alpha([((1, 1), 1)], 3, 2, ZZ))
    put("q.json", e_alpha([((2, 0), 1)], INF, 2, QQ))
    put("other.json", e_alpha([((1, 0), 1)], 2, 2, ZZ))
    (tmp_path / "bad.json").write_bytes(b"\xff\xfe")
    return tmp_path


@pytest.mark.parametrize("argv, patch, want", [
    (["product", "x.json", "y.json"], None, 0),
    (["product", "x.json", "y.json", "--text"], None, 0),
    (["expand", "x.json"], None, 0),
    (["rewrite", "q.json", "--check"], None, 0),
    (["rewrite", "x.json", "--check", "--text"], None, 0),
    (["relations", "--n", "2", "--m", "2", "--max-degree", "2,2", "--ring", "Q"], None, 0),
    (["basis", "--n", "2", "--m", "2", "--max-degree", "2,1"], None, 0),
    (["verify", "--n", "2", "--m", "2", "--max-total-degree", "3"], None, 0),
    (["product", "x.json", "other.json"], None, 2),
    (["expand", "bad.json"], None, 3),
    (["basis", "--n", "2", "--m", "2", "--max-degree", "1,1", "--bogus"], None, 3),
    (["rewrite", "q.json", "--check"], "check-fails", 4),
    (["relations", "--n", "1", "--m", "2", "--max-degree", "1,1"], "relation-fails", 5),
])
def test_process_matches_main_byte_for_byte(files, monkeypatch, argv, patch, want):
    code, out, err = _as_process(argv, files, patch)
    monkeypatch.chdir(files)
    if patch == "check-fails":
        real = cli.rw.evaluate
        monkeypatch.setattr(cli.rw, "evaluate", lambda g, n: real(g, n) + real(g, n))
    elif patch == "relation-fails":
        monkeypatch.setattr(cli.rel, "verify_relation", lambda g, n: False)
    assert (code, out, err) == run_main(argv)
    assert code == want
    assert "Traceback" not in err


def test_run_turns_the_collector_off_and_freezes_before_exit(tmp_path):
    script = (
        "import atexit, gc, sys\n"
        "from multisym import cli\n"
        "atexit.register(lambda: print('collector', gc.isenabled(),"
        " gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "sys.argv = ['multisym', 'basis', '--n', '2', '--m', '2', '--max-degree', '1,1']\n"
        "cli.run()\n")
    res = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=_child_env(),
                         capture_output=True, timeout=120)
    assert res.returncode == 0
    assert res.stderr.decode() == "collector False True\n"
    argv = ["basis", "--n", "2", "--m", "2", "--max-degree", "1,1"]
    assert res.stdout.decode() == run_main(argv)[1]


@pytest.mark.parametrize("argv", [
    ["basis", "--n", "2", "--m", "2", "--max-degree", "2,2"],
    ["relations", "--n", "1", "--m", "2", "--max-degree", "2,1"],
    ["expand", "missing.json"],
    ["basis", "--bogus"],
])
def test_main_leaves_the_collector_alone(tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    was_enabled = gc.isenabled()
    gc.enable()
    try:
        frozen = gc.get_freeze_count()
        run_main(argv)
        after = gc.isenabled(), gc.get_freeze_count()
    finally:
        if not was_enabled:
            gc.disable()
    assert after == (True, frozen)


def test_cli_import_leaves_reference_unloaded(tmp_path):
    """Importing the CLI and running its commands never loads reference, and
    only verify runs linalg, which the package registers unrun (a module has
    run once exec has put __builtins__ in its namespace); the package still
    serves every exported name."""
    x = tmp_path / "x.json"
    x.write_text(json.dumps(element_to_json(e_alpha([((1, 0), 2), ((0, 1), 1)], INF, 2, ZZ))))
    script = (
        "import contextlib, io, sys\n"
        "import multisym.cli\n"
        "def loaded():\n"
        "    return [m for m in ('multisym.reference', 'multisym.linalg') if m in sys.modules\n"
        "            and '__builtins__' in object.__getattribute__(sys.modules[m], '__dict__')]\n"
        "print(loaded())\n"
        "for argv in (['product', sys.argv[1], sys.argv[1]],\n"
        "             ['relations', '--n', '1', '--m', '2', '--max-degree', '2,1'],\n"
        "             ['verify', '--n', '2', '--m', '1', '--max-total-degree', '2']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = multisym.cli.main(argv)\n"
        "    print(argv[0], code, loaded())\n"
        "import multisym\n"
        "print(all([getattr(multisym, name) is not None for name in multisym.__all__]))\n"
        "from multisym import *\n"
        "from multisym.reference import coverage_rank as direct\n"
        "print(coverage_rank is direct, set(multisym.__all__) <= set(dir()) & set(dir(multisym)))\n")
    res = subprocess.run([sys.executable, "-c", script, str(x)], cwd=tmp_path,
                         env=_child_env(), capture_output=True, timeout=120)
    assert (res.returncode, res.stdout.decode()) == (0, (
        "[]\nproduct 0 []\nrelations 0 []\nverify 0 ['multisym.linalg']\n"
        "True\nTrue True\n"))
    with pytest.raises(AttributeError):
        multisym.no_such_name


def _warm_pass():
    for ring in (ZZ, QQ):
        for n in (3, INF):
            x = e_alpha([((1, 0), 2), ((0, 1), 1)], n, 2, ring)
            y = e_alpha([((1, 1), 1), ((2, 0), 1)], n, 2, ring)
            z = x * y
            assert evaluate(rewrite(z), n) == z
        for _, _, g in relation_items(2, 2, (2, 2), ring):
            assert verify_relation(g, 2)


def test_a_warm_pass_leaves_no_cyclic_garbage():
    """What run() relies on: with the collector off, a warm pass leaves
    nothing for it to find."""
    _warm_pass()
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        _warm_pass()
        found = gc.collect()
    finally:
        if was_enabled:
            gc.enable()
    assert found == 0
