"""Ring-independent caches, clear_caches, and square-and-multiply powers.

rewrite, evaluate and genpoly_expand cache integer images keyed by the
ambient but not by the coefficient ring.  A result computed with the
caches filled by other rings and ambients must equal the result computed
from empty caches.
"""

import importlib
import os
import pickle
import subprocess
import sys

import pytest

import multisym
from conftest import random_element, run_main, seeded
from multisym import msf, oracle
from multisym.coeffring import QQ, ZZ, Zmod
from multisym.msf import INF, MsfElement
from multisym.polyring import NPoly
from multisym.relations import genpoly_expand
from multisym.rewrite import (GenPoly, _factor_render, evaluate, genpoly_json_text,
                              reduce_to_monomial_es, rewrite)

rewrite_mod = importlib.import_module("multisym.rewrite")
FORMS = [msf._TEXT_FORM, msf._JSON_FORM, rewrite_mod._TEXT_FORM, rewrite_mod._JSON_FORM]

RINGS = [ZZ, Zmod(2), Zmod(3), QQ]
AMBIENTS = [2, 3, INF]


def integer_element(n) -> MsfElement:
    """One integer element per ambient; every ring sees its image."""
    return random_element(seeded(f"caches:{n}"), n, 2, ZZ, 5, max_terms=5)


def in_ring(x: MsfElement, ring) -> MsfElement:
    return MsfElement(x.n, x.m, ring,
                      {a: ring.embed(c) for a, c in x.terms.items()})


def pipeline(ring, n) -> tuple:
    """rewrite, evaluate and genpoly_expand of one element.

    At n = INF the rewrite is expanded in two slots, its image there.
    """
    x = in_ring(integer_element(n), ring)
    g = rewrite(x)
    back = evaluate(g, n)
    expanded = genpoly_expand(g, 2 if n is INF else n)
    return x, g, back, expanded


@pytest.mark.parametrize("rings", [RINGS, RINGS[::-1]], ids=["Z-first", "Q-first"])
def test_warm_caches_agree_with_cold_across_rings_and_ambients(rings):
    multisym.clear_caches()
    warm = {(ring, n): pipeline(ring, n) for ring in rings for n in AMBIENTS}
    for (ring, n), got in warm.items():
        x, g, back, expanded = got
        assert g.ring == ring and back.ring == ring and expanded.ring == ring
        assert back == x
        if n is not INF:
            assert expanded == x.expand()
        multisym.clear_caches()
        assert pipeline(ring, n) == got


def test_peeling_cache_is_keyed_by_ambient():
    # x and its truncations share index ids; the peeling cache tells their
    # primitive forms apart by the ambient alone (None: the monomial e's)
    x = random_element(seeded("caches:ambient"), INF, 2, ZZ, 4, max_terms=8)
    x = x + MsfElement(INF, 2, ZZ, {(((2, 0), 2),): 1, (((1, 1), 1), ((2, 2), 1)): 3})
    jobs = [lambda: rewrite(x), lambda: rewrite(x.truncate(3)),
            lambda: rewrite(x.truncate(2)), lambda: reduce_to_monomial_es(x)]
    cold = []
    for job in jobs:
        multisym.clear_caches()
        cold.append(job())
    for order in (jobs, jobs[::-1]):
        multisym.clear_caches()
        warm = [job() for job in order]
        assert warm == (cold if order is jobs else cold[::-1])
    # e_2(y1^2) = P_{2,2} keeps E[3;y1] and E[4;y1] only above n = 2
    y = x.truncate(2)
    assert rewrite(y) != rewrite(MsfElement(INF, 2, ZZ, dict(y.terms.items())))


def test_clear_caches_empties_every_module_cache():
    x, g, _, _ = pipeline(QQ, 3)
    pipeline(Zmod(3), INF)
    x.text(), g.text()
    oracle.count_orbits(3, 2, (2, 1))
    assert oracle._monomials_cached.cache_info().currsize > 0
    assert oracle._orbit_reps_cached.cache_info().currsize > 0
    assert msf._margin_tables.cache_info().currsize > 0
    assert msf._pair_render.cache_info().currsize > 0
    assert _factor_render.cache_info().currsize > 0
    assert msf._form_rows.cache_info().currsize > 0
    assert rewrite_mod._id_products.cache_info().currsize > 0
    assert rewrite_mod._id_products()
    assert msf.element_from_json(msf.element_to_json(x)) == x
    assert msf._spelled_ids()
    multisym.clear_caches()
    caches = [obj for name, mod in sys.modules.items()
              if name.startswith("multisym.")
              for obj in vars(mod).values() if hasattr(obj, "cache_info")]
    names = {c.__name__ for c in caches}
    assert {"_alpha_product_z", "_margin_tables", "_reduce_alpha", "_expand_alpha",
            "_alphas_cached", "newton_p", "plethysm_P", "_primitive_symbol_z",
            "_evaluate_image_z", "_expansion_z", "_pair_render", "_factor_render",
            "_form_rows", "_monomials_cached", "_orbit_reps_cached", "_id_products",
            "_spelled_ids", "_halves", "_table_words", "_top_component"} <= names
    assert all(c.cache_info().currsize == 0 for c in caches)
    assert not msf._spelled_ids()


def test_rows_written_over_z_write_q_and_zmod_p_as_a_fresh_process():
    """The writers' rows are filled over Z and read over Q and Z/p: each
    ring's bytes are those written in a fresh process from empty rows, and
    no row holds a ring or an ambient."""
    x = random_element(seeded("rows:x"), INF, 2, ZZ, 5, max_terms=8)
    x = x * x + x.one(INF, 2, ZZ)
    g = rewrite(x)
    script = (
        "import pickle, sys\n"
        "from multisym import clear_caches\n"
        "from multisym.msf import element_json_text\n"
        "from multisym.rewrite import genpoly_json_text\n"
        "for x, g in pickle.load(sys.stdin.buffer):\n"
        "    clear_caches()\n"
        "    print(x.text(), element_json_text(x), g.text(), genpoly_json_text(g))\n")
    multisym.clear_caches()
    here = ""
    images = []
    for ring in (ZZ, QQ, Zmod(5)):
        y = in_ring(x, ring)
        h = GenPoly(g.m, ring, {s: ring.embed(c) for s, c in g.terms.items()})
        here += f"{y.text()} {msf.element_json_text(y)} {h.text()} {genpoly_json_text(h)}\n"
        images.append((y, h))
    src = os.path.dirname(multisym.__path__[0])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    fresh = subprocess.run([sys.executable, "-c", script], input=pickle.dumps(images),
                           capture_output=True, env=env, check=True).stdout.decode()
    assert here == fresh
    kinds = set()
    stack = [msf._form_rows(form) for form in FORMS]
    assert all(len(keys) > 1 and keys.keys() == frags.keys() for keys, frags in stack)
    while stack:
        obj = stack.pop()
        kinds.add(type(obj))
        stack.extend(obj.values() if isinstance(obj, dict) else obj if isinstance(obj, tuple) else ())
    assert kinds == {dict, tuple, bytes, str}


def test_relations_bytes_survive_clear_caches():
    # packed images and the coordinate indices they point into are emptied
    # together; one left filled would put fields in the wrong places
    runs = []
    for rings in (("Z", "Zmod:7"), ("Zmod:7", "Z")):
        out = {}
        for ring in rings:
            code, out[ring], _ = run_main(["relations", "--n", "3", "--m", "2",
                                           "--max-degree", "3,3", "--ring", ring])
            assert code == 0
        runs.append(out)
        multisym.clear_caches()
    assert runs[0] == runs[1]


def repeated(x, k: int, one):
    acc = one
    for _ in range(k):
        acc = acc * x
    return acc


@pytest.mark.parametrize("ring", RINGS)
@pytest.mark.parametrize("n", [INF, 2, 3, 4])
def test_powers_equal_repeated_products(ring, n):
    x = random_element(seeded(f"pow:{ring.to_string()}:{n}"), n, 2, ring, 3,
                       max_terms=3)
    g = rewrite(x)
    cases = [(x, MsfElement.one(n, 2, ring)), (g, GenPoly.one(2, ring))]
    if n is not INF:
        p = x.expand()
        cases.append((p, NPoly.one(n, 2, ring)))
    for value, one in cases:
        assert value ** 1 is value
        for k in range(6):
            assert value ** k == repeated(value, k, one)
        with pytest.raises(ValueError):
            value ** -1
