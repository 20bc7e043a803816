"""The element loader validates each index spelling once per process.

element_from_json keeps the (id, weight) of every all-int spelling it has
accepted (msf._spelled_ids).  A refused spelling is never kept, so a
second load of the same file is refused with the same exit code and the
same one-line message; True == 1 and 2.0 == 2 in Python, so a spelling
holding either must not find the entry of the int spelling; and the
weight is checked against the ambient on every load, cached or not.
"""

import json

import pytest

import multisym
from conftest import run_main
from multisym.coeffring import ZZ
from multisym.msf import INF, MsfElement, _spelled_ids, element_from_json


def element(*alphas, n="inf") -> dict:
    return {"n": n, "m": 2, "ring": "Z",
            "terms": [{"alpha": a, "coeff": str(c)} for c, a in enumerate(alphas, 1)]}


def part(mono, mult) -> dict:
    return {"mono": mono, "mult": mult}


# each spelling equal (==) to a bad one below, all-int, so each bad one
# would find an entry if the lookup took it
GOOD = [[part([1, 0], 1)], [part([2, 0], 1)], [part([1, 0], 2)], [part([0, 1], 1)],
        [part([1, 0], 1), part([0, 1], 1)]]

BAD = {
    "true-exponent": [part([True, 0], 1)],
    "true-multiplicity": [part([1, 0], True)],
    "float-exponent": [part([2.0, 0], 1)],
    "float-multiplicity": [part([1, 0], 2.0)],
    "negative-exponent": [part([-1, 1], 1)],
    "zero-multiplicity": [part([1, 0], 0)],
    "negative-multiplicity": [part([1, 0], -2)],
    "constant-monomial": [part([0, 0], 1)],
    "repeated-monomial": [part([1, 0], 1), part([1, 0], 2)],
    "mixed-lengths": [part([1, 0], 1), part([1], 1)],
    "mixed-lengths-first": [part([1], 1), part([1, 0], 1)],
}


def write(tmp_path, name, d) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(d))
    return str(p)


@pytest.mark.parametrize("alpha", BAD.values(), ids=BAD.keys())
def test_a_refused_spelling_is_refused_again_the_same_way(tmp_path, alpha):
    multisym.clear_caches()
    good = write(tmp_path, "good.json", element(*GOOD))
    code, out, _ = run_main(["product", good, good])
    assert code == 0 and out
    assert len(_spelled_ids()) == len(GOOD)
    bad = write(tmp_path, "bad.json", element(alpha))
    runs = [run_main(["product", bad, good]) for _ in range(2)]
    assert runs[0] == runs[1]
    code, out, err = runs[0]
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert len(_spelled_ids()) == len(GOOD)


def test_a_cached_spelling_is_still_refused_by_weight(tmp_path):
    multisym.clear_caches()
    alpha = [part([1, 1], 2), part([0, 1], 1)]
    at3 = write(tmp_path, "at3.json", element(alpha, n=3))
    at2 = write(tmp_path, "at2.json", element(alpha, n=2))
    code, out, _ = run_main(["expand", at3])
    assert code == 0 and out
    assert len(_spelled_ids()) == 1
    runs = [run_main(["expand", at2]) for _ in range(2)]
    assert runs[0] == runs[1] == (3, "", f"error: {at2}: index of weight 3 cannot live"
                                         " in ambient n=2\n")
    assert run_main(["expand", at3]) == (code, out, "")


def test_a_spelling_is_kept_as_the_json_lists_it():
    """Two orders of one index are two spellings of one id."""
    multisym.clear_caches()
    y = element_from_json(element([part([0, 1], 1), part([1, 0], 1)]))
    z = element_from_json(element([part([1, 0], 1), part([0, 1], 1)]))
    assert y == z == MsfElement(INF, 2, ZZ, {(((0, 1), 1), ((1, 0), 1)): 1})
    assert len(_spelled_ids()) == 2 and len({*_spelled_ids().values()}) == 1
