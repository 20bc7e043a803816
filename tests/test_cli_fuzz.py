"""Fuzz of the command line: every malformed request ends with a documented
exit code and one `error: ` line, never a traceback.

Inputs are random bytes, JSON nested past the recursion limit, valid
elements with one field replaced by a random or mistyped JSON value,
integers over the interpreter's digit limit, and random flag lists.
Replaced integers include slot counts, exponents and multiplicities up to
2^70, in both operands of a product: the expansion, plethysm and product
budgets refuse those requests before computing, and the large values
drawn (17 and up) are all over the budgets wherever they would make the
computation large.
"""

import json
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import run_main

HAS_DIGIT_LIMIT = bool(getattr(sys, "get_int_max_str_digits", lambda: 0)())
LONG = "9" * 5000  # over the default digit limit of str(int) and int(str)
HALF = "9" * 2500  # under it; a product of two such coefficients is over it

VALID = {"n": 2, "m": 2, "ring": "Z",
         "terms": [{"alpha": [{"mono": [1, 0], "mult": 1}], "coeff": "1"}]}
VALID_INF = dict(VALID, n="inf")

# Huge slot counts and exponents: over the expansion budget as n, over the
# plethysm budget as an exponent, over n as a multiplicity, and over the
# product budget as multiplicities of both operands in the infinite ambient.
HUGE = st.sampled_from([17, 40, 3000]) | st.integers(2**60, 2**70)


def json_values(ints):
    return st.recursive(
        st.none() | st.booleans() | ints | st.just(2.5)
        | st.sampled_from(["", "inf", "1", "-3/2", "Z", "Q", "Zmod:4", "Zmod:5",
                           HALF, LONG]) | st.text(max_size=4),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(["alpha", "coeff", "mono", "mult", "x"]),
                          inner, max_size=3),
        max_leaves=6)


VALUES = json_values(st.integers(-2, 3) | HUGE)

# Where in VALID a replacement value goes.
PLACES = [("n",), ("m",), ("ring",), ("terms",), ("terms", 0), ("terms", 0, "alpha"),
          ("terms", 0, "coeff"), ("terms", 0, "alpha", 0),
          ("terms", 0, "alpha", 0, "mono"), ("terms", 0, "alpha", 0, "mono", 0),
          ("terms", 0, "alpha", 0, "mult")]
# The integer places where a huge value can leave the element valid.
SIZE_PLACES = [("n",), ("terms", 0, "alpha", 0, "mono", 0), ("terms", 0, "alpha", 0, "mult")]
MARK = "__REPLACED__"


@st.composite
def element_files(draw) -> bytes:
    kind = draw(st.sampled_from(["bytes", "nested", "mutated", "literal", "huge", "huge"]))
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    if kind == "nested":
        depth = draw(st.sampled_from([50, 5000, 100000]))
        return (b"[" * depth + b"]" * draw(st.sampled_from([0, depth])))
    d = json.loads(json.dumps(draw(st.sampled_from([VALID, VALID_INF]))))
    *path, last = draw(st.sampled_from(SIZE_PLACES if kind == "huge" else PLACES))
    target = d
    for key in path:
        target = target[key]
    if kind != "literal":
        target[last] = draw(HUGE if kind == "huge" else VALUES)
        return json.dumps(d).encode()
    # an integer literal over the digit limit; without a limit it would be
    # a legitimately huge slot count or exponent, so fall back to a string
    target[last] = MARK
    return json.dumps(d).replace(f'"{MARK}"', LONG if HAS_DIGIT_LIMIT else '"x"').encode()


FLAG_WORDS = ["--n", "--m", "--max-degree", "--max-total-degree", "--ring", "--text",
              "--check", "--bogus", "-x", "0", "1", "2", "-1", "abc", "1,1", "2,1",
              "1,1,1", ",", "99999999999999999999", "99999999999999999999,1",
              "Z", "Q", "Zmod:2", "Zmod:4", "Zmod:3317044064679887385961981",
              "Zmod:" + LONG, LONG]
commands = st.sampled_from(["product", "expand", "rewrite", "relations", "basis",
                            "verify", "bogus"])
flag_lists = st.lists(st.sampled_from(FLAG_WORDS) | st.text(max_size=5), max_size=8)


def _check(argv):
    code, out, err = run_main(argv)
    assert code in (0, 2, 3), (argv, code, err[-500:])
    assert "Traceback" not in err
    if code == 3:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err[-500:]
    return code


@settings(max_examples=150, deadline=None)
@given(element_files(), element_files(),
       st.sampled_from([["product", "x", "y"], ["product", "x", "y", "--text"],
                        ["expand", "x"], ["expand", "x", "--text"],
                        ["rewrite", "x", "--check"], ["rewrite", "x", "--text"]]))
def test_malformed_element_files(tmp_path_factory, x, y, argv):
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "x").write_bytes(x)
    (tmp / "y").write_bytes(y)
    _check([str(tmp / a) if a in ("x", "y") else a for a in argv])


@settings(max_examples=150, deadline=None)
@given(commands, flag_lists)
def test_random_flags(command, flags):
    assert _check([command] + flags) != 2  # no operands, so no ambient mismatch
