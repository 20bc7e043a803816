"""Command line front end: golden outputs, exit codes, determinism."""

import hashlib
import json
import random
import sys
import time

import pytest

from conftest import alpha_pool, run_main
from multisym import cli, linalg, msf
from multisym.cli import main
from multisym.coeffring import QQ, ZZ, Zmod
from multisym.monomial import mono_mul
from multisym.msf import INF, MsfElement, e_alpha, element_to_json

A3, B3, C3 = (1, 0, 0), (0, 1, 0), (0, 0, 1)


def canon(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_element(tmp_path, name, x):
    p = tmp_path / name
    p.write_text(json.dumps(element_to_json(x)))
    return str(p)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_product_golden(tmp_path, capsys):
    x = write_element(tmp_path, "x.json",
                      e_alpha([(A3, 1), (B3, 1)], 2, 3, ZZ))
    y = write_element(tmp_path, "y.json", e_alpha([(C3, 2)], 2, 3, ZZ))
    code, out, _ = run(capsys, ["product", x, y])
    assert code == 0
    want = e_alpha([((1, 0, 1), 1), ((0, 1, 1), 1)], 2, 3, ZZ)
    assert out == canon(element_to_json(want))
    # determinism, byte for byte
    code2, out2, _ = run(capsys, ["product", x, y])
    assert (code2, out2) == (code, out)
    code, out, _ = run(capsys, ["product", x, y, "--text"])
    assert out == "e(y2*y3:1, y1*y3:1)\n"


def test_product_identity_is_byte_identical(tmp_path, capsys):
    el = e_alpha([((1, 0), 1)], 2, 2, ZZ)
    x = write_element(tmp_path, "x.json", el)
    one = write_element(tmp_path, "one.json", MsfElement.one(2, 2, ZZ))
    code, out, _ = run(capsys, ["product", x, one])
    assert code == 0
    assert out == canon(element_to_json(el))


def test_product_ambient_mismatch_exits_2(tmp_path, capsys):
    x = write_element(tmp_path, "x.json", e_alpha([((1, 0), 1)], 2, 2, ZZ))
    y = write_element(tmp_path, "y.json", e_alpha([((1, 0), 1)], 3, 2, ZZ))
    code, _, err = run(capsys, ["product", x, y])
    assert code == 2
    assert "mismatch" in err


def test_parse_errors_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    x = write_element(tmp_path, "x.json", e_alpha([((1, 0), 1)], 2, 2, ZZ))
    assert run(capsys, ["product", x, str(bad)])[0] == 3
    assert run(capsys, ["expand", str(tmp_path / "missing.json")])[0] == 3
    inf = write_element(tmp_path, "inf.json", MsfElement.one(INF, 2, ZZ))
    code, _, err = run(capsys, ["expand", inf])
    assert code == 3 and "inf" in err
    assert run(capsys, ["relations", "--n", "1", "--m", "1",
                        "--max-degree", "2", "--ring", "Zmod:4"])[0] == 3
    assert run(capsys, ["relations", "--n", "1", "--m", "2",
                        "--max-degree", "1"])[0] == 3  # wrong length


@pytest.mark.parametrize("n, m, degrees", [("0", "2", "1,1"), ("2", "0", ""),
                                           ("-1", "1", "1")])
def test_relations_rejects_empty_ambient(capsys, n, m, degrees):
    """relations, basis and verify share one refusal of an empty ambient."""
    for cmd in ("relations", "basis"):
        assert run(capsys, [cmd, "--n", n, "--m", m, "--max-degree", degrees]) == (
            3, "", "error: need n >= 1 and m >= 1\n")
    assert run(capsys, ["verify", "--n", n, "--m", m, "--max-total-degree", "1"]) == (
        3, "", "error: need n >= 1, m >= 1 and a nonnegative degree\n")


@pytest.mark.parametrize("argv, err", [
    (["relations", "--n", "2", "--m", "2", "--max-degree", "1,x"],
     "error: bad degree list '1,x'\n"),
    (["basis", "--n", "2", "--m", "2", "--max-degree", "1,x"],
     "error: bad degree list '1,x'\n"),
    (["verify", "--n", "2", "--m", "2", "--max-total-degree", "-1"],
     "error: need n >= 1, m >= 1 and a nonnegative degree\n"),
], ids=["relations-list", "basis-list", "verify-negative"])
def test_bad_degrees_exit_3_with_one_line(capsys, argv, err):
    assert run(capsys, argv) == (3, "", err)


@pytest.mark.parametrize("argv", [
    ["rewrite", "--check", "ELEMENT"],
    ["relations", "--n", "2", "--m", "1", "--max-degree", "3",
     "--ring", "Zmod:3317044064679887385961981"],
    ["verify", "--n", "2", "--m", "1", "--max-total-degree", "2",
     "--ring", "Zmod:3317044064679887385961981"],
])
def test_modulus_beyond_the_primality_bound_exits_3(tmp_path, capsys, argv):
    # 3317044064679887385961981 = 1287836182261 * 2575672364521 is not prime
    d = element_to_json(e_alpha([((1, 0), 1)], INF, 2, ZZ))
    d["ring"] = "Zmod:3317044064679887385961981"
    path = tmp_path / "x.json"
    path.write_text(json.dumps(d))
    code, out, err = run(capsys, [str(path) if a == "ELEMENT" else a for a in argv])
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "3317044064679887385961981" in err


@pytest.mark.parametrize("breakage", [
    lambda d: d["terms"][0].update(coeff=5),
    lambda d: d["terms"][0].update(coeff=None),
    lambda d: d.update(n=True),
    lambda d: d.update(m=True),
    lambda d: d.update(n=2.0),
    lambda d: d["terms"][0]["alpha"][0].update(mult=True),
    lambda d: d["terms"][0]["alpha"][0].update(mult=1.0),
    lambda d: d["terms"][0]["alpha"][0].update(mono=[True, 0]),
    lambda d: d["terms"][0]["alpha"][0].update(mono=[1.0, 0]),
    lambda d: d["terms"][0].update(alpha=3),
    lambda d: (d.update(ring="Q"), d["terms"][0].update(coeff="1/0")),
    lambda d: (d.update(ring="Q"), d["terms"][0].update(coeff="-3/00")),
    lambda d: d["terms"][0].update(coeff=" 1_0 "),
    lambda d: d["terms"][0].update(coeff="1_0"),
    lambda d: d["terms"][0].update(coeff=" 1"),
    lambda d: d["terms"][0].update(coeff="1\n"),
    lambda d: d["terms"][0].update(coeff="\u0661"),  # ARABIC-INDIC DIGIT ONE
    lambda d: d["terms"][0].update(coeff="\uff17"),  # FULLWIDTH DIGIT SEVEN
    lambda d: d.update(ring="Zmod: 7"),
    lambda d: d.update(ring="Zmod:+7"),
    lambda d: d.update(ring="Zmod:\u0667"),  # ARABIC-INDIC DIGIT SEVEN
    lambda d: d.update(ring="Zmod:1_000_003"),
])
@pytest.mark.parametrize("command", ["expand", "product"])
def test_malformed_element_files_exit_3(tmp_path, capsys, breakage, command):
    d = element_to_json(e_alpha([((1, 0), 1)], 2, 2, ZZ))
    breakage(d)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(d))
    argv = [command, str(bad)] + ([str(bad)] if command == "product" else [])
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    # the loader keeps no refused spelling: a second load is refused alike
    assert run(capsys, argv) == (code, out, err)


@pytest.mark.parametrize("content", [
    b"\xff\xfe",                                  # not UTF-8
    b"[" * 100000,                                 # nested past the recursion limit
    b'{"n": ' + b"1" * 5000 + b', "m": 1, "ring": "Z", "terms": []}',  # over the digit limit
], ids=["not-utf8", "deep", "long-literal"])
@pytest.mark.parametrize("command", ["expand", "product"])
def test_unreadable_element_files_exit_3(tmp_path, capsys, content, command):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = [command, str(bad)] + ([str(bad)] if command == "product" else [])
    code, out, err = run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("degrees", ["99999999999999999999,1", f"{sys.maxsize},1"])
@pytest.mark.parametrize("command", ["relations", "basis"])
def test_degrees_at_or_above_maxsize_exit_3(capsys, command, degrees):
    code, out, err = run(capsys, [command, "--n", "2", "--m", "2", "--max-degree", degrees])
    assert code == 3
    assert out == ""
    assert err == f"error: degrees must be below {sys.maxsize}, got {degrees!r}\n"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits")
                    or not sys.get_int_max_str_digits(),
                    reason="this interpreter has no digit limit for str(int)")
@pytest.mark.parametrize("flags", [[], ["--text"]])
def test_result_over_the_digit_limit_exits_3(tmp_path, capsys, flags):
    limit = sys.get_int_max_str_digits()
    d = element_to_json(e_alpha([((1, 0), 1)], 2, 2, ZZ))
    d["terms"][0]["coeff"] = "9" * (limit // 2 + 1)  # the input is under the limit
    x = tmp_path / "x.json"
    x.write_text(json.dumps(d))
    code, out, err = run(capsys, ["product", str(x), str(x)] + flags)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{limit} digits" in err


def _not_started(*args):
    raise AssertionError("an over-budget computation was started")


def _element(tmp_path, n, m, pairs_by_term, name="x.json", ring="Z"):
    d = {"n": n, "m": m, "ring": ring,
         "terms": [{"alpha": [{"mono": list(mu), "mult": k} for mu, k in pairs], "coeff": "1"}
                   for pairs in pairs_by_term]}
    path = tmp_path / name
    path.write_text(json.dumps(d))
    return str(path)


FIELDS = "over 2000000 packed exponent fields"
PLETHYSM = "limited to plethysm degree 16"


@pytest.mark.parametrize("argv, n, pairs_by_term, message", [
    (["expand"], 2**70, [[((1,), 1)]], FIELDS),
    (["expand", "--text"], 2**70, [[((1,), 1)]], FIELDS),
    (["rewrite", "--check"], 2**70, [[((1,), 1)]], FIELDS),
    (["expand"], 2**70, [[]], FIELDS),  # one orbit term, of n*m fields
    (["expand"], 10**6, [[((1,), 10**6)]], FIELDS),  # one orbit term, 10^6 slot keys
    (["rewrite"], "inf", [[((3000,), 1)]], PLETHYSM),
    (["rewrite", "--check", "--text"], "inf", [[((3000,), 1)]], PLETHYSM),
    (["rewrite"], "inf", [[((17,), 1)]], PLETHYSM),
    (["rewrite"], "inf", [[((2,), 9)]], PLETHYSM),  # the multiplicity counts
    (["rewrite"], 3, [[((1,), 1)], [((1,), 2), ((2,), 1)], [((9,), 1), ((10,), 1)]], PLETHYSM),
], ids=["e(y1)-n=2^70", "text", "check", "constant", "weight-n", "e(y1^3000)",
        "e(y1^3000)-check", "e(y1^17)", "e(y1^2:9)", "peeling-reaches-19"])
def test_over_budget_requests_exit_3_before_computing(tmp_path, capsys, monkeypatch,
                                                     argv, n, pairs_by_term, message):
    monkeypatch.setattr(cli.rw, "rewrite", _not_started)
    monkeypatch.setattr(MsfElement, "expand", _not_started)
    x = _element(tmp_path, n, 1, pairs_by_term)
    start = time.perf_counter()
    code, out, err = run(capsys, [argv[0], x] + argv[1:])
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("n, m, pairs_by_term, orbit_terms", [
    (3, 2, [[((1, 0), 1)]], [3]),
    (4, 2, [[((1, 0), 2), ((0, 1), 1)]], [12]),
    (3, 2, [[], [((1, 0), 1)], [((0, 1), 1), ((1, 1), 2)]], [1, 3, 3]),
    (5, 1, [[((1,), 3), ((2,), 1)]], [20]),
])
def test_expansion_budget_counts_orbit_terms_and_slot_keys(tmp_path, capsys, monkeypatch,
                                                          n, m, pairs_by_term, orbit_terms):
    """n*m fields for each orbit term and for each slot of each support
    monomial; the expansion is run exactly at the budget and refused one
    field below it."""
    x = _element(tmp_path, n, m, pairs_by_term)
    assert len(cli._load_element(x).expand().terms) == sum(orbit_terms)
    fields = (sum(orbit_terms) + n * sum(map(len, pairs_by_term))) * n * m
    monkeypatch.setattr(cli, "EXPAND_MAX_FIELDS", fields)
    for argv in (["expand", x], ["rewrite", "--check", x]):
        assert run(capsys, argv)[0] == 0
    monkeypatch.setattr(cli, "EXPAND_MAX_FIELDS", fields - 1)
    for argv in (["expand", x], ["rewrite", "--check", x]):
        code, out, err = run(capsys, argv)
        assert (code, out) == (3, "")
        assert err == (f"error: expanding in n={n} slots needs over {fields - 1} "
                       "packed exponent fields\n")
    assert run(capsys, ["rewrite", x])[0] == 0  # no expansion without --check


def test_plethysm_budget_bounds_what_peeling_reaches(tmp_path, capsys, monkeypatch):
    """The pairs of e(y1^2:1, y1^3:1) have plethysm degrees 2 and 3, but
    peeling meets e_1(y1^5), whose primitive form P_{1,5} has E[5;(1)]."""
    x = _element(tmp_path, "inf", 1, [[((2,), 1), ((3,), 1)]])
    code, out, _ = run(capsys, ["rewrite", "--text", x])
    assert code == 0 and "E[5;(1)]" in out
    monkeypatch.setattr(cli, "REWRITE_MAX_PLETHYSM", 4)
    code, out, err = run(capsys, ["rewrite", "--text", x])
    assert (code, out) == (3, "")
    assert err == ("error: rewrite is limited to plethysm degree 4, and an index "
                   "has a multidegree component of 5\n")
    monkeypatch.setattr(cli, "REWRITE_MAX_PLETHYSM", 5)
    assert run(capsys, ["rewrite", "--text", x])[0] == 0


def test_plethysm_budget_takes_degree_16(tmp_path, capsys):
    x = _element(tmp_path, "inf", 2, [[((16, 0), 1)], [((0, 2), 8)], [((1, 1), 1)]])
    assert run(capsys, ["rewrite", x])[0] == 0


def _write_terms(path, head, terms):
    path.write_text(json.dumps(dict(head, terms=[
        {"alpha": [{"mono": list(mu), "mult": k} for mu, k in pairs], "coeff": c}
        for c, pairs in terms])))
    return str(path)


# CI's $zx: n = 4, m = 1, over Z/7
ZX = [("1", [((4,), 4)]), ("3", [((8,), 2)]), ("2", [((2,), 3), ((5,), 1)])]


# sha256 of stdout of rewrite --check and of rewrite --check --text.  The
# first input reaches P_{1,16} and P_{8,2}; the second cuts P_{i,k} to its
# terms in E[j;(1)] with j <= n = 4, over Z/7.
@pytest.mark.parametrize("head, terms, digests", [
    ({"n": "inf", "m": 2, "ring": "Z"},
     [("1", [((16, 0), 1)]), ("1", [((0, 2), 8)]), ("1", [((1, 1), 1)])],
     ("ad035e1bb0984d9363007bdff3c711a7aa10936d287a54a55c7eb974a21e5b56",
      "0830279b723aae58a3b96c017cdf8dec973d13076782c0d7f0c9f6b431699219")),
    ({"n": 4, "m": 1, "ring": "Zmod:7"}, ZX,
     ("0e2e133a69edb22ea8c8da859ecd362ed3ac596fbdd293c5d21f5a7d9686b0c4",
      "e796ee1599736ec798973af68e28a6ca8aab69588563198f24fa0ceb668b6915")),
], ids=["inf-Z-plethysm-16", "n=4-Zmod7"])
def test_rewrite_check_bytes_are_pinned(tmp_path, capsys, head, terms, digests):
    path = _write_terms(tmp_path / "x.json", head, terms)
    for flags, digest in zip(([], ["--text"]), digests):
        code, out, _ = run(capsys, ["rewrite", "--check", path] + flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def _monomials_coincide(x_terms, y_terms) -> bool:
    """Some index pair has equal argument monomials among its f_i, g_j and
    f_i*g_j, so its tables merge arguments."""
    for _, fs in x_terms:
        for _, gs in y_terms:
            slots = [mu for mu, _ in fs] + [mu for mu, _ in gs]
            slots += [mono_mul(f, g) for f, _ in fs for g, _ in gs]
            if len(set(slots)) < len(slots):
                return True
    return False


# sha256 of stdout of product and of product --text, on pairs whose argument
# monomials coincide (f_i = g_j, f_i*g_j = f_k).  The first is CI's $zx times
# itself; n = 2, 3 and 4 cut the tables by the cap.
QX = [("1/2", [((1, 0), 1), ((0, 1), 1)]), ("-3", [((1, 1), 2)]),
      ("2/3", [((0, 1), 1), ((1, 1), 1)])]
QY = [("5", [((1, 0), 1)]), ("1/7", [((0, 1), 1), ((1, 1), 1)]), ("-1", [((1, 0), 2)])]


@pytest.mark.parametrize("head, x_terms, y_terms, digests", [
    ({"n": 4, "m": 1, "ring": "Zmod:7"}, ZX, ZX,
     ("9dd9864893601db09e33065de7dc66ec2829501601f2123edb28fc7ebe9a26b8",
      "eb63358f8c96dbb4ae90ef4208f63a440852b0b1b9be3080c5748c41c05af784")),
    ({"n": "inf", "m": 1, "ring": "Zmod:7"},
     [("3", [((1,), 2), ((2,), 1)]), ("6", [((3,), 1)])],
     [("4", [((1,), 1), ((2,), 2)]), ("1", [((1,), 3)])],
     ("ee6b0294feed1878e8c8b6dfd91ab57fea301b391079438d460ff64c631837af",
      "e35e50ebdf5d62e0f6b0d83d7a76ec3798a72f292419906c29ab1a107363348b")),
    ({"n": "inf", "m": 2, "ring": "Z"},
     [("2", [((1, 0), 2)]), ("-1", [((1, 0), 1), ((2, 0), 1)]),
      ("3", [((0, 1), 1), ((1, 1), 1)])],
     [("1", [((1, 0), 1)]), ("-2", [((1, 0), 1), ((0, 1), 2)]), ("1", [((1, 1), 1)])],
     ("7bc7c898b295de03d57ac57ecb04a40700464d1b50e9bcf4c67c9508311cdc8e",
      "a59a6b6aadfa8a987115eb1bec2158f014f7648f2940312f8c8a6be563cee747")),
    ({"n": "inf", "m": 2, "ring": "Q"}, QX[:2], QY,
     ("4378611a737a32f5ff2d257f903ae89be66ed598e9907fdc82196d37e3721b70",
      "7135cdecaa07135f9d6f249ed86bd196bb90334ab4284159bdc1d400f7191d6c")),
    ({"n": 3, "m": 2, "ring": "Q"}, QX, QY,
     ("3689276e54fc1f98e7e170b1bc7d6dee3e11c2fff4439cfd468cc4aaec041918",
      "6d8855ec002237b01b5657d28270bd6749f8ee09cee073cfd495029fe946e9e9")),
    ({"n": 2, "m": 1, "ring": "Z"},
     [("1", [((1,), 1), ((2,), 1)]), ("-4", [((3,), 2)])],
     [("1", [((1,), 1)]), ("2", [((1,), 1), ((3,), 1)])],
     ("3d4b2d2f9f318036991de5a4df73694668a31b217d314887fef96b9a72d370ac",
      "fddb79f47d55f9e057888ed4c62dd70e8f9101c112ce1e0818f45c5392d8c065")),
], ids=["n=4-Zmod7-zx", "inf-Zmod7", "inf-Z", "inf-Q", "n=3-Q", "n=2-Z"])
def test_product_bytes_with_coincident_monomials_are_pinned(tmp_path, capsys, head,
                                                             x_terms, y_terms, digests):
    assert _monomials_coincide(x_terms, y_terms)
    x = _write_terms(tmp_path / "x.json", head, x_terms)
    y = _write_terms(tmp_path / "y.json", head, y_terms)
    for flags, digest in zip(([], ["--text"]), digests):
        code, out, _ = run(capsys, ["product", x, y] + flags)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def _seeded_q_element(rng, n, pool, count) -> dict:
    """An element over Q on `count` indices drawn from pool (all of them
    for None), with seeded fractional coefficients, in the JSON form."""
    alphas = pool if count is None else rng.sample(pool, count)
    terms = [{"alpha": [{"mono": list(mu), "mult": k} for mu, k in alpha],
              "coeff": f"{rng.choice([-7, -3, -2, -1, 1, 2, 5, 9])}/{rng.choice([1, 2, 3, 5, 7])}"}
             for alpha in alphas]
    return {"n": "inf" if n is INF else n, "m": 2, "ring": "Q", "terms": terms}


# sha256 of stdout at the size of the benchmark's engine products: a 40-term
# pair in n = 4, and a dense pair in the inverse limit (every index of total
# degree <= 4, 56 terms a side), whose product is rewritten with --check;
# each command is pinned in its JSON and its --text form
@pytest.mark.parametrize("tag, n, total, count, digests", [
    ("n4", 4, 4, 40, {
        "product": "da3ace915585e41c4ada6d18e709e674bd13eaeaff402cd0a0330779761c68fd",
        "product --text": "5fcf63e8166c87d82ffc77681bd842ec58de7c2b083769d6e9cc8562e823926f"}),
    ("inf", INF, 4, None, {
        "product": "4c771c246d8ff1d45b34d065f0019177bbc96f75fbc91b6d7e58f4e35e9d11b6",
        "product --text": "c95e6b4e9cc7083f6e504e5fdf44c40b435004a5546f2d9518a9a5c35e57a313",
        "rewrite --check": "2b8993d170983b966eff2a87a812d36f1caf28f057ef59c53839f63872fec5c4",
        "rewrite --check --text":
            "f7215108bf46e810a58da5f9724e34a613f5ada13c5397bcf1912b0b0161898c"}),
], ids=["n=4-Q-40-terms", "inf-Q-dense"])
def test_engine_scale_product_bytes_are_pinned(tmp_path, tag, n, total, count, digests):
    rng = random.Random(f"engine-scale:{tag}")
    pool = alpha_pool(n, 2, total)
    files = []
    for side in "xy":
        path = tmp_path / f"{side}.json"
        path.write_text(json.dumps(_seeded_q_element(rng, n, pool, count)))
        files.append(str(path))
    got = {}
    for flags in ([], ["--text"]):
        code, out, _ = run_main(["product"] + files + flags)
        assert code == 0
        got[" ".join(["product"] + flags)] = out
    if n is INF:
        z = tmp_path / "z.json"
        z.write_text(got["product"])
        for flags in ([], ["--text"]):
            code, out, _ = run_main(["rewrite", "--check"] + flags + [str(z)])
            assert code == 0
            got[" ".join(["rewrite", "--check"] + flags)] = out
        assert '"check":"PASS"' in got["rewrite --check"]
        assert got["rewrite --check --text"].endswith("\ncheck: PASS\n")
    assert {cmd: hashlib.sha256(out.encode()).hexdigest() for cmd, out in got.items()} == digests


# sha256 of stdout of relations --n 2 --m 2 --max-degree 4,4: every relation
# text is written in one batch per multidegree
@pytest.mark.parametrize("ring, digest", [
    ("Q", "56b56b84a7b8a8ffc7f3a7394d142684fd56851f9da98d0d6009b06dc6135ef7"),
    ("Zmod:2", "f940d938b7003d3f367cb92ab466b6403989f23fb81ed40d6577416d3c72cbaf"),
    ("Zmod:7", "d7991332e2a8526de028afa88fd83648d4942d34b670e57edd9ebe894d892460"),
])
def test_relations_bytes_are_pinned(capsys, ring, digest):
    code, out, _ = run(capsys, ["relations", "--n", "2", "--m", "2", "--max-degree", "4,4",
                                "--ring", ring])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout of relations with one variable, where the plethysm images
# P_{i,k} make up most of each relation
@pytest.mark.parametrize("argv, digest", [
    ("--n 2 --m 1 --max-degree 10",
     "a510a232c22f95be384e17aa8af3ce69b7e52a58f73582485d8da8d57a5683f4"),
    ("--n 2 --m 1 --max-degree 10 --ring Q",
     "fe2dd059af8320c569e7f91d64d39aa11ec1723af2d95979e16cc6716376dd0a"),
    ("--n 3 --m 1 --max-degree 10 --ring Zmod:3",
     "e9914269251c761a5e065ac3020690a77c0f25f23dd1de3edc73d50eb2a50fbc"),
])
def test_one_variable_relations_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, ["relations"] + argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of stdout of verify; the first three also run in CI, the last is
# the benchmark's largest verify shape
@pytest.mark.parametrize("argv, digest", [
    ("--n 3 --m 2 --max-total-degree 4 --ring Z",
     "b16799feafecd0f2c7d8be68282b14ade9b639fff7508fb6b767ce3d7478cc53"),
    ("--n 3 --m 2 --max-total-degree 4 --ring Q",
     "8c578737a0083e9d74f3859e920da6714986c742ffaab412955c7fa3596014a1"),
    ("--n 3 --m 2 --max-total-degree 4 --ring Zmod:5",
     "0bcf9b024ae4bb0fe3d1219940c08e21833dde4a592f95d551336cc7984b1742"),
    ("--n 4 --m 3 --max-total-degree 4 --ring Z",
     "8d220121ab4789799506c419587c978266d2d1848d3159cfa535adeaa9570994"),
])
def test_verify_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, ["verify"] + argv.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


PRODUCT = "error: multiplying needs over 2000000 words of margin tables\n"


@pytest.mark.parametrize("x_pairs, y_pairs", [
    ([[((1,), 2**70)]], [[((1,), 2**70)]]),          # 2^70 + 1 tables
    ([[((1,), 2**60)]], [[((1,), 3000)]]),           # 3001 tables of 180,000-bit factors
    ([[((1,), 30), ((2,), 30)]], [[((1,), 30), ((2,), 30)]]),  # 496^2 tables, 10 words
    ([[((1,), 1)], [((1,), 2**70)]], [[((2,), 2**70)], [((1,), 1)]]),
    # every bound is a product of 200 or 40,000 factors of 70 bits or more
    ([[((d,), 2**70) for d in range(1, 201)]], [[((d,), 2**70) for d in range(1, 201)]]),
], ids=["e(y1:2^70)^2", "2^60-by-3000", "(30,30)^2", "second-terms", "200-monomials"])
def test_over_budget_products_exit_3_before_computing(tmp_path, capsys, monkeypatch,
                                                      x_pairs, y_pairs):
    monkeypatch.setattr(msf, "_margin_tables", _not_started)
    x = _element(tmp_path, "inf", 1, x_pairs, "x.json")
    y = _element(tmp_path, "inf", 1, y_pairs, "y.json")
    for argv in (["product", x, y], ["product", x, y, "--text"]):
        start = time.perf_counter()
        assert run(capsys, argv) == (3, "", PRODUCT)
        assert time.perf_counter() - start < 1


def test_product_budget_counts_distinct_shape_pairs(tmp_path, capsys, monkeypatch):
    """Each pair of multiplicity vectors counts once: the least of its three
    table bounds, times 1 + bits // 64 for the bound on its multinomial
    factors.  The product runs exactly at the budget and is refused one
    word below."""
    x_pairs = [[((0, 1), 2), ((1, 0), 1)], [((1, 1), 2), ((2, 0), 1)], [((0, 1), 3)]]
    y_pairs = [[((1, 0), 1), ((0, 1), 1)], [((2, 1), 1), ((1, 2), 1)]]
    # shapes (2,1), (2,1) again and (3,), by (1,1) twice:
    # (2,1)x(1,1): min(2*2*2*2, C(4,2)*C(3,2), C(3,2)*C(3,2)) = 9 tables,
    #   bits (5-2)*3 = 9, one word each
    # (3,)x(1,1): min(2*2, C(5,2), C(2,1)*C(2,1)) = 4 tables, bits (5-3)*3 = 6
    words = 9 + 4
    for avec in ((2, 1), (3,)):
        assert len(msf._margin_tables(avec, (1, 1), 0)) <= (9 if avec == (2, 1) else 4)
    x = _element(tmp_path, "inf", 2, x_pairs, "x.json")
    y = _element(tmp_path, "inf", 2, y_pairs, "y.json")
    monkeypatch.setattr(cli, "PRODUCT_MAX_TABLE_WORDS", words)
    code, out, _ = run(capsys, ["product", x, y])
    assert code == 0
    assert out == canon(element_to_json(cli._load_element(x) * cli._load_element(y)))
    monkeypatch.setattr(cli, "PRODUCT_MAX_TABLE_WORDS", words - 1)
    assert run(capsys, ["product", x, y]) == (
        3, "", f"error: multiplying needs over {words - 1} words of margin tables\n")


def test_product_budget_weighs_factor_size(tmp_path, capsys, monkeypatch):
    # e(y1:40) e(y1:41): 41 tables; bits (81-41)*7 = 280, so 1 + 4 words each
    x = _element(tmp_path, "inf", 1, [[((1,), 40)]], "x.json")
    y = _element(tmp_path, "inf", 1, [[((1,), 41)]], "y.json")
    monkeypatch.setattr(cli, "PRODUCT_MAX_TABLE_WORDS", 41 * 5)
    assert run(capsys, ["product", x, y])[0] == 0
    monkeypatch.setattr(cli, "PRODUCT_MAX_TABLE_WORDS", 41 * 5 - 1)
    assert run(capsys, ["product", x, y])[0] == 3


def test_product_mismatch_is_reported_before_the_budget(tmp_path, capsys):
    x = _element(tmp_path, "inf", 1, [[((1,), 2**70)]], "x.json")
    y = _element(tmp_path, "inf", 1, [[((1,), 2**70)]], "y.json", ring="Q")
    assert run(capsys, ["product", x, y]) == (
        2, "", "error: ambient mismatch: (inf,1,Z) vs (inf,1,Q)\n")


@pytest.mark.parametrize("k, h", [(5, 5), (3, 12), (12, 3)],
                         ids=["(1)^5-squared", "(1)^3-by-(1)^12", "(1)^12-by-(1)^3"])
def test_product_budget_takes_many_simple_monomials(tmp_path, capsys, k, h):
    """prod (min + 1) is 2^(k*h) here, but a table's k rows are each h
    entries of sum at most 1, and its h columns k entries: at most
    min((h + 1)^k, (k + 1)^h) tables, which the budget takes."""
    x = _element(tmp_path, "inf", 1, [[((d,), 1) for d in range(1, k + 1)]], "x.json")
    y = _element(tmp_path, "inf", 1, [[((d,), 1) for d in range(1, h + 1)]], "y.json")
    code, out, _ = run(capsys, ["product", x, y])
    assert code == 0
    assert out == canon(element_to_json(cli._load_element(x) * cli._load_element(y)))


def test_product_budget_takes_the_largest_bench_shapes(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "PRODUCT_MAX_TABLE_WORDS", 768)
    pairs = [[((1, 0), 2), ((0, 1), 1), ((1, 1), 1)]]
    x = _element(tmp_path, "inf", 2, pairs, "x.json")
    assert run(capsys, ["product", x, x])[0] == 0


def test_expand_golden(tmp_path, capsys):
    x = write_element(tmp_path, "x.json",
                      e_alpha([((1, 0), 2), ((0, 1), 1)], 3, 2, ZZ))
    code, out, _ = run(capsys, ["expand", x])
    assert code == 0
    got = json.loads(out)
    assert got["n"] == 3 and got["m"] == 2 and got["ring"] == "Z"
    assert len(got["terms"]) == 3
    assert all(t["coeff"] == "1" for t in got["terms"])
    code, out, _ = run(capsys, ["expand", x, "--text"])
    assert code == 0
    assert out.count("+") == 2 and "x1(1)" in out


def test_rewrite_golden(tmp_path, capsys):
    x = write_element(tmp_path, "x.json",
                      e_alpha([((1, 0), 2), ((0, 1), 1)], 3, 2, ZZ))
    code, out, _ = run(capsys, ["rewrite", x, "--text"])
    assert code == 0
    assert out == ("E[1;(0,1)]*E[2;(1,0)] - E[1;(1,0)]*E[1;(1,1)]"
                   " + E[1;(2,1)]\n")
    code, out, _ = run(capsys, ["rewrite", x, "--check"])
    assert code == 0
    assert json.loads(out)["check"] == "PASS"
    code, out, _ = run(capsys, ["rewrite", x, "--check", "--text"])
    assert code == 0
    assert out.endswith("check: PASS\n")
    zero = write_element(tmp_path, "zero.json", MsfElement.zero(2, 2, ZZ))
    code, out, _ = run(capsys, ["rewrite", zero, "--text"])
    assert code == 0 and out == "0\n"


def test_rewrite_check_in_the_inverse_limit(tmp_path, capsys):
    x = write_element(tmp_path, "x.json",
                      e_alpha([((2,), 1)], INF, 1, ZZ))
    code, out, _ = run(capsys, ["rewrite", x, "--check"])
    assert code == 0
    assert json.loads(out)["check"] == "PASS"


def test_relations_golden(tmp_path, capsys):
    code, out, _ = run(capsys, ["relations", "--n", "1", "--m", "2",
                                "--max-degree", "1,1"])
    assert code == 0
    got = json.loads(out)
    assert got["verified"] is True
    assert len(got["entries"]) == 1
    entry = got["entries"][0]
    assert entry["multidegree"] == [1, 1] and entry["count"] == 1
    assert entry["relations"][0]["genpoly"] == \
        "E[1;(0,1)]*E[1;(1,0)] - E[1;(1,1)]"
    code, out, _ = run(capsys, ["relations", "--n", "3", "--m", "1",
                                "--max-degree", "3"])
    assert code == 0
    got = json.loads(out)
    assert got["entries"] == [] and got["verified"] is True


def test_basis_golden(tmp_path, capsys):
    code, out, _ = run(capsys, ["basis", "--n", "2", "--m", "2",
                                "--max-degree", "1,1"])
    assert code == 0
    got = json.loads(out)
    counts = {tuple(e["multidegree"]): e["count"] for e in got["entries"]}
    assert counts == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 2}


def test_verify_passes_at_desk_scale(capsys):
    for ring in ("Z", "Zmod:2"):
        code, out, _ = run(capsys, ["verify", "--n", "2", "--m", "2",
                                    "--max-total-degree", "4",
                                    "--ring", ring])
        assert code == 0
        got = json.loads(out)
        assert got["pass"] is True
        names = {c["name"] for c in got["checks"]}
        assert names == {"basis_rank", "homomorphism", "round_trip",
                         "relation_vanishing"}
        assert all(c["failures"] == 0 and c["checked"] > 0
                   for c in got["checks"])


def test_basis_rank_falls_back_to_q_when_short_mod_p(monkeypatch):
    """A rank that comes out short modulo the big prime is decided over Q
    (linalg.rank_over_q); over Z/p the rank is taken over the ring alone."""
    p = Zmod(1000003)
    assert linalg.CERT_FIELD == p
    assert linalg.rank_of([{0: 1, 1: 1}, {1: 1}], 2, p) == 2
    assert linalg.rank_of([{0: 1000003}], 1, p) == 0
    assert linalg.rank_over_q([{0: 1000003}], 1) == 1
    fields = []
    real = linalg.rank_of

    def short_mod_p(rows, ncols, field):
        fields.append(field)
        return real(rows, ncols, field) if field == QQ else 0

    monkeypatch.setattr(linalg, "rank_of", short_mod_p)
    checked, failures = cli._verify_basis_rank(2, 2, 3, ZZ)
    assert failures == 0 and fields == [p, QQ] * checked
    fields.clear()
    assert cli._verify_basis_rank(2, 2, 3, Zmod(5)) == (checked, checked)
    assert fields == [Zmod(5)] * checked


def test_verify_guard_refuses_large_ambient(capsys):
    code, _, err = run(capsys, ["verify", "--n", "5", "--m", "2",
                                "--max-total-degree", "3"])
    assert code == 3
    assert "n <= 4" in err
    code, _, err = run(capsys, ["verify", "--n", "2", "--m", "2",
                                "--max-total-degree", "7"])
    assert code == 3


def test_missing_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("argv", [
    [],
    ["nosuch"],
    ["basis", "--n", "2", "--m", "2", "--max-degree", "1,1", "--bogus"],
    ["basis", "--n", "2"],
    ["relations", "--n", "abc", "--m", "1", "--max-degree", "1"],
    ["product", "x.json"],
    ["basis", "--n", "2", "--m", "2", "--max-degree", "1,1", "line\nbreak"],
])
def test_bad_flags_exit_3_with_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: multisym") and err.count("\n") == 1


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["basis", "--help"])
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: multisym basis") and err == ""


def test_one_parser_serves_every_call(tmp_path):
    """main() reuses one parser; no flag or default carries over a call."""
    x = write_element(tmp_path, "x.json", e_alpha([(A3, 1), (B3, 1)], 2, 3, ZZ))
    y = write_element(tmp_path, "y.json", e_alpha([(C3, 2)], 2, 3, ZZ))
    calls = [
        ["product", "--text", x, y],
        ["product", x, y],
        ["basis", "--n", "2", "--m", "2", "--max-degree", "1,1", "--bogus"],
        ["basis", "--n", "2", "--m", "2", "--max-degree", "1,1"],
        ["basis", "--help"],
    ]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run_main(argv))
    cli._build_parser.cache_clear()
    reused = [run_main(argv) for argv in calls]
    assert cli._build_parser() is cli._build_parser()
    assert [(code, out) for code, out, _ in reused] == [(code, out) for code, out, _ in fresh]
    assert [code for code, _, _ in reused] == [0, 0, 3, 0, 0]
    assert reused[0][1].startswith("e(") and reused[1][1].startswith("{")
    assert reused[2][2].count("\n") == 1 and reused[2][1] == ""
    assert reused[4][1].startswith("usage: multisym basis")
