"""Command line front end: golden outputs, exit codes, determinism."""

import json

import pytest

from multisym import cli
from multisym.cli import main
from multisym.coeffring import QQ, ZZ, Zmod
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
    code, out, err = run(capsys, ["relations", "--n", n, "--m", m,
                                  "--max-degree", degrees])
    assert code == 3
    assert out == ""
    assert err == "error: need n >= 1 and m >= 1\n"


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
    """A rank that comes out short modulo the big prime is decided over Q."""
    assert cli._full_rank([{0: 1, 1: 1}, {1: 1}], 2, Zmod(1000003))
    assert not cli._full_rank([{0: 1000003}], 1, Zmod(1000003))
    assert cli._full_rank([{0: 1000003}], 1, QQ)
    fields = []
    real = cli._full_rank

    def short_mod_p(rows, ncols, field):
        fields.append(field)
        return field == QQ and real(rows, ncols, field)

    monkeypatch.setattr(cli, "_full_rank", short_mod_p)
    checked, failures = cli._verify_basis_rank(2, 2, 3, ZZ)
    assert failures == 0 and fields == [Zmod(1000003), QQ] * checked
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
