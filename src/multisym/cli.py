"""Batch command line front end.

Subcommands: product, expand, rewrite, relations, basis, verify.  Input
elements are UTF-8 JSON files; every output is deterministic, so goldens
can pin bytes.

Exit codes: 0 success, 1 verify found a failing property, 2 ambient
mismatch, 3 parse or validation error (bad flags included) or a request
over a size budget, 4 a --check round trip failed, 5 a relation failed to
vanish.

`run()` is the process entry (`multisym`, `python -m multisym.cli`);
`main(argv)` is the same command for callers in a running interpreter.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
from functools import cache
from math import comb, factorial, perm

from .coeffring import ZZ, Ring
from .monomial import monomials_of_total_degree, multidegrees_upto
from .msf import (INF, AmbientMismatch, MsfElement, _basis_symbol, _split,
                  alpha_multidegree, basis_alphas, element_from_json, element_json_text)
from .polyring import NPoly, key_width, npoly_text, pack_key
# registered by the package, each run on first attribute access (see
# multisym/__init__.py); the package attribute rewrite is the function
from . import linalg, oracle, relations as rel
rw = sys.modules["multisym.rewrite"]

__all__ = ["main", "run"]

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_AMBIENT = 2
EXIT_PARSE = 3
EXIT_CHECK = 4
EXIT_RELATION = 5

VERIFY_MAX_N = 4
VERIFY_MAX_M = 3
VERIFY_MAX_DEG = 6

# Packed exponent fields an expansion may build: each orbit term, and each
# slot of each support monomial, is one key of n*m fields.
EXPAND_MAX_FIELDS = 2_000_000
# Largest plethysm degree i*k of a symbol e_i(nu^k) that rewrite may meet.
# Rewriting an index meets only i*k up to its largest multidegree component,
# which is what is checked; P_{i,k} has about as many terms as i*k has
# partitions, and newton_p recurses i*k deep.
REWRITE_MAX_PLETHYSM = 16
# Margin-table work a product may do.  Multiplicity vectors a, b of lengths
# k, h have at most prod (min(a_i, b_j) + 1), prod C(a_i + h, h) and
# prod C(b_j + k, k) tables, each counted once per 64-bit word of a bound on
# its multinomial factors, (|a| + |b| - max entry) * log2(|a| + |b|) bits.
PRODUCT_MAX_TABLE_WORDS = 2_000_000


class _CliError(Exception):
    def __init__(self, code: int, msg: str):
        super().__init__(msg)
        self.code = code


def _error_line(msg: str) -> str:
    """The one stderr line of a refused request."""
    return "error: " + msg.replace("\n", "\\n") + "\n"


def _render(render, obj) -> str:
    """render(obj); a coefficient too long for str() exits 3, not with a traceback.

    Rendering a computed result does no validation, so its only ValueError
    is str(int) refusing an integer over the interpreter's digit limit.
    """
    try:
        return render(obj)
    except ValueError:
        raise _CliError(
            EXIT_PARSE,
            f"the result has a coefficient over {sys.get_int_max_str_digits()} digits, "
            "the interpreter's limit for integer string conversion (PYTHONINTMAXSTRDIGITS)")


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _print_json(obj, render=None) -> None:
    """Write obj as one line of canonical JSON: sorted keys, no spaces.

    render(obj), when given, writes that text in one pass (elements,
    generator polynomials and expansions); otherwise json.dumps does.
    """
    if render is None:
        render = _canonical_json
    sys.stdout.write(_render(render, obj) + "\n")


def _load_element(path: str) -> MsfElement:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        return element_from_json(data)
    except OSError as exc:
        raise _CliError(EXIT_PARSE, f"cannot read {path}: {exc}")
    except RecursionError:
        raise _CliError(EXIT_PARSE, f"{path}: JSON nested too deeply")
    except json.JSONDecodeError as exc:
        raise _CliError(EXIT_PARSE, f"{path}: invalid JSON: {exc}")
    except ValueError as exc:
        # not UTF-8, a malformed element, or an integer literal over the digit limit
        raise _CliError(EXIT_PARSE, f"{path}: {exc}")


def _npoly_json_text(p: NPoly) -> str:
    """Canonical JSON of an expansion, built in one pass."""
    fmt = p.ring.format_coeff
    terms = ",".join(['{"coeff":"%s","exps":[%s]}' % (fmt(c), ",".join(map(str, mono)))
                      for mono, c in p.sorted_terms()])
    return f'{{"m":{p.m},"n":{p.n},"ring":"{p.ring.to_string()}","terms":[{terms}]}}'


def _check_expansion_size(x: MsfElement) -> None:
    """Refuse to expand x when the keys would exceed EXPAND_MAX_FIELDS."""
    n, m = x.n, x.m
    fields = 0
    for monos, mults, weight in map(_split, x._d):
        fields += n * len(monos) * n * m  # first, so perm only sees small n
        if fields <= EXPAND_MAX_FIELDS:
            orbit = perm(n, weight)
            for k in mults:
                orbit //= factorial(k)
            fields += orbit * n * m
        if fields > EXPAND_MAX_FIELDS:
            raise _CliError(EXIT_PARSE, f"expanding in n={n} slots needs over "
                            f"{EXPAND_MAX_FIELDS} packed exponent fields")


def _capped_prod(factors, cap: int) -> int:
    """The product of positive integers, or cap + 1 once it exceeds cap."""
    out = 1
    for f in factors:
        out *= f
        if out > cap:
            return cap + 1
    return out


@cache
def _table_words(avec: tuple, bvec: tuple, cap: int) -> int:
    """The margin-table words (see PRODUCT_MAX_TABLE_WORDS) of multiplying
    indices of multiplicity vectors avec and bvec; over cap once they pass it."""
    k, h = len(avec), len(bvec)
    total = sum(avec) + sum(bvec)
    bits = (total - max(avec + bvec, default=0)) * total.bit_length()
    tables = min(_capped_prod((min(a, b) + 1 for a in avec for b in bvec), cap),
                 _capped_prod((comb(a + h, h) for a in avec), cap),
                 _capped_prod((comb(b + k, k) for b in bvec), cap))
    return tables * (1 + bits // 64)


def _check_product_size(x: MsfElement, y: MsfElement) -> None:
    """Refuse x * y when its margin tables would exceed PRODUCT_MAX_TABLE_WORDS."""
    cap = PRODUCT_MAX_TABLE_WORDS
    work = 0
    for avec in {_split(k)[1] for k in x._d}:
        for bvec in {_split(k)[1] for k in y._d}:
            work += _table_words(avec, bvec, cap)
            if work > cap:
                raise _CliError(EXIT_PARSE, f"multiplying needs over {cap} words of margin tables")


def _parse_ring(s: str) -> Ring:
    try:
        return Ring.from_string(s)
    except ValueError as exc:
        raise _CliError(EXIT_PARSE, str(exc))


def _check_ambient(n: int, m: int, deg: int | None = None) -> None:
    """Refuse n < 1 or m < 1, and a negative deg when verify gives one."""
    if n < 1 or m < 1 or (deg is not None and deg < 0):
        raise _CliError(EXIT_PARSE, "need n >= 1 and m >= 1" if deg is None
                        else "need n >= 1, m >= 1 and a nonnegative degree")


# an integer flag, or one entry of a degree list: ASCII digits with an
# optional minus sign, as coefficients and the Zmod: modulus are spelled
_FLAG_INT_RE = re.compile(r"-?[0-9]+")


def _flag_int(s: str) -> int:
    """The argparse type of the integer flags; int() alone would also take
    underscores, surrounding spaces, a plus sign and non-ASCII digits."""
    if _FLAG_INT_RE.fullmatch(s):
        try:
            return int(s)
        except ValueError:  # over the interpreter's digit limit
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {s!r}")


def _parse_degrees(s: str, m: int) -> tuple:
    try:
        parts = tuple(_flag_int(t) for t in s.split(","))
    except argparse.ArgumentTypeError:
        raise _CliError(EXIT_PARSE, f"bad degree list {s!r}")
    if len(parts) != m or any(d < 0 for d in parts):
        raise _CliError(EXIT_PARSE, f"need {m} nonnegative degrees, got {s!r}")
    if any(d >= sys.maxsize for d in parts):
        raise _CliError(EXIT_PARSE, f"degrees must be below {sys.maxsize}, got {s!r}")
    return parts


def _cmd_product(args) -> int:
    x = _load_element(args.x)
    y = _load_element(args.y)
    try:
        x._compat(y)
    except AmbientMismatch as exc:
        raise _CliError(EXIT_AMBIENT, f"ambient mismatch: {exc}")
    _check_product_size(x, y)
    z = x * y
    if args.text:
        sys.stdout.write(_render(MsfElement.text, z) + "\n")
    else:
        _print_json(z, element_json_text)
    return EXIT_OK


def _cmd_expand(args) -> int:
    x = _load_element(args.x)
    if x.n is INF:
        raise _CliError(EXIT_PARSE, "cannot expand an element with n=inf")
    _check_expansion_size(x)
    p = x.expand()
    if args.text:
        sys.stdout.write(_render(npoly_text, p) + "\n")
    else:
        _print_json(p, _npoly_json_text)
    return EXIT_OK


@cache
def _top_component(k: int) -> int:
    """The largest multidegree component of the index of id k."""
    monos, mults, _ = _split(k)
    return max(map(sum, zip(*[[e * mult for e in mu] for mu, mult in zip(monos, mults)])),
               default=0)


def _cmd_rewrite(args) -> int:
    x = _load_element(args.x)
    top = max(map(_top_component, x._d), default=0)
    if top > REWRITE_MAX_PLETHYSM:
        raise _CliError(EXIT_PARSE, f"rewrite is limited to plethysm degree {REWRITE_MAX_PLETHYSM},"
                        f" and an index has a multidegree component of {top}")
    if args.check and x.n is not INF:
        _check_expansion_size(x)
    g = rw.rewrite(x)
    check = None
    if args.check:
        back = rw.evaluate(g, x.n)
        if x.n is INF:
            ok = back == x
        else:
            ok = back.expand() == x.expand()
        check = "PASS" if ok else "FAIL"
    if args.text:
        sys.stdout.write(_render(rw.GenPoly.text, g) + "\n")
        if check:
            sys.stdout.write(f"check: {check}\n")
    else:
        _print_json(g, lambda g: rw.genpoly_json_text(g, check))
    if check == "FAIL":
        return EXIT_CHECK
    return EXIT_OK


def _cmd_relations(args) -> int:
    ring = _parse_ring(args.ring)
    n, m = args.n, args.m
    _check_ambient(n, m)
    max_a = _parse_degrees(args.max_degree, m)
    entries = []
    for a in multidegrees_upto(max_a):
        items = rel.relations_of(n, m, a, ring)
        if not items:
            continue
        gs = [g for _, g in items]
        entries.append({
            "multidegree": list(a),
            "count": len(items),
            "verified": all([rel.verify_relation(g, n) for g in gs]),  # every relation checked
            "relations": [{"alpha": [{"mono": list(mu), "mult": mult} for mu, mult in alpha],
                           "genpoly": text}
                          for (alpha, _), text in zip(items, rw.genpoly_texts(gs))],
        })
    all_ok = all(e["verified"] for e in entries)
    _print_json({
        "n": n,
        "m": m,
        "ring": ring.to_string(),
        "max_degree": list(max_a),
        "entries": entries,
        "verified": all_ok,
    })
    return EXIT_OK if all_ok else EXIT_RELATION


def _cmd_basis(args) -> int:
    n, m = args.n, args.m
    _check_ambient(n, m)
    max_a = _parse_degrees(args.max_degree, m)
    entries = []
    for a in multidegrees_upto(max_a):
        alphas = basis_alphas(n, m, a)
        entries.append({
            "multidegree": list(a),
            "count": len(alphas),
            "alphas": [[{"mono": list(mu), "mult": mult} for mu, mult in alpha]
                       for alpha in alphas],
        })
    _print_json({"n": n, "m": m, "entries": entries})
    return EXIT_OK


def _multidegrees_total_upto(m: int, bound: int):
    for total in range(bound + 1):
        yield from monomials_of_total_degree(m, total)


def _basis_upto(n: int, m: int, deg: int) -> list:
    """Every basis index of total degree at most deg, multidegree by multidegree."""
    return [alpha for a in _multidegrees_total_upto(m, deg) for alpha in basis_alphas(n, m, a)]


def _verify_basis_rank(n, m, deg, ring):
    checked = failures = 0
    for a in _multidegrees_total_upto(m, deg):
        alphas = basis_alphas(n, m, a)
        checked += 1
        if len(alphas) != oracle.count_orbits(n, m, a):
            failures += 1
            continue
        # columns keyed by packed monomial, at a width every exponent fits
        w = key_width(max(a))
        cols = {pack_key(mono, w): i
                for i, mono in enumerate(oracle.monomials_of_multidegree(n, m, a))}
        rows = [{cols[k]: c for k, c in
                 _basis_symbol(alpha, n, m, ZZ).expand()._keys_at(w).items()}
                for alpha in alphas]
        # over Z and Q the rank is linalg.rank_over_q; Z/p ranks in the ring itself
        rank = (linalg.rank_over_q(rows, len(cols)) if ring.p is None
                else linalg.rank_of(rows, len(cols), ring))
        if rank < len(rows):
            failures += 1
    return checked, failures


def _verify_homomorphism(n, m, deg, ring, pairs=40):
    pool = _basis_upto(n, m, deg)
    rng = random.Random(f"verify:{n}:{m}:{deg}:{ring.to_string()}")
    checked = failures = 0
    attempts = 0
    while checked < pairs and attempts < pairs * 20:
        attempts += 1
        ax = pool[rng.randrange(len(pool))]
        ay = pool[rng.randrange(len(pool))]
        da = sum(alpha_multidegree(ax, m))
        db = sum(alpha_multidegree(ay, m))
        if da + db > deg + 2:
            continue
        x = _basis_symbol(ax, n, m, ring)
        y = _basis_symbol(ay, n, m, ring)
        checked += 1
        if (x * y).expand() != x.expand() * y.expand():
            failures += 1
    return checked, failures


def _verify_round_trip(n, m, deg, ring):
    xs = [_basis_symbol(alpha, n, m, ring) for alpha in _basis_upto(n, m, deg)]
    return len(xs), sum([rw.evaluate(rw.rewrite(x), n) != x for x in xs])


def _verify_relations(n, m, deg, ring):
    gs = [g for a in _multidegrees_total_upto(m, deg) for _, g in rel.relations_of(n, m, a, ring)]
    return len(gs), sum([g.is_zero or not rel.verify_relation(g, n) for g in gs])


def _cmd_verify(args) -> int:
    ring = _parse_ring(args.ring)
    n, m, deg = args.n, args.m, args.max_total_degree
    _check_ambient(n, m, deg)
    if n > VERIFY_MAX_N or m > VERIFY_MAX_M or deg > VERIFY_MAX_DEG:
        raise _CliError(
            EXIT_PARSE,
            f"verify is desk scale only: n <= {VERIFY_MAX_N}, m <= {VERIFY_MAX_M}, "
            f"degree <= {VERIFY_MAX_DEG}")
    names = [
        ("basis_rank", _verify_basis_rank),
        ("homomorphism", _verify_homomorphism),
        ("round_trip", _verify_round_trip),
        ("relation_vanishing", _verify_relations),
    ]
    checks = []
    all_ok = True
    for name, fn in names:
        checked, failures = fn(n, m, deg, ring)
        ok = failures == 0
        all_ok = all_ok and ok
        checks.append({"name": name, "pass": ok, "checked": checked, "failures": failures})
    _print_json({
        "n": n,
        "m": m,
        "ring": ring.to_string(),
        "max_total_degree": deg,
        "checks": checks,
        "pass": all_ok,
    })
    return EXIT_OK if all_ok else EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    """Bad flags are a malformed request: one error line and exit 3.

    --help still exits 0; subparsers inherit this class.
    """

    def error(self, message):
        self.exit(EXIT_PARSE, _error_line(f"{self.prog}: {message}"))


@cache  # parse_args keeps no state, so one parser serves every main() call
def _build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="multisym",
        description="Exact computations with multisymmetric functions.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("product", help="multiply two elements")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--text", action="store_true")
    p.set_defaults(fn=_cmd_product)

    p = sub.add_parser("expand", help="orbit-sum expansion in the slot variables")
    p.add_argument("x")
    p.add_argument("--text", action="store_true")
    p.set_defaults(fn=_cmd_expand)

    p = sub.add_parser("rewrite", help="express in the free generators")
    p.add_argument("x")
    p.add_argument("--check", action="store_true")
    p.add_argument("--text", action="store_true")
    p.set_defaults(fn=_cmd_rewrite)

    p = sub.add_parser("relations", help="defining relations up to a multidegree")
    p.add_argument("--n", type=_flag_int, required=True)
    p.add_argument("--m", type=_flag_int, required=True)
    p.add_argument("--max-degree", required=True, help="d1,...,dm")
    p.add_argument("--ring", default="Z")
    p.set_defaults(fn=_cmd_relations)

    p = sub.add_parser("basis", help="basis indices up to a multidegree")
    p.add_argument("--n", type=_flag_int, required=True)
    p.add_argument("--m", type=_flag_int, required=True)
    p.add_argument("--max-degree", required=True, help="d1,...,dm")
    p.set_defaults(fn=_cmd_basis)

    p = sub.add_parser("verify", help="run the differential property suite")
    p.add_argument("--n", type=_flag_int, required=True)
    p.add_argument("--m", type=_flag_int, required=True)
    p.add_argument("--max-total-degree", type=_flag_int, required=True)
    p.add_argument("--ring", default="Z")
    p.set_defaults(fn=_cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except _CliError as exc:
        sys.stderr.write(_error_line(str(exc)))
        return exc.code


def run() -> None:
    """Process entry point: main() with the cyclic garbage collector off.

    The engine keeps its results in acyclic cache tables, so in a process
    that exits after one command the collector only walks live data again
    and again.  It is disabled for the command, and the heap is frozen
    before exit so that finalization's full collection skips it; atexit
    handlers and teardown still run.  main() leaves the collector alone,
    for tests and long-lived callers.
    """
    import gc  # only the process entry needs it: importing cli stays as it was

    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
