"""Job lists of the two benchmark workloads and the engine input generator.

A job is one `multisym` command line.  Every workload is a fixed list of
jobs whose inputs are drawn from the run seed, so the same seed always
gives the same jobs and the same input bytes.  Standard library only: the
program under test receives nothing but argv and the generated JSON files.
"""

from __future__ import annotations

import json
import os
import random
from itertools import permutations

# Z/p moduli a seed can pick for the prime-field jobs.  The stdout digest of
# every job each choice produces is recorded in digests.json.
PRIMES = (5, 7, 11, 13)

# Multiplicity multisets of the engine's basis indices.  A sparse element
# takes the same number of indices of each shape, and the number of margin
# tables in a product depends on these multiplicities only, so the
# engine's work stays nearly the same from seed to seed while the seed
# draws the monomials and the coefficients.
SHAPES = ((1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (4,), (2, 2), (2, 1, 1))


def _job(job_id, argv, flag=None, out=None, pair=None):
    """One CLI call.

    flag: the top-level output field that must be true ("verified", "pass")
    or "PASS" ("check").  pair: the input files of a product, kept so the
    gate can check the product by an independent route.
    """
    return {"id": job_id, "argv": argv, "flag": flag, "out": out, "pair": pair}


def relations_jobs(seed: int, toy: bool = False) -> list:
    """Relation enumeration and the differential property suite.

    `relations` over Z and Z/p with m = 2 and m = 3 checks every relation
    by `evaluate` and by full expansion in the slot variables; `verify`
    over Z, Q and Z/p is the only user of linalg and oracle.  Jobs of under
    a second or so: each job's time is taken over the run's rounds, and the
    sum over many jobs averages out the stalls of a shared machine.  The
    seed picks the modulus of the prime-field jobs and the job order.
    """
    rng = random.Random(f"relations:{seed}")
    p = rng.choice(PRIMES)
    if toy:
        rels = [("3", "2", "2,2", "Z"), ("1", "2", "2,2", f"Zmod:{p}")]
        checks = [("2", "2", "3", f"Zmod:{p}")]
    else:
        rels = [("3", "2", "4,4", "Z"), ("2", "2", "4,4", f"Zmod:{p}"),
                ("3", "2", "4,3", f"Zmod:{p}"), ("2", "3", "2,2,2", "Z")]
        checks = [("4", "3", "4", "Z"), ("3", "3", "5", "Z"), ("2", "2", "6", "Q"),
                  ("2", "3", "4", f"Zmod:{p}")]
    jobs = [_job(f"r{i}", ["relations", "--n", n, "--m", m, "--max-degree", d,
                           "--ring", ring], flag="verified")
            for i, (n, m, d, ring) in enumerate(rels)]
    jobs += [_job(f"v{i}", ["verify", "--n", n, "--m", m,
                            "--max-total-degree", d, "--ring", ring], flag="pass")
             for i, (n, m, d, ring) in enumerate(checks)]
    rng.shuffle(jobs)
    return jobs


def _monomials(m: int, max_deg: int) -> list:
    """Nonconstant exponent vectors of total degree <= max_deg, grlex order."""
    out = [()]
    for _ in range(m):
        out = [mu + (e,) for mu in out for e in range(max_deg + 1)
               if sum(mu) + e <= max_deg]
    out = [mu for mu in out if any(mu)]
    out.sort(key=lambda mu: (sum(mu), mu))
    return out


def _alphas_of_shape(m: int, max_deg: int, shape) -> list:
    """Every index with multiplicities `shape` on distinct monomials of
    total degree <= max_deg, in a fixed order."""
    out = set()
    for support in permutations(_monomials(m, max_deg), len(shape)):
        out.add(tuple(sorted(zip(support, shape),
                             key=lambda t: (sum(t[0]), t[0]))))
    return sorted(out)


def random_element(rng, n, m: int, ring: str, terms, max_deg: int,
                   max_weight: int) -> dict:
    """An element in the CLI's JSON form with seeded coefficients.

    With terms=None every index allowed by max_deg and max_weight is present
    (a dense element; only the coefficients are drawn).  Otherwise `terms`
    distinct indices are drawn, as evenly as possible from each shape.
    """
    shapes = [s for s in SHAPES if sum(s) <= max_weight]
    alphas = []
    for i, shape in enumerate(shapes):
        group = _alphas_of_shape(m, max_deg, shape)
        if terms is None:
            alphas += group
        else:
            quota = terms // len(shapes) + (i < terms % len(shapes))
            alphas += rng.sample(group, quota)
    out = []
    for alpha in alphas:
        c = rng.choice((-9, -7, -5, -3, -2, -1, 1, 2, 3, 4, 6, 8))
        if ring == "Q":
            c = f"{c}/{rng.choice((2, 3, 5, 7))}"
        out.append({"alpha": [{"mono": list(mu), "mult": k} for mu, k in alpha],
                    "coeff": str(c)})
    return {"n": n, "m": m, "ring": ring, "terms": out}


def engine_jobs(seed: int, workdir: str, toy: bool = False) -> list:
    """Orbit-sum products and rewrite round trips on seeded random elements.

    Infinite-ambient pairs over Z and Q are multiplied and each product is
    rewritten with --check (evaluate is the inverse of rewrite there).
    Finite-ambient pairs use the capped margin-table path.  Many moderate
    pairs rather than one large one keep the total steady across seeds.
    Writes the input files under workdir.
    """
    rng = random.Random(f"engine:{seed}")
    # (ambient n, m, ring, terms, max monomial degree, max index weight);
    # terms=None is a dense element, so that the rewrite work, which depends
    # on which indices occur, is the same for every seed.
    if toy:
        pairs = [("inf", 2, "Z", None, 1, 2), (2, 2, "Q", 4, 2, 2)]
    else:
        pairs = [("inf", 2, "Z", None, 2, 2), ("inf", 2, "Q", None, 2, 2),
                 ("inf", 3, "Z", None, 1, 2),
                 (2, 2, "Z", 40, 4, 2), (3, 2, "Z", 40, 3, 3),
                 (4, 2, "Z", 40, 3, 4), (3, 3, "Z", 40, 2, 3),
                 (3, 2, "Q", 40, 3, 3), (4, 2, "Q", 40, 3, 4)]
    jobs = []
    for i, (n, m, ring, terms, deg, weight) in enumerate(pairs):
        files = []
        for side in "xy":
            path = os.path.join(workdir, f"e{i}{side}.json")
            el = random_element(rng, n, m, ring, terms, deg, weight)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(el, fh, sort_keys=True)
            files.append(path)
        z = os.path.join(workdir, f"e{i}z.json")
        jobs.append(_job(f"e{i}p", ["product"] + files, out=z, pair=files))
        if n == "inf":
            jobs.append(_job(f"e{i}r", ["rewrite", "--check", z], flag="check"))
    return jobs
