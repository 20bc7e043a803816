"""Benchmark of the `multisym` command line tool.  Standard library only.

    python3 bench/run.py --workload relations|engine --seed N \\
        --seconds S --trace 0|1

Run from anywhere; paths are taken relative to the checkout that holds
this file.  The program is run from source (src/), nothing is installed.

--trace 0 measures end to end.  Every CLI job runs in a fresh process, one
at a time (a closed loop with one client), and the job list is repeated
until S seconds are used up.  Reported:

  wall_s       sum over jobs of the job's median wall time in the run (cold)
  cpu_s        the same for user+sys CPU time of the job's process (cold)
  warm_s       the same for the job run through multisym.cli.main in one
               process whose caches an identical earlier pass filled
  setup_s      median wall time of a fresh interpreter to import
               multisym.cli, sampled before every pass
  peak_rss_mb  largest ru_maxrss of a job process
  error_rate   failed jobs / attempted jobs (also in "failed")

Every time sample is scaled to a fixed reference speed by reference work
timed around it (calib.py), so the four times are seconds at that speed;
the unscaled sums are kept in the results file as raw_s.

--trace 1 runs the same job list in-process with every layer wrapped and
reports per-layer self time and counts (see inproc.py), plus the tracing
overhead.  Each job's stdout passes the same output gate in both modes.

Results, stamped with the git sha, Python version and CPU count, go to
bench/out/; the last line of stdout is a JSON summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import calib
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
DIGESTS = os.path.join(BENCH, "digests.json")

MIN_ROUNDS = 3       # rounds of cold and warm passes, even past the deadline
SETUP_SAMPLES = 5    # fresh interpreters timed for setup_s in each round

END_TO_END = {  # name: (unit, cache state)
    "wall_s": ("s", "cold"),
    "cpu_s": ("s", "cold"),
    "warm_s": ("s", "warm"),
    "setup_s": ("s", "cold"),
    "peak_rss_mb": ("MB", "cold"),
}

# Per-layer metrics of the traced run: (name, unit, pass it is read from).
PER_LAYER = (
    ("relations.genpoly_expand.self_s", "s", "cold"),
    ("relations.genpoly_expand.calls", "count", "cold"),
    ("polyring.npoly_mul.self_s", "s", "cold"),
    ("polyring.npoly_mul.terms_out", "count", "cold"),
    ("msf.expand.self_s", "s", "cold"),
    ("msf.expand.warm_self_s", "s", "warm"),
    ("msf.expand.terms_out", "count", "cold"),
    ("rewrite.evaluate.self_s", "s", "cold"),
    ("rewrite.evaluate.terms_out", "count", "cold"),
    ("msf.product.self_s", "s", "cold"),
    ("msf.product.warm_self_s", "s", "warm"),
    ("msf.product.calls", "count", "cold"),
    ("msf.product.terms_out", "count", "cold"),
    ("rewrite.primitive_reduce.self_s", "s", "cold"),
    ("rewrite.primitive_reduce.terms_out", "count", "cold"),
    ("rewrite.reduce_to_monomial_es.self_s", "s", "cold"),
    ("rewrite.reduce_to_monomial_es.warm_self_s", "s", "warm"),
    ("msf.product_cache.hits", "count", "cold"),
    ("msf.product_cache.misses", "count", "cold"),
    ("rewrite.reduce_cache.hits", "count", "cold"),
    ("rewrite.reduce_cache.misses", "count", "cold"),
    ("linalg.rank_tracker.self_s", "s", "cold"),
    ("linalg.rank_tracker.rows", "count", "cold"),
    ("oracle.self_s", "s", "cold"),
    ("oracle.orbits", "count", "cold"),
    ("relations.kernel_basis.self_s", "s", "cold"),
    ("relations.kernel_basis.count", "count", "cold"),
    ("msf.basis_alphas.self_s", "s", "cold"),
    ("cli.load.self_s", "s", "cold"),
    ("cli.dump.self_s", "s", "cold"),
    ("cli.dump.bytes", "bytes", "cold"),
    ("trace.overhead_ratio", "ratio", "cold"),
)

# The evaluation check of products works modulo this prime.
CHECK_PRIME = (1 << 61) - 1


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _file_sha(path: str) -> str:
    return _sha256(_read(path))


def job_key(job) -> str:
    """The job's command line with each input file named by its sha256,
    so equal keys mean equal inputs wherever the files live."""
    return " ".join("sha256:" + _file_sha(a) if os.path.isfile(a) else a
                    for a in job["argv"])


# ---------------------------------------------------------------------------
# output gate

def _element_value(el: dict, points: list) -> list:
    """Value of an element at each point, modulo CHECK_PRIME.

    A point gives every slot variable a value; e_alpha is summed over all
    ways to give each support monomial of alpha its multiplicity many
    distinct slots, slot by slot over the multiplicities still unplaced.
    This shares no code with the program.
    """
    P = CHECK_PRIME
    out = []
    for point in points:
        total = 0
        for term in el["terms"]:
            num, _, den = term["coeff"].partition("/")
            c = int(num) * pow(int(den or 1), -1, P)
            monos = [e["mono"] for e in term["alpha"]]
            states = {tuple(e["mult"] for e in term["alpha"]): 1}
            for slot in point:
                vals = []
                for mu in monos:
                    v = 1
                    for x, e in zip(slot, mu):
                        v = v * pow(x, e, P) % P
                    vals.append(v)
                nxt = dict(states)
                for left, acc in states.items():
                    for i, k in enumerate(left):
                        if k:
                            s = left[:i] + (k - 1,) + left[i + 1:]
                            nxt[s] = (nxt.get(s, 0) + acc * vals[i]) % P
                states = nxt
            total = (total + c * states.get((0,) * len(monos), 0)) % P
        out.append(total)
    return out


def product_holds(pair, z_bytes: bytes) -> bool:
    """z = x*y checked at two random points of a slot count where the map
    from the ambient is one-to-one on every index involved."""
    x, y = (json.loads(_read(p)) for p in pair)
    z = json.loads(z_bytes)
    if x["ring"] not in ("Z", "Q") or z["ring"] != x["ring"]:
        return False
    weight = lambda el: max((sum(e["mult"] for e in t["alpha"])
                             for t in el["terms"]), default=0)
    n = x["n"] if x["n"] != "inf" else weight(x) + weight(y)
    if z["n"] != x["n"] or weight(z) > n:
        return False
    rng = random.Random(_sha256(z_bytes))
    points = [[[rng.randrange(CHECK_PRIME) for _ in range(x["m"])]
               for _ in range(n)] for _ in range(2)]
    vx, vy, vz = (_element_value(el, points) for el in (x, y, z))
    return all(a * b % CHECK_PRIME == c for a, b, c in zip(vx, vy, vz))


class Gate:
    """Exit code, the output's own verdict field, the recorded digest or an
    independent check, and byte-identical repeats of the first output."""

    def __init__(self, digests: dict):
        self.digests = digests
        self.first: dict[str, tuple] = {}  # job id -> (sha, verdict) of first output
        self.keys: dict[str, str] = {}
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, job, code: int, sha: str) -> bool:
        self.attempted += 1
        why = self._why(job, code, sha)
        if why:
            self.failures.append(f"{job['id']} ({' '.join(job['argv'])}): {why}")
        return not why

    def _why(self, job, code: int, sha: str):
        if code != 0:
            return f"exit code {code}"
        if job["id"] not in self.first:
            self.first[job["id"]] = (sha, self._judge(job, sha))
        first_sha, verdict = self.first[job["id"]]
        if sha != first_sha:
            return "stdout differs from the first run of the job"
        return verdict

    def _judge(self, job, sha: str):
        """Full check of a job's first output, which is in its out file."""
        data = _read(job["out"])
        if _sha256(data) != sha:
            return "stdout file changed under the gate"
        self.keys[job["id"]] = key = job_key(job)
        if job["flag"]:
            try:
                verdict = json.loads(data).get(job["flag"])
            except (ValueError, AttributeError):
                return "stdout is not a JSON object"
            if not (verdict == "PASS" if job["flag"] == "check" else verdict is True):
                return f"{job['flag']} is {verdict!r}"
        if key in self.digests and self.digests[key] != sha:
            return "stdout sha256 differs from the recorded digest"
        if job["pair"] and not product_holds(job["pair"], data):
            return "product fails the evaluation check"
        return None

    @property
    def failed(self) -> int:
        return len(self.failures)


# ---------------------------------------------------------------------------
# runners

def run_cli(job, env) -> tuple:
    """One job in a fresh process: (exit code, sha, wall s, cpu s, maxrss MB)."""
    err = job["out"] + ".err"
    with open(job["out"], "wb") as out, open(err, "wb") as errfh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "multisym.cli", *job["argv"]],
                                stdout=out, stderr=errfh, cwd=ROOT, env=env)
        _, status, ru = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return (code, _file_sha(job["out"]), wall, ru.ru_utime + ru.ru_stime,
            ru.ru_maxrss / 1024)


class Worker:
    """A process that runs the job list in-process, one pass per request."""

    def __init__(self, jobs, mode: str, workdir: str, env, spans=None):
        spec = os.path.join(workdir, f"spec-{mode}.json")
        with open(spec, "w", encoding="utf-8") as fh:
            json.dump({"mode": mode, "jobs": jobs, "spans": spans}, fh)
        self.jobs = jobs
        self.errpath = os.path.join(workdir, f"worker-{mode}.err")
        self.err = open(self.errpath, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "inproc.py"), spec],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.err,
            cwd=ROOT, env=env, text=True)

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait()
            with open(self.errpath, encoding="utf-8", errors="replace") as fh:
                raise RuntimeError(f"in-process worker failed:\n{fh.read()[-2000:]}")
        return json.loads(line)

    def run_pass(self, gate: Gate, request: str = "pass") -> dict:
        """One pass, or with request "job ID" one job; every job's output
        goes through the gate."""
        self.proc.stdin.write(request + "\n")
        self.proc.stdin.flush()
        res = self._reply()
        by_id = {j["id"]: j for j in self.jobs}
        for job_id, _, code, sha, _ in res["records"]:
            gate.check(by_id[job_id], code, sha)
        return res

    def finish(self) -> dict:
        """End input; a traced worker answers with its layer summary."""
        self.proc.stdin.close()
        return self._reply()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        if exc[0] is not None and self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        self.err.close()


def setup_samples(env, k: int) -> list:
    """Wall times of k fresh interpreters importing the CLI module."""
    argv = [sys.executable, "-c", "import multisym.cli"]
    samples = []
    for _ in range(k):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=env, check=True)
        samples.append(time.perf_counter() - t0)
    return samples


def _sum_of_medians(samples: dict) -> float:
    return sum(statistics.median(v) for v in samples.values())


def measure(jobs, seconds: float, workdir: str, gate: Gate, env) -> dict:
    """Rounds of: setup samples, one cold CLI pass, one warm in-process pass.

    Interleaving spreads every metric's samples over the whole run.  Each
    sample is scaled to the reference speed by the reference work timed
    just before and after it (calib.py), which takes out most of the
    host's drift (see README.md).  A job's time is the median of its
    scaled samples, and each timing sums these over the job list.  Every
    sample, raw and scaled, is kept in the results file.
    """
    deadline = time.perf_counter() + seconds
    setup_samples(env, 1)  # writes the bytecode once, as an install does
    metrics = ("wall_s", "cpu_s", "warm_s")
    raw = {m: {j["id"]: [] for j in jobs} for m in metrics}
    scaled = {m: {j["id"]: [] for j in jobs} for m in metrics}
    setup, setup_raw = [], []
    rss = 0.0
    rounds = 0
    with Worker(jobs, "plain", workdir, env) as worker:
        worker.run_pass(gate)  # fills the caches
        clock = calib.Clock()

        def keep(metric, job_id, secs, k):
            raw[metric][job_id].append(secs)
            scaled[metric][job_id].append(secs * k)

        while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
            samples = setup_samples(env, SETUP_SAMPLES)
            k = clock.scale()
            setup_raw += samples
            setup += [s * k for s in samples]
            for job in jobs:
                code, sha, wall, cpu, maxrss = run_cli(job, env)
                k = clock.scale()
                gate.check(job, code, sha)
                keep("wall_s", job["id"], wall, k)
                keep("cpu_s", job["id"], cpu, k)
                rss = max(rss, maxrss)
            for job in jobs:
                res = worker.run_pass(gate, f"job {job['id']}")
                k = clock.scale()
                for job_id, _, _, _, secs in res["records"]:
                    keep("warm_s", job_id, secs, k)
            rounds += 1
    return {
        "metrics": {
            **{m: _sum_of_medians(scaled[m]) for m in metrics},
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss,
        },
        "rounds": rounds,
        "raw_s": {m: _sum_of_medians(raw[m]) for m in metrics}
        | {"setup_s": statistics.median(setup_raw)},
        "jobs": {j["id"]: {m: {"raw": raw[m][j["id"]], "scaled": scaled[m][j["id"]]}
                           for m in metrics} for j in jobs},
        "setup_samples": {"raw": setup_raw, "scaled": setup},
    }


def measure_traced(jobs, seconds: float, workdir: str, gate: Gate, env,
                   spans: str) -> dict:
    """Pairs of fresh workers, one untraced and one traced, until the
    deadline: the traced one runs a cold pass and an identical warm pass."""
    deadline = time.perf_counter() + seconds
    samples = {name: [] for name, _, _ in PER_LAYER}
    pairs = 0
    spans_total = 0
    while pairs < 1 or time.perf_counter() < deadline:
        with Worker(jobs, "plain", workdir, env) as plain:
            plain_cold = plain.run_pass(gate)
        with Worker(jobs, "traced", workdir, env, spans) as traced:
            traced_cold = traced.run_pass(gate)
            traced.run_pass(gate)
            summary = traced.finish()
        cold, warm = summary["layers"]
        values = dict(traced_cold["caches"])
        for name, _, when in PER_LAYER:
            if name in values:
                continue
            if when == "warm":
                values[name] = warm.get(name.replace(".warm_self_s", ".self_s"), 0.0)
            else:
                values[name] = cold.get(name, 0)
        values["trace.overhead_ratio"] = traced_cold["seconds"] / plain_cold["seconds"]
        for name in samples:
            samples[name].append(values[name])
        spans_total = summary["spans"]
        pairs += 1
    return {"metrics": {k: statistics.median(v) for k, v in samples.items()},
            "rounds": pairs, "spans": spans_total}


# ---------------------------------------------------------------------------

def build_jobs(workload: str, seed: int, workdir: str, toy: bool = False) -> list:
    if workload == "relations":
        jobs = workloads.relations_jobs(seed, toy)
    else:
        jobs = workloads.engine_jobs(seed, workdir, toy)
    for job in jobs:
        job["out"] = job["out"] or os.path.join(workdir, job["id"] + ".out")
    return jobs


def _git_sha() -> str:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
    except OSError:
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def _load_digests() -> dict:
    with open(DIGESTS, encoding="utf-8") as fh:
        return json.load(fh)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 toy: bool = False, digests=None) -> dict:
    """Run one workload; returns the full results record."""
    os.makedirs(OUT, exist_ok=True)
    env = _env()
    gate = Gate(_load_digests() if digests is None else digests)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        jobs = build_jobs(workload, seed, workdir, toy)
        inputs = {os.path.basename(p): _file_sha(p)
                  for j in jobs if j["pair"] for p in j["pair"]}
        if trace:
            spans = os.path.join(OUT, f"spans-{workload}.csv.gz")
            res = measure_traced(jobs, seconds, workdir, gate, env, spans)
            units = {name: (unit, when) for name, unit, when in PER_LAYER}
        else:
            res = measure(jobs, seconds, workdir, gate, env)
            units = END_TO_END
        digests_seen = {j["id"]: {"key": gate.keys.get(j["id"]),
                                  "sha256": gate.first.get(j["id"], (None,))[0]}
                        for j in jobs}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = {name: {"value": v, "unit": units[name][0], "cache": units[name][1]}
               for name, v in res["metrics"].items()}
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "mode": "traced" if trace else "end_to_end",
        "stamp": {"git_sha": _git_sha(), "python": platform.python_version(),
                  "implementation": platform.python_implementation(),
                  "nproc": os.cpu_count(), "machine": platform.machine()},
        "rounds": res["rounds"],
        "inputs_sha256": inputs,
        "outputs": digests_seen,
        "attempted": gate.attempted, "failed": gate.failed,
        "error_rate": gate.failed / max(gate.attempted, 1),
        "failures": gate.failures,
        "metrics": metrics,
        **({k: res[k] for k in ("raw_s", "jobs", "setup_samples")}
           if "jobs" in res else {"spans": res["spans"]}),
    }


def record_digests() -> None:
    """Record the stdout digest of every job a seed can produce for
    relations, of seed 0 for engine, and of the toy lists.
    Only for the commit whose outputs are the reference."""
    env = _env()
    digests = {}
    specs = [("engine", 0, toy) for toy in (False, True)]
    specs += [("relations", seed, toy) for seed in range(40) for toy in (False, True)]
    os.makedirs(OUT, exist_ok=True)
    for workload, seed, toy in specs:
        workdir = tempfile.mkdtemp(prefix="record-", dir=OUT)
        try:
            gate = Gate({})
            for job in build_jobs(workload, seed, workdir, toy):
                key = job_key(job)
                if key not in digests:
                    code, sha, *_ = run_cli(job, env)
                    if not gate.check(job, code, sha):
                        raise SystemExit(f"not recorded: {gate.failures[-1]}")
                    digests[key] = sha
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {DIGESTS}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=("relations", "engine"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digests", action="store_true",
                    help="rewrite digests.json from the current program")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "multisym", "cli.py")):
        print(f"error: no program source under {ROOT}/src", file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests()
        return 0
    if not args.workload:
        ap.error("--workload is required")
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    name = f"BENCH_{args.workload}{'_trace' if args.trace else ''}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)
    for failure in res["failures"][:20]:
        print(f"FAILED {failure}")
    stamp = res["stamp"]
    print(f"# {res['workload']} seed={res['seed']} {res['mode']} rounds={res['rounds']} "
          f"git={stamp['git_sha'][:12]} python={stamp['python']} nproc={stamp['nproc']}")
    for k, m in res["metrics"].items():
        print(f"{k:45s} {m['value']:>14.6g} {m['unit']:6s} {m['cache']}")
    print(f"{'error_rate':45s} {res['error_rate']:>14.6g} {'ratio':6s} "
          f"({res['failed']}/{res['attempted']})")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
