"""Run a job list in one process through `multisym.cli.main`, optionally traced.

    python3 bench/inproc.py SPEC.json

SPEC holds {"mode": "plain" | "traced", "jobs": [...], "spans": path or
null}.  Each line read from stdin is a request: "pass" runs one pass over
the job list in this process, "job ID" runs the one job of that id.  Each
request is answered with one JSON line (per job: id, request number, exit
code, stdout sha256, seconds; plus the request's time and cache counters).
The first pass starts with cold caches, later requests find them filled.
The process waits on stdin between requests, so the caller can interleave
other work.
Each job's stdout is captured and written to the job's out file, where a
later job may read it (as `rewrite` reads a product).

In traced mode the public functions of each layer are wrapped from the
outside; no module of the package is edited.  Every call records a span
(name, start, end, parent span, job) in memory.  At end of input the spans
are written out and reduced to per-layer self time (duration minus the
time its child spans cover) and counts per pass, printed as a last line.
"""

from __future__ import annotations

import array
import contextlib
import gzip
import hashlib
import importlib
import io
import json
import os
import sys
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (span name, module, attribute or Class.method, counter, count of a result).
# Several attributes may share a span name; they add up to one layer.
LAYERS = (
    ("cli.load", "multisym.cli", "_load_element", None, None),
    ("cli.dump", "multisym.cli", "_print_json", None, None),
    ("cli.dump", "multisym.msf", "element_to_json", None, None),
    ("cli.dump", "multisym.rewrite", "genpoly_to_json", None, None),
    ("msf.product", "multisym.msf", "MsfElement.__mul__", "terms_out",
     lambda r: len(r.terms)),
    ("msf.expand", "multisym.msf", "MsfElement.expand", "terms_out",
     lambda r: len(r.terms)),
    ("msf.basis_alphas", "multisym.msf", "alphas_of_multidegree", None, None),
    ("msf.basis_alphas", "multisym.msf", "basis_alphas", None, None),
    ("rewrite.reduce_to_monomial_es", "multisym.rewrite",
     "reduce_to_monomial_es", "terms_out", lambda r: len(r.terms)),
    ("rewrite.primitive_reduce", "multisym.rewrite", "primitive_reduce",
     "terms_out", lambda r: len(r.terms)),
    ("rewrite.evaluate", "multisym.rewrite", "evaluate", "terms_out",
     lambda r: len(r.terms)),
    ("relations.kernel_basis", "multisym.relations", "kernel_basis", "count", len),
    ("relations.genpoly_expand", "multisym.relations", "genpoly_expand",
     None, None),
    ("polyring.npoly_mul", "multisym.polyring", "NPoly.__mul__", "terms_out",
     lambda r: len(r.terms)),
    ("linalg.rank_tracker", "multisym.linalg", "RankTracker.add", "rows",
     lambda r: 1),
    ("oracle", "multisym.oracle", "count_orbits", "orbits", lambda r: r),
    ("oracle", "multisym.oracle", "monomials_of_multidegree", None, None),
)

# functools.cache layers whose hit counts are reported, by counter prefix
CACHES = (
    ("msf.product_cache", "multisym.msf", "_alpha_product_z"),
    ("rewrite.reduce_cache", "multisym.rewrite", "_reduce_alpha"),
)


class Tracer:
    """Spans kept in flat arrays: one entry per call of a wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.job = array.array("i")
        self.stack = [-1]
        self.cur_job = -1
        self.counts: dict[tuple, int] = defaultdict(int)  # (job, counter)

    def span(self, name: str) -> int:
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        sid = len(self.start)
        self.name.append(nid)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.parent.append(self.stack[-1])
        self.job.append(self.cur_job)
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name, fn, counter, count):
        def traced(*args, **kwargs):
            sid = self.span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            self.counts[(self.cur_job, name + ".calls")] += 1
            if counter:
                self.counts[(self.cur_job, f"{name}.{counter}")] += count(result)
            return result
        return traced

    def install(self) -> None:
        """Replace each layer function in every package module that holds it."""
        mods = [m for k, m in sys.modules.items()
                if k == "multisym" or k.startswith("multisym.")]
        for name, modname, attr, counter, count in LAYERS:
            owner = importlib.import_module(modname)
            if "." in attr:
                cls, meth = attr.split(".")
                klass = getattr(owner, cls)
                setattr(klass, meth,
                        self.wrap(name, getattr(klass, meth), counter, count))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(name, orig, counter, count)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)

    def self_times(self, job_pass: list) -> dict:
        """{(pass, span name): self seconds}, self = duration - child cover."""
        n = len(self.start)
        cover = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                cover[p] += self.end[i] - self.start[i]
        out: dict[tuple, float] = defaultdict(float)
        for i in range(n):
            key = (job_pass[self.job[i]], self.names[self.name[i]])
            out[key] += self.end[i] - self.start[i] - cover[i]
        return out

    def write(self, path: str, job_names: list) -> None:
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id,name,start,end,parent,job\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.name[i]]},{self.start[i]:.9f},"
                         f"{self.end[i]:.9f},{self.parent[i]},"
                         f"{job_names[self.job[i]]}\n")


def serve(spec: dict, lines, reply) -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from multisym import cli

    tracer = None
    if spec["mode"] == "traced":
        tracer = Tracer()
        tracer.install()
    caches = [(prefix, getattr(importlib.import_module(mod), fn))
              for prefix, mod, fn in CACHES]
    by_id = {job["id"]: job for job in spec["jobs"]}
    job_names, job_pass = [], []
    for k, line in enumerate(lines):
        request = line.split()
        batch = spec["jobs"] if request == ["pass"] else [by_id[request[1]]]
        before = [fn.cache_info() for _, fn in caches]
        records = []
        t_pass = time.perf_counter()
        for job in batch:
            buf, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            if tracer:
                tracer.cur_job = len(job_names)
                sid = tracer.span("cli.main")
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(job["argv"])
                except SystemExit as exc:  # argparse rejects the flags
                    code = exc.code if isinstance(exc.code, int) else 1
            if tracer:
                tracer.close(sid)
            seconds = time.perf_counter() - t0
            data = buf.getvalue().encode("utf-8")
            with open(job["out"], "wb") as fh:
                fh.write(data)
            if tracer:
                tracer.counts[(len(job_names), "cli.dump.bytes")] += len(data)
            job_names.append(f"{k}:{job['id']}")
            job_pass.append(k)
            records.append([job["id"], k, code, hashlib.sha256(data).hexdigest(),
                            seconds])
        seconds = time.perf_counter() - t_pass
        caches_delta = {}
        for (prefix, fn), b in zip(caches, before):
            a = fn.cache_info()
            caches_delta[f"{prefix}.hits"] = a.hits - b.hits
            caches_delta[f"{prefix}.misses"] = a.misses - b.misses
        reply({"records": records, "seconds": seconds, "caches": caches_delta})
    if tracer:
        layers = [defaultdict(int) for _ in range(len(set(job_pass)))]
        for (k, name), v in tracer.self_times(job_pass).items():
            layers[k][f"{name}.self_s"] += v
        for (j, counter), v in tracer.counts.items():
            layers[job_pass[j]][counter] += v
        if spec.get("spans"):
            tracer.write(spec["spans"], job_names)
        reply({"layers": layers, "spans": len(tracer.start)})


def _reply(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        serve(json.load(fh), sys.stdin, _reply)
