"""Smoke test of the benchmark: every workload at toy size, in both modes,
through the output gate.

    python3 -m pytest bench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("relations", "engine")


@pytest.mark.parametrize("trace", (False, True))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_workload_passes_the_gate(workload, trace):
    res = run.run_workload(workload, seed=0, seconds=0, trace=trace, toy=True)
    assert res["attempted"] > 0
    assert res["failed"] == 0, res["failures"]
    # every toy output has a recorded digest, so the digest check ran
    digests = run._load_digests()
    assert all(out["key"] in digests for out in res["outputs"].values())
    want = {name for name, _, _ in run.PER_LAYER} if trace else set(run.END_TO_END)
    assert set(res["metrics"]) == want
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_gate_rejects_an_output_that_differs_from_its_digest():
    wrong = {key: "0" * 64 for key in run._load_digests()}
    res = run.run_workload("relations", seed=0, seconds=0, trace=False,
                           toy=True, digests=wrong)
    assert res["failed"] >= 1
    assert all("recorded digest" in f for f in res["failures"])


def test_product_check_catches_a_wrong_coefficient(tmp_path):
    job = next(j for j in run.build_jobs("engine", 5, str(tmp_path), toy=True)
               if j["pair"])
    code, *_ = run.run_cli(job, run._env())
    assert code == 0
    with open(job["out"], "rb") as fh:
        good = fh.read()
    assert run.product_holds(job["pair"], good)
    z = json.loads(good)
    z["terms"][0]["coeff"] = str(int(z["terms"][0]["coeff"].split("/")[0]) + 1)
    assert not run.product_holds(job["pair"], json.dumps(z).encode())


def test_same_seed_same_inputs(tmp_path):
    shas = []
    for seed, sub in ((7, "a"), (7, "b"), (8, "c")):
        os.makedirs(tmp_path / sub)
        jobs = workloads.engine_jobs(seed, str(tmp_path / sub))
        shas.append([run._file_sha(p) for j in jobs if j["pair"] for p in j["pair"]])
    assert shas[0] == shas[1] != shas[2]
    assert workloads.relations_jobs(7) == workloads.relations_jobs(7)


def test_digests_cover_every_relations_job():
    digests = run._load_digests()
    for seed in range(100):
        assert all(run.job_key(j) in digests for j in workloads.relations_jobs(seed))


def test_metric_names_match_benchmark_json():
    path = os.path.join(os.path.dirname(run.BENCH), "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: unit for k, (unit, _) in run.END_TO_END.items()}
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _ in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)),
                    tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "relations",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert '"correct"' not in res.stdout
