"""Verdict, oracle, enumerate and series stdout against the benchmark's digests.

Every job of the benchmark's verdict, oracle and enumerate pools, and one
series job per slot and per map or equation (at its fewest terms), runs
in process, a CLI job as `dynzeta --job FILE`, and its stdout sha256 must
equal the entry in perfbench/golden.json.  Certificates are part of
verdict stdout, so this pins every certificate field the CLI prints.
perfbench/jobs.py is loaded by path and only read.
"""

import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from dynzeta.cli import SCHEMA, main
from dynzeta.elliptic import EllipticCurve, lattes_oracle
from dynzeta.field import field_make

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_jobs():
    spec = importlib.util.spec_from_file_location("perfbench_jobs",
                                                  PERFBENCH / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


JOBS = _load_jobs()
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))
VERDICT_JOBS = [(f"{slot}-{i}", job)
                for slot, pool in sorted(JOBS.slots("verdict").items())
                for i, job in enumerate(pool)]


def test_pool_is_pinned():
    assert len(VERDICT_JOBS) == 86
    assert all(JOBS.job_id(job) in GOLDEN for _, job in VERDICT_JOBS)


@pytest.mark.parametrize("job", [job for _, job in VERDICT_JOBS],
                         ids=[name for name, _ in VERDICT_JOBS])
def test_verdict_stdout_matches_golden(job, tmp_path):
    assert _digest(_cli_stdout(job, tmp_path)) == GOLDEN[JOBS.job_id(job)]


def _cli_stdout(job, tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(dict(job, schema=SCHEMA)), encoding="utf-8")
    out = io.StringIO()
    assert main(["--job", str(path)], out=out) == 0
    return out.getvalue()


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


POOL_JOBS = [(f"{workload}-{slot}-{i}", job)
             for workload in ("oracle", "enumerate")
             for slot, pool in sorted(JOBS.slots(workload).items())
             for i, job in enumerate(pool)]


def _torsion_stdout(job):
    """The record the benchmark prints for a library call to lattes_oracle."""
    ctx = field_make(job["p"])
    curve = EllipticCurve(ctx, ctx.from_int(job["A"]), ctx.from_int(job["B"]))
    count = lattes_oracle(curve, job["m"], job["n"], k_max=job["k_max"])
    return json.dumps({"record": "torsion", "p": str(job["p"]),
                       "m": str(job["m"]), "n": str(job["n"]),
                       "count": str(count)}, separators=(",", ":")) + "\n"


def test_oracle_and_enumerate_pools_are_pinned():
    # 366 CLI jobs and 14 torsion oracles called as library functions
    assert len(POOL_JOBS) == 380
    assert sum("call" in job for _, job in POOL_JOBS) == 14
    assert all(JOBS.job_id(job) in GOLDEN for _, job in POOL_JOBS)


@pytest.mark.parametrize("job", [job for _, job in POOL_JOBS],
                         ids=[name for name, _ in POOL_JOBS])
def test_pool_stdout_matches_golden(job, tmp_path):
    text = _torsion_stdout(job) if "call" in job else _cli_stdout(job, tmp_path)
    assert _digest(text) == GOLDEN[JOBS.job_id(job)]


def _series_sample():
    """(name, job) with the fewest terms for each slot and map or equation."""
    sample = {}
    for slot, pool in sorted(JOBS.slots("series").items()):
        for job in pool:
            params = {k: v for k, v in job["params"].items() if k != "terms"}
            key = (slot, JOBS.job_id(params))
            if key not in sample or (job["params"]["terms"]
                                     < sample[key]["params"]["terms"]):
                sample[key] = job
    return [(f"series-{slot}-{i}", job)
            for i, ((slot, _), job) in enumerate(sorted(sample.items()))]


SERIES_JOBS = _series_sample()


def test_series_sample_is_pinned():
    # 13 Christol equations and 19 zeta maps
    assert len(SERIES_JOBS) == 32
    assert all(JOBS.job_id(job) in GOLDEN for _, job in SERIES_JOBS)


@pytest.mark.parametrize("job", [job for _, job in SERIES_JOBS],
                         ids=[name for name, _ in SERIES_JOBS])
def test_series_stdout_matches_golden(job, tmp_path):
    assert _digest(_cli_stdout(job, tmp_path)) == GOLDEN[JOBS.job_id(job)]
