"""Verdict stdout against the digests pinned by the benchmark.

Every job of the benchmark's verdict pool runs through the CLI in process,
as `dynzeta --job FILE`, and its stdout sha256 must equal the entry in
perfbench/golden.json.  Certificates are part of verdict stdout, so this
pins every certificate field the CLI prints.  perfbench/jobs.py is loaded
by path and only read.
"""

import hashlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from dynzeta.cli import SCHEMA, main

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
    path = tmp_path / "job.json"
    path.write_text(json.dumps(dict(job, schema=SCHEMA)), encoding="utf-8")
    out = io.StringIO()
    assert main(["--job", str(path)], out=out) == 0
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == GOLDEN[JOBS.job_id(job)]
