"""Pin the sha256 of every pooled job's stdout into golden.json.

Runs each job of each slot pool once (all seeds draw from these pools),
checks it with checks.py, and writes {job id: sha256}.  Rerun only when a
pool changes or the CLI output changes on purpose:

    PYTHONPATH=src python3 perfbench/make_golden.py [workload ...]

Jobs that fail or whose check fails are reported and left unpinned, so
they fail every later benchmark run until fixed or removed from the pool.
"""

import hashlib
import json
import os
import sys
import tempfile

import checks
import jobs
from worker import GOLDEN, execute


def main(argv):
    workloads = argv or sorted(jobs.WORKLOADS)
    golden = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as handle:
            golden = json.load(handle)
    kept = {jobs.job_id(job) for workload in jobs.WORKLOADS
            if workload not in workloads
            for pool in jobs.slots(workload).values() for job in pool}
    golden = {key: digest for key, digest in golden.items() if key in kept}
    bad = 0
    with tempfile.TemporaryDirectory(dir=os.path.dirname(GOLDEN)) as tmp:
        path = os.path.join(tmp, "job.json")
        for workload in workloads:
            for slot, pool in sorted(jobs.slots(workload).items()):
                for job in pool:
                    with open(path, "w", encoding="utf-8") as handle:
                        json.dump(dict(job, schema="dynzeta/1"), handle)
                    code, stdout, _err, seconds = execute(job, path)
                    key = jobs.job_id(job)
                    problem = f"exit {code}" if code else checks.check(job, stdout)
                    print(f"{seconds:8.3f} {workload:9s} {slot:26s} "
                          f"{problem or 'ok'}  {key}", flush=True)
                    if problem:
                        bad += 1
                        golden.pop(key, None)
                    else:
                        golden[key] = hashlib.sha256(stdout.encode()).hexdigest()
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
