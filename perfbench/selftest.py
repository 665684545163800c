"""Self-test of the benchmark's failure accounting and tracing.

    PYTHONPATH=src python3 perfbench/selftest.py

Runs a known uncaught traceback, a documented refusal, a known wrong
verdict and a correct job through the worker's loop and checks that the
three failures are counted (with the exit codes the CLI gives them)
without aborting the run, and that the tracer attributes a job's time to
the layers it called.
"""

import argparse
import os
import sys
import tempfile

import jobs
import worker

# Accepted by validation, but `terms` below the kernel horizon
# (5^4 * 256 indices) makes kernel_explore read past the end of the
# sequence: an uncaught IndexError traceback, exit 1.
TRACEBACK_JOB = {"command": "automata", "params": {
    "kind": "vp-geometric", "a": 2, "p": 3, "ell": 5, "alpha": 1, "beta": 0,
    "depth": 4, "prefix_len": 256, "terms": 20000}}
# A documented refusal: 7^8 points exceed the enumeration cap, exit 3.
REFUSAL_JOB = {"command": "census", "params": {
    "family": "power", "p": 7, "d": 2, "ext_degree": 8, "max_period": 2}}
# A known defect on an accepted input: the supersingular Lattes
# certificate fails its own re-derivation (internal consistency failure,
# exit 4).  The verdict workload's lattes-supersingular pool holds only
# (trace, norm) pairs that certify, because its jobs measure speed on
# inputs the program gets right; this job keeps the defect visible here.
MISMATCH_JOB = {"command": "verdict", "params": {
    "family": "lattes-supersingular", "p": 11, "sigma_tn": [0, 2]}}


def main():
    good = jobs.slots("oracle")["power"][0]
    plan = [[("traceback", TRACEBACK_JOB), ("refusal", REFUSAL_JOB),
             ("mismatch", MISMATCH_JOB), ("power", good)]]
    with tempfile.TemporaryDirectory(dir=os.path.dirname(worker.GOLDEN)) as tmp:
        args = argparse.Namespace(mode="replay", seconds=0, trace=1,
                                  workload="oracle", workdir=tmp,
                                  result=os.path.join(tmp, "result.json"))
        result = worker.run(plan, args)

    traceback_rec, refusal_rec, mismatch_rec, good_rec = result["jobs"]
    assert traceback_rec["exit"] == 1, traceback_rec
    assert "IndexError" in traceback_rec["stderr"], traceback_rec["stderr"]
    assert traceback_rec["problem"] == "exit code 1"
    assert refusal_rec["exit"] == 3, refusal_rec
    assert refusal_rec["problem"] == "exit code 3"
    assert mismatch_rec["exit"] == 4, mismatch_rec
    assert "re-derivation" in mismatch_rec["stderr"], mismatch_rec["stderr"]
    assert good_rec["exit"] == 0 and good_rec["problem"] is None, good_rec

    layers = result["layers"]
    assert layers["automata.kernel_explore.calls"] == 1
    assert layers["automata.kernel_explore.lookups"] == sum(
        5 ** e for e in range(5)) * 256
    assert layers["modpoly.gcd.calls"] >= 1
    assert 0 < layers["cli.run_job.self_s"] < sum(
        rec["seconds"] for rec in result["jobs"])

    from dynzeta import automata, modpoly, zeta
    assert zeta.kernel_explore is automata.kernel_explore, "tracer left bound"
    assert not hasattr(modpoly.gcd, "__wrapped__"), "tracer left bound"
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
