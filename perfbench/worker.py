"""One benchmark process: set up, run jobs closed-loop, check, report.

Started by run.py, never by hand, as a fresh single-threaded interpreter
so that dynzeta's module caches start cold, as they do for a CLI user.
Protocol: after importing dynzeta and building the job specs it prints
"ready" on stdout; run.py times process start to that line as set-up.
The next line, "calibration <seconds>", is the host speed right after
set-up (see calibrate).  Job files for the CLI are written just before
their round, outside the timed region.  The results (one record per job, plus process totals and, when traced,
the per-layer summary) go to the JSON file named by --result.

Modes:
  setup   stop after "ready" (run.py repeats set-up to take its median)
  run     untraced: execute whole rounds of jobs until --seconds of wall
          time have passed (and at least the workload's minimum rounds),
          starting no round that the rounds so far say would end past
          --budget seconds; traced: execute exactly the workload's
          TRACE_ROUNDS rounds, so that every per-layer total is taken
          over the same jobs whatever the speed of the host
  replay  execute exactly the jobs listed in --replay, untraced (the
          baseline against which the traced run's overhead is measured)
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import dynzeta  # noqa: F401  (set-up includes the package import)
import numpy
from dynzeta import cli
from dynzeta.elliptic import EllipticCurve, lattes_oracle
from dynzeta.field import field_make

import checks
import jobs
from tracer import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden.json")


def run_lattes_oracle(job, out):
    ctx = field_make(job["p"])
    curve = EllipticCurve(ctx, ctx.from_int(job["A"]), ctx.from_int(job["B"]))
    count = lattes_oracle(curve, job["m"], job["n"], k_max=job["k_max"])
    out.write(json.dumps({"record": "torsion", "p": str(job["p"]),
                          "m": str(job["m"]), "n": str(job["n"]),
                          "count": str(count)}, separators=(",", ":")) + "\n")
    return 0


def execute(job, path):
    """(exit code, stdout, stderr, seconds) of one job.

    CLI jobs go through ``dynzeta --job FILE`` exactly as a user's would;
    an exception the CLI does not map to an exit code is an uncaught
    traceback, recorded with exit code 1.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err):
            if "call" in job:
                code = run_lattes_oracle(job, out)
            else:
                code = cli.main(["--job", path], out=out)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is a failed job, not a failed run
        err.write(traceback.format_exc())
        code = 1
    seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def write_job(job, workdir, index):
    """The job file a CLI user would pass to ``dynzeta --job``."""
    path = os.path.join(workdir, f"{index:04d}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(dict(job, schema=cli.SCHEMA), handle)
    return path


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--budget", type=float, default=float("inf"),
                        help="wall seconds the untraced loop may take")
    parser.add_argument("--mode", choices=["setup", "run", "replay"],
                        default="run")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--replay", help="JSON list of job ids to run")
    parser.add_argument("--result", help="JSON file for the results")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    plan = jobs.rounds(args.workload, args.seed)
    os.makedirs(args.workdir, exist_ok=True)
    print("ready", flush=True)
    print(f"calibration {statistics.median(calibrate() for _ in range(5))}",
          flush=True)
    try:
        if args.mode == "setup":
            return 0
        if args.mode == "replay":
            with open(args.replay, encoding="utf-8") as handle:
                wanted = json.load(handle)
            by_id = {jobs.job_id(job): (slot, job)
                     for rnd in plan for slot, job in rnd}
            plan = [[by_id[key] for key in wanted]]
        result = run(plan, args)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def run(plan, args):
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
        if args.mode == "run":
            plan = plan[:jobs.TRACE_ROUNDS[args.workload]]
    records, outputs, round_times = [], [], []
    samples = []    # (perf_counter, seconds the calibration task took)
    start = time.perf_counter()
    min_rounds = jobs.MIN_ROUNDS.get(args.workload, 1)
    for done, rnd in enumerate(plan):
        # Whole rounds only, so every run executes the same mix of slots.
        if args.mode == "run" and not tracer and done:
            elapsed = time.perf_counter() - start
            enough = done >= min_rounds and elapsed >= args.seconds
            # Start no round that the longest so far says would overrun.
            longest = max(r["seconds"] for r in round_times)
            if enough or elapsed + longest > args.budget:
                break
        paths = [None if "call" in job else
                 write_job(job, args.workdir, len(records) + i)
                 for i, (_slot, job) in enumerate(rnd)]
        samples.append((time.perf_counter(), calibrate()))
        round_start = time.perf_counter()
        for (slot, job), path in zip(rnd, paths):
            key = jobs.job_id(job)
            cpu0, begin = _cpu_seconds(), time.perf_counter()
            code, stdout, stderr, seconds = execute(job, path)
            cpu = _cpu_seconds() - cpu0
            samples.append((time.perf_counter(), calibrate()))
            records.append({"id": key, "slot": slot, "seconds": seconds,
                            "cpu_s": cpu, "begin": begin,
                            "exit": code, "stderr": stderr[-2000:]})
            outputs.append(stdout)
        round_times.append({"jobs": len(rnd),
                            "seconds": time.perf_counter() - round_start})
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # A job's host speed: the median calibration taken from 1 s before it
    # starts to 1 s after it ends (at least the two that bracket it).
    for rec in records:
        begin = rec.pop("begin")
        rec["calibration_s"] = statistics.median(
            cal for at, cal in samples
            if begin - 1.0 <= at <= begin + rec["seconds"] + 1.0)
    layers = None
    if tracer:
        tracer.uninstall()
        layers = tracer.summary()
        tracer.write(args.result + ".spans.jsonl")

    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    for rec, stdout in zip(records, outputs):
        rec["sha256"] = hashlib.sha256(stdout.encode()).hexdigest()
        rec["problem"] = problem(rec, stdout, golden)
    return {"rounds": round_times, "peak_rss_mb": peak_rss_mb,
            "jobs": records, "layers": layers,
            "python": platform.python_version(), "numpy": numpy.__version__}


def calibrate():
    """Seconds this host takes for a fixed dict-and-tuple task (~12 ms).

    Run between jobs, outside their timing, to track how fast the shared
    host is running at that moment; see run.py for how job times are
    scaled by it.  The garbage collector is off while it runs, so its time
    does not depend on the heap the jobs leave behind: with the collector
    on, its allocations would trigger collections that walk the jobs' live
    objects and dynzeta's caches.  Everything it allocates is freed when
    it returns.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(20000):
            table[(i, i % 251)] = table.get((i - 7, (i - 7) % 251), 0) + i
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _cpu_seconds():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def problem(rec, stdout, golden):
    """None for a correct job, else why it counts as failed."""
    if rec["exit"] != 0:
        return f"exit code {rec['exit']}"
    if golden.get(rec["id"]) != rec["sha256"]:
        return "stdout differs from the digest pinned in golden.json"
    try:
        return checks.check(json.loads(rec["id"]), stdout)
    except Exception:  # a crashing check is a failed check
        return "check raised: " + traceback.format_exc(limit=2)


if __name__ == "__main__":
    sys.exit(main())
