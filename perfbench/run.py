"""dynzeta benchmark: seeded job workloads, timed end to end, traced per layer.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verdict --seed 1 --seconds 15 --trace 0

Every run starts fresh worker processes (perfbench/worker.py) with the
checkout's src/ on PYTHONPATH, DYNZETA_SCALE_BUDGET unset, BLAS/OpenMP
thread counts pinned to 1 and PYTHONHASHSEED fixed.  The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics (times scaled to a reference host
speed, see CALIBRATION_REFERENCE_S):
  jobs_per_s     jobs completed per second of the closed loop (one client),
                 median over the run's rounds (each round runs the same mix)
  job_p50_s      median wall time of one job
  cpu_per_job_s  user+sys CPU of the worker process per job, median over
                 rounds
  peak_rss_mb    peak resident set size of the worker process
  setup_s        median over seven fresh processes of: interpreter start,
                 import dynzeta, building the job specs
  success_rate   jobs that exited 0 and passed every check, per attempted
                 job (1 - error rate; reported this way round because an
                 error rate of 0 has no relative bound)
--trace 1 runs a fixed number of rounds (jobs.TRACE_ROUNDS, whatever
--seconds says) with every layer function wrapped (perfbench/tracer.py),
then replays exactly those jobs in an untraced process; it reports the
per-layer metrics, totals over that fixed job set, and trace.overhead_s,
the traced minus the untraced time of those jobs.

An untraced run keeps to a deadline of DEADLINE_S from its start: the
worker starts no round that the rounds so far say would end past it, so a
slower program is measured on fewer rounds instead of being cut off.

Per-job times, exit codes and failure reasons are printed before the
JSON line and kept in perfbench/_work/results/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import jobs

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, "_work")
WORKER = os.path.join(HERE, "worker.py")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0
# Time kept back from the deadline for checking every job after the loop.
CHECK_RESERVE_S = 20.0

END_TO_END_UNITS = {"jobs_per_s": "1/s", "job_p50_s": "s",
                    "cpu_per_job_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s", "success_rate": "ratio"}


TIME_STATS = ("s", "self_s", "overhead_s")

# The machine this benchmark runs on is shared, and its speed changes by
# up to 1.8x between fast and slow phases that last minutes.
# Each job is therefore bracketed by a fixed ~12 ms dict-and-tuple task
# (worker.calibrate), and every reported time t is scaled to
# t * (CALIBRATION_REFERENCE_S / calibration) ** CALIBRATION_EXPONENT.
# The reference is about the task's median on the 2-vCPU Xeon host it was
# set on.  The exponent is below 1 because the jobs change speed less than
# the task does: over ten seeds, the slope of log job time against log
# calibration was 0.7 on oracle and 0.8 on verdict, and full scaling
# reported oracle about 20% slower in the fast phase than in the slow one.
# Raw times stay in the per-job records, and the unscaled metrics are
# printed beside the scaled ones.
CALIBRATION_REFERENCE_S = 0.012
CALIBRATION_EXPONENT = 0.8


class BenchError(Exception):
    pass


def child_env(src):
    env = dict(os.environ)
    env.pop("DYNZETA_SCALE_BUDGET", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = src
    return env


class Worker:
    """One worker process; ``ready_s`` is its set-up time."""

    def __init__(self, args, env, mode, tag, extra=()):
        self.result = os.path.join(WORK, "results", f"{tag}.json")
        workdir = os.path.join(WORK, f"jobs-{os.getpid()}-{tag}")
        cmd = [sys.executable, WORKER, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--mode", mode, "--workdir", workdir, "--result", self.result,
               *extra]
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE)
        line = self.proc.stdout.readline()
        self.ready_s = time.perf_counter() - start
        calibration = self.proc.stdout.readline().split()
        if line.strip() != b"ready" or calibration[:1] != [b"calibration"]:
            self.finish(deadline=time.monotonic() + 30)
            raise BenchError(f"worker ({mode}) failed during set-up")
        self.calibration_s = float(calibration[1])

    def finish(self, deadline):
        try:
            self.proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise BenchError("worker exceeded the run deadline") from None
        if self.proc.returncode != 0:
            raise BenchError(f"worker exited with code {self.proc.returncode}")

    def load(self):
        with open(self.result, encoding="utf-8") as handle:
            return json.load(handle)


def measure(args, deadline):
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "dynzeta", "__init__.py")):
        raise BenchError("run from the root of a dynzeta checkout "
                         "(src/dynzeta not found)")
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    env = child_env(src)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    setups = []
    for i in range(0 if args.trace else SETUP_SAMPLES - 1):
        probe = Worker(args, env, "setup", f"{tag}-setup{i}")
        setups.append((probe.ready_s, probe.calibration_s))
        probe.finish(deadline)
    budget = deadline - time.monotonic() - CHECK_RESERVE_S
    main = Worker(args, env, "run", tag,
                  ["--trace", str(args.trace), "--budget", f"{budget:.1f}"])
    setups.append((main.ready_s, main.calibration_s))
    main.finish(deadline)
    result = main.load()
    result["setup_s"] = setups

    if args.trace:
        done = [job["id"] for job in result["jobs"]]
        replay_list = os.path.join(WORK, "results", f"{tag}-replay-ids.json")
        with open(replay_list, "w", encoding="utf-8") as handle:
            json.dump(done, handle)
        replay = Worker(args, env, "replay", f"{tag}-replay",
                        ["--replay", replay_list])
        replay.finish(deadline)
        untraced = replay.load()
        traced_s = sum(scaled(job, "seconds") for job in result["jobs"])
        untraced_s = sum(scaled(job, "seconds") for job in untraced["jobs"])
        result["layers"]["trace.overhead_s"] = traced_s - untraced_s
    return result


def speed_factor(calibration_s):
    """Multiplier taking a time measured at this calibration to the reference."""
    return (CALIBRATION_REFERENCE_S / calibration_s) ** CALIBRATION_EXPONENT


def scaled(job, key, scale=True):
    """A job's time converted to the reference host speed (or raw)."""
    if not scale:
        return job[key]
    return job[key] * speed_factor(job["calibration_s"])


def provenance(result, src):
    """Machine and source facts printed with every result (not metrics)."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=src,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    package = os.path.join(src, "dynzeta")
    src_lines = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                src_lines += sum(1 for _ in handle)
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": result["python"],
            "numpy": result["numpy"], "commit": commit,
            "src_lines": src_lines}


def metrics(result, trace, scale=True):
    if trace:
        return {name: {"value": value,
                       "unit": "s" if name.rsplit(".", 1)[1] in TIME_STATS
                       else "count"}
                for name, value in result["layers"].items()}
    records = result["jobs"]
    ok = sum(1 for job in records if job["problem"] is None)
    # Every round runs the same mix of jobs, so the median round gives the
    # rate; it discounts a round slowed by another tenant of the machine.
    per_round, start = [], 0
    for rnd in result["rounds"]:
        per_round.append(records[start:start + rnd["jobs"]])
        start += rnd["jobs"]
    values = {
        "jobs_per_s": statistics.median(
            len(jobs_) / sum(scaled(job, "seconds", scale) for job in jobs_)
            for jobs_ in per_round),
        "job_p50_s": statistics.median(scaled(job, "seconds", scale)
                                       for job in records),
        "cpu_per_job_s": statistics.median(
            sum(scaled(job, "cpu_s", scale) for job in jobs_) / len(jobs_)
            for jobs_ in per_round),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": statistics.median(
            ready * (speed_factor(cal) if scale else 1.0)
            for ready, cal in result["setup_s"]),
        "success_rate": ok / len(records),
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=jobs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    deadline = time.monotonic() + DEADLINE_S
    try:
        result = measure(args, deadline)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    records = result["jobs"]
    if not records:
        print("benchmark failed: no job ran", file=sys.stderr)
        return 1
    for job in records:
        print(f"job {job['seconds']:9.4f}s exit={job['exit']} "
              f"{job['slot']:26s} {job['problem'] or 'ok'}  {job['id']}")
    failed = sum(1 for job in records if job["problem"] is not None)
    report = metrics(result, args.trace)
    raw = {} if args.trace else metrics(result, args.trace, scale=False)
    print(f"{args.workload}: {len(records)} jobs in {len(result['rounds'])} "
          f"rounds, {failed} failed, error_rate {failed / len(records):.4f}")
    for name, entry in report.items():
        unscaled = (f"  (unscaled {raw[name]['value']:.6g})"
                    if name in raw else "")
        print(f"  {name:40s} {entry['value']:.6g} {entry['unit']}{unscaled}")
    print("machine:", json.dumps(provenance(result, os.path.join(os.getcwd(), "src"))))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
