"""The verdict evidence memo of zeta._build_detectors.

The evidence of a certificate (values prefix, kernels, control, period
scan) is a function of the residue sequence's key (shape, ratio, a1,
alpha, beta, p, ell), so many maps share one entry.  A certificate built
from a warm entry must print what the cold build prints, a hit must form
no evidence yet still re-derive its own counts, and the memo keeps at
most EVIDENCE_CACHE_SIZE keys, least recently used out first.
"""

import dataclasses
import importlib.util
import io
import json
from pathlib import Path

import pytest

from dynzeta import zeta
from dynzeta.cli import SCHEMA, main
from dynzeta.errors import Mismatch
from dynzeta.families import (ChebyshevMap, LattesGenericJ, PowerMap,
                              per_n_counts)
from dynzeta.zeta import certificate_build, verdict

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _verdict_pool():
    spec = importlib.util.spec_from_file_location("perfbench_jobs",
                                                  PERFBENCH / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [job["params"] for pool in module.slots("verdict").values()
            for job in pool]


POOL = _verdict_pool()
# A sample of the geometric sweep over the primes p <= 47.
SWEEP = [{"family": family, "p": p, name: d}
         for p in (2, 3, 5, 7, 13, 17, 31, 47)
         for family, name, ds in (("power", "d", (2, 3, -2)),
                                  ("chebyshev", "d", (2, 3)),
                                  ("lattes-generic", "s", (2, -3)))
         for d in ds]

EVIDENCE = ("kernel_explore", "progression_kernel", "residue_sequence",
            "eventual_period_detect")


def _verdict_stdout(params, tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps({"command": "verdict", "params": params,
                                "schema": SCHEMA}), encoding="utf-8")
    out = io.StringIO()
    code = main(["--job", str(path)], out=out)
    return code, out.getvalue()


def _count_evidence_calls(monkeypatch):
    """Names of the evidence functions called through zeta, in order."""
    calls = []
    for name in EVIDENCE:
        def recorded(*args, _name=name, _fn=getattr(zeta, name), **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(zeta, name, recorded)
    return calls


@pytest.mark.parametrize("specs", [POOL, SWEEP], ids=["pool", "sweep"])
def test_warm_stdout_equals_cold(specs, tmp_path):
    groups = {}
    for params in specs:
        zeta._evidence_cache.clear()
        cold = _verdict_stdout(params, tmp_path)
        assert cold[0] == 0, params
        for key in zeta._evidence_cache:
            groups.setdefault(key, []).append((params, cold))
    shared = 0
    for key, members in groups.items():
        for i, (params, cold) in enumerate(members):
            # warmed by another spec of the key when it has one
            warmer = members[i - 1][0]
            zeta._evidence_cache.clear()
            _verdict_stdout(warmer, tmp_path)
            assert list(zeta._evidence_cache) == [key]
            assert _verdict_stdout(params, tmp_path) == cold, params
            shared += warmer is not params
    assert len(groups) < shared


@pytest.mark.parametrize("job", ["additive_verdict.json",
                                 "lattes_supersingular_verdict.json"])
def test_job_file_run_again_prints_the_first_run(job):
    # a verdict run again in one interpreter is built from the kept
    # evidence of its residue sequence and prints what the first run did
    argv = ["--job", str(ROOT / "jobs" / job)]
    first, second = io.StringIO(), io.StringIO()
    assert main(argv, out=first) == 0
    assert len(zeta._evidence_cache) == 1
    assert main(argv, out=second) == 0
    assert second.getvalue() == first.getvalue()


def test_battery_verdicts_warm_equal_cold(F2, F3, F3u):
    from test_acceptance import _verdict_battery
    for fam, _, _ in _verdict_battery(F2, F3, F3u):
        zeta._evidence_cache.clear()
        cold = verdict(fam)
        assert verdict(fam) == cold, fam


def test_hit_forms_no_evidence(monkeypatch):
    # power d = 2 and Chebyshev d = 3 at p = 5 share one residue sequence
    cold = certificate_build(PowerMap(5, 2))
    calls = _count_evidence_calls(monkeypatch)
    warm = certificate_build(ChebyshevMap(5, 3))
    assert calls == []
    assert list(zeta._evidence_cache) == [
        ("geometric", 5, 0, 6, 1, 5, 7)]
    assert warm.values is cold.values and warm.ell_kernel is cold.ell_kernel
    assert warm == dataclasses.replace(
        cold, family="chebyshev", m=warm.m, v0=warm.v0,
        crosscheck_terms=warm.crosscheck_terms)
    assert warm.crosscheck_terms >= 1 and warm.consistent()


def test_cold_build_checks_counts_before_any_kernel(monkeypatch):
    calls = _count_evidence_calls(monkeypatch)
    certificate_build(PowerMap(5, 2))
    assert calls[0] == "residue_sequence"
    assert calls.count("residue_sequence") == 1
    assert "kernel_explore" in calls


def _wrong_first_count(monkeypatch):
    seen = []

    def wrong(mapping, first, step=1, lead=None):
        for count in per_n_counts(mapping, first, step, lead):
            seen.append(count)
            yield count + (len(seen) == 1)
    monkeypatch.setattr(zeta, "per_n_counts", wrong)


def test_hit_still_refuses_a_wrong_count(monkeypatch):
    certificate_build(PowerMap(5, 2))
    _wrong_first_count(monkeypatch)
    calls = _count_evidence_calls(monkeypatch)
    with pytest.raises(Mismatch, match="re-derivation at n=0"):
        certificate_build(PowerMap(5, 3))
    assert calls == []


def test_hit_wrong_count_exits_4(monkeypatch, tmp_path):
    assert _verdict_stdout({"family": "power", "p": 5, "d": 2}, tmp_path)[0] == 0
    _wrong_first_count(monkeypatch)
    code, _ = _verdict_stdout({"family": "power", "p": 5, "d": 3}, tmp_path)
    assert code == 4
    # a refused certificate leaves the entry as it was
    assert list(zeta._evidence_cache) == [("geometric", 5, 0, 6, 1, 5, 7)]


def test_eviction_keeps_the_bound_and_recomputes_exactly(monkeypatch):
    monkeypatch.setattr(zeta, "EVIDENCE_CACHE_SIZE", 3)
    maps = [PowerMap(5, 2), PowerMap(11, 2), PowerMap(3, 2),
            LattesGenericJ(7, 2)]
    first = [certificate_build(m) for m in maps]
    keys = [(c.shape, c.ratio, c.tower_multiplier, c.alpha, c.beta, c.p,
             c.ell) for c in first]
    assert len(set(keys)) == 4
    assert list(zeta._evidence_cache) == keys[1:]
    # a hit is the most recently used: the next miss evicts keys[2]
    certificate_build(maps[1])
    calls = _count_evidence_calls(monkeypatch)
    again = certificate_build(maps[0])
    assert "kernel_explore" in calls
    assert list(zeta._evidence_cache) == [keys[3], keys[1], keys[0]]
    assert again == first[0]
    assert again.values is not first[0].values

