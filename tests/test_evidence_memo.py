"""The verdict evidence memo: zeta._evidence, an lru_cache.

The evidence of a certificate (values prefix, kernels, control, period
scan) is a function of the residue sequence's key (shape, ratio, a1,
alpha, beta, p, ell), so many maps share one entry.  A certificate built
from a warm entry must print what the cold build prints, a hit must form
no evidence yet still re-derive its own counts, a wrong count is refused
before any evidence is looked up, and the memo keeps at most
EVIDENCE_CACHE_SIZE keys, least recently used out first.
"""

import dataclasses
import functools
import importlib.util
import io
import json
from pathlib import Path

import pytest

from dynzeta import zeta
from dynzeta.automata import driving_progression, residue_term
from dynzeta.cli import SCHEMA, build_family, main
from dynzeta.errors import Mismatch
from dynzeta.families import (ChebyshevMap, LattesGenericJ, PowerMap,
                              per_n_counts)
from dynzeta.intarith import v_p
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


def _key(cert):
    return (cert.shape, cert.ratio, cert.tower_multiplier, cert.alpha,
            cert.beta, cert.p, cert.ell)


def _stdout_key(params, stdout):
    """The evidence key read off a verdict's certificate record, or None."""
    for line in stdout.splitlines():
        record = json.loads(line)
        if record["record"] == "certificate":
            return (record["shape"], *(int(record[name]) for name in (
                "ratio", "tower_multiplier", "alpha", "beta")),
                int(params["p"]), int(record["ell"]))
    return None


def _info():
    info = zeta._evidence.cache_info()
    return info.hits, info.misses, info.currsize


@pytest.mark.parametrize("specs", [POOL, SWEEP], ids=["pool", "sweep"])
def test_warm_stdout_equals_cold(specs, tmp_path):
    groups = {}
    for params in specs:
        zeta._evidence.cache_clear()
        cold = _verdict_stdout(params, tmp_path)
        assert cold[0] == 0, params
        key = _stdout_key(params, cold[1])
        assert _info() == ((0, 1, 1) if key else (0, 0, 0)), params
        if key:
            groups.setdefault(key, []).append((params, cold))
    shared = 0
    for members in groups.values():
        for i, (params, cold) in enumerate(members):
            # warmed by another spec of the key when it has one
            warmer = members[i - 1][0]
            zeta._evidence.cache_clear()
            _verdict_stdout(warmer, tmp_path)
            assert _verdict_stdout(params, tmp_path) == cold, params
            assert _info() == (1, 1, 1), params
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
    assert _info() == (0, 1, 1)
    assert main(argv, out=second) == 0
    assert _info() == (1, 1, 1)
    assert second.getvalue() == first.getvalue()


def test_battery_verdicts_warm_equal_cold(F2, F3, F3u):
    from test_acceptance import _verdict_battery
    for fam, _, _ in _verdict_battery(F2, F3, F3u):
        zeta._evidence.cache_clear()
        cold = verdict(fam)
        assert verdict(fam) == cold, fam


def test_hit_forms_no_evidence(monkeypatch):
    # power d = 2 and Chebyshev d = 3 at p = 5 share one residue sequence
    cold = certificate_build(PowerMap(5, 2))
    calls = _count_evidence_calls(monkeypatch)
    warm = certificate_build(ChebyshevMap(5, 3))
    assert calls == []
    assert _info() == (1, 1, 1)
    assert _key(warm) == _key(cold) == ("geometric", 5, 0, 6, 1, 5, 7)
    assert warm.values is cold.values and warm.ell_kernel is cold.ell_kernel
    assert warm == dataclasses.replace(
        cold, family="chebyshev", m=warm.m, v0=warm.v0,
        crosscheck_terms=warm.crosscheck_terms)
    assert warm.crosscheck_terms >= 1 and warm.consistent()


def test_cold_build_forms_one_prefix_before_any_kernel(monkeypatch):
    calls = _count_evidence_calls(monkeypatch)
    certificate_build(PowerMap(5, 2))
    assert calls[0] == "residue_sequence"
    assert calls.count("residue_sequence") == 1
    assert "kernel_explore" in calls


def _wrong_first_count(monkeypatch):
    seen = []

    def wrong(mapping, first, step=1):
        for count in per_n_counts(mapping, first, step):
            seen.append(count)
            yield count + (len(seen) == 1)
    monkeypatch.setattr(zeta, "per_n_counts", wrong)


def test_cold_build_refuses_a_wrong_count_before_any_evidence(monkeypatch):
    _wrong_first_count(monkeypatch)
    calls = _count_evidence_calls(monkeypatch)
    with pytest.raises(Mismatch, match="re-derivation at n=0"):
        certificate_build(PowerMap(5, 2))
    assert calls == []
    assert _info() == (0, 0, 0)


def test_hit_still_refuses_a_wrong_count(monkeypatch):
    certificate_build(PowerMap(5, 2))
    _wrong_first_count(monkeypatch)
    calls = _count_evidence_calls(monkeypatch)
    with pytest.raises(Mismatch, match="re-derivation at n=0"):
        certificate_build(PowerMap(5, 3))
    assert calls == []
    assert _info() == (0, 1, 1)


def test_hit_wrong_count_exits_4(monkeypatch, tmp_path):
    assert _verdict_stdout({"family": "power", "p": 5, "d": 2}, tmp_path)[0] == 0
    _wrong_first_count(monkeypatch)
    code, _ = _verdict_stdout({"family": "power", "p": 5, "d": 3}, tmp_path)
    assert code == 4
    # a refused certificate leaves the memo as it was
    assert _info() == (0, 1, 1)
    assert certificate_build(PowerMap(5, 2)).crosscheck_terms == 48
    assert _info() == (1, 1, 1)


def test_eviction_keeps_the_bound_and_recomputes_exactly(monkeypatch):
    monkeypatch.setattr(zeta, "_evidence",
                        functools.lru_cache(3)(zeta._evidence.__wrapped__))
    maps = [PowerMap(5, 2), PowerMap(11, 2), PowerMap(3, 2),
            LattesGenericJ(7, 2)]
    first = [certificate_build(m) for m in maps]
    assert len({_key(c) for c in first}) == 4
    assert _info() == (0, 4, 3)
    # a hit is the most recently used: the next miss evicts maps[2]'s key
    certificate_build(maps[1])
    calls = _count_evidence_calls(monkeypatch)
    again = certificate_build(maps[0])
    assert "kernel_explore" in calls
    assert again == first[0]
    assert again.values is not first[0].values
    calls.clear()
    for m in (maps[3], maps[1], maps[0]):
        certificate_build(m)
    assert calls == [] and _info() == (4, 5, 3)
    certificate_build(maps[2])
    assert "kernel_explore" in calls and _info() == (4, 6, 3)


def _pool_certificates():
    results = (verdict(build_family(params)) for params in POOL)
    return [r.certificate for r in results if r.certificate is not None]


def test_pooled_values_are_the_residue_terms_of_the_driving_valuations():
    # every kept value, not only the re-derived ones, is the residue term
    # at the valuation of the driving progression's term
    certs = _pool_certificates()
    assert certs
    for cert in certs:
        term, _ = residue_term(cert.shape, cert.ratio, cert.tower_multiplier,
                               cert.p, cert.ell)
        alpha, beta = driving_progression(cert.shape, cert.alpha, cert.beta)
        assert len(cert.values) == zeta.PERIOD_TERMS
        # the tower's n = 0 carries no valuation: the sieve gives it v = 0
        assert cert.values == tuple(
            term(v_p(alpha * n + beta, cert.p) if alpha * n + beta else 0)
            for n in range(zeta.PERIOD_TERMS)), _key(cert)


def test_pool_pass_misses_once_per_key():
    certs = _pool_certificates()
    keys = {_key(cert) for cert in certs}
    assert len(keys) <= zeta.EVIDENCE_CACHE_SIZE
    assert _info() == (len(certs) - len(keys), len(keys), len(keys))
