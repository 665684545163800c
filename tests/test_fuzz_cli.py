"""Spec fuzzing of the CLI: every accepted input exits 0, or refuses with
exit 2 (invalid specification, empty stdout) or 3 (scale budget), and no
count row has a closed form that disagrees with its oracle.

Drawn: count, oracle, zeta, verdict and census specs over power,
Chebyshev, Lattes-generic, additive and subadditive (each also over
F_p(u), and subadditive also with mu_d outside F_p), Lattes-ordinary and
raw rational maps, and automata specs (Christol roots,
vp-geometric and vp-tower kernels), spelled as flags or as job files.
Left out, each an open defect with its own fix:
- lattes-supersingular: split-prime (T, N) pairs describe no supersingular
  curve and can end in exit 4 (refusing them at construction is pending);
- automata vp-geometric / vp-tower with terms below the kernel horizon
  base^depth * prefix_len: kernel_explore reads past the sequence and ends
  in an IndexError traceback, which perfbench/selftest.py pins as its
  traceback job, so its refusal waits for a change to the benchmark.  The
  drawn terms stay at or above the horizon.
Raw-map oracles draw n <= 50, family counts and oracles n <= 6.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dynzeta.cli import main

PRIMES = st.sampled_from([2, 3, 5, 7, 11, 13])
SMALL = st.integers(-4, 8)
# a coefficient of sigma over F_p(u)
U_ENTRY = st.one_of(SMALL, st.sampled_from(["u", "u+1", "2*u^2+1", "u^3-u", "1"]))


@st.composite
def _power(draw):
    return {"family": draw(st.sampled_from(["power", "chebyshev"])),
            "p": draw(PRIMES), "d": draw(st.integers(-3, 30))}


@st.composite
def _lattes_generic(draw):
    return {"family": "lattes-generic", "p": draw(PRIMES),
            "s": draw(st.integers(-6, 6))}


@st.composite
def _additive(draw):
    p = draw(PRIMES)
    params = {"family": "additive", "p": p}
    if draw(st.integers(0, 3)) == 0:
        params["ratfunc"] = True
        params["sigma"] = draw(st.lists(U_ENTRY, min_size=1, max_size=3))
    else:
        params["sigma"] = draw(st.lists(SMALL, min_size=1, max_size=4))
        if draw(st.booleans()):
            params["translation"] = draw(SMALL)
    return params


@st.composite
def _subadditive(draw):
    p = draw(PRIMES)
    top = draw(st.integers(1, 3))
    # d mostly divides p^top - 1, so the map satisfies the descent
    # condition, and often not p - 1, so mu_d lies outside F_p
    divisors = [d for d in range(2, p ** top) if (p ** top - 1) % d == 0]
    outside = [d for d in divisors if (p - 1) % d]
    pick = draw(st.integers(0, 3))
    if outside and pick == 3:
        d = draw(st.sampled_from(outside))
    elif divisors and pick:
        d = draw(st.sampled_from(divisors))
    else:
        d = draw(st.integers(0, 12))
    params = {"family": "subadditive", "p": p, "d": d}
    entry = SMALL
    if draw(st.integers(0, 3)) == 0:
        params["ratfunc"] = True
        entry = U_ENTRY
    # a term F^i with p^i != 1 mod d breaks the descent: mostly it is 0
    params["sigma"] = [draw(entry) if d < 2 or (p ** i - 1) % d == 0
                       or not draw(st.integers(0, 3)) else 0
                       for i in range(top)] + [draw(st.integers(1, 4))]
    return params


@st.composite
def _lattes_ordinary(draw):
    params = {"family": "lattes-ordinary",
              "p": draw(st.sampled_from([5, 7, 11, 13])),
              "tau": [draw(st.integers(-6, 6)), draw(st.integers(1, 20))],
              "sigma": [draw(SMALL), draw(SMALL)]}
    if draw(st.booleans()):
        params["gamma_order"] = draw(st.sampled_from([1, 2, 3, 4, 6]))
    return params


@st.composite
def _raw(draw):
    p = draw(PRIMES)
    params = {"p": p, "num": draw(st.lists(SMALL, min_size=2, max_size=4))}
    if draw(st.booleans()):
        params["den"] = draw(st.lists(SMALL, min_size=1, max_size=3))
    return params


FAMILIES = st.one_of(_power(), _lattes_generic(), _additive(), _subadditive(),
                     _lattes_ordinary())


@st.composite
def specs(draw):
    command = draw(st.sampled_from(["count", "oracle", "zeta", "verdict",
                                    "census"]))
    raw = command in ("oracle", "census") and draw(st.booleans())
    params = draw(_raw() if raw else FAMILIES)
    if command in ("count", "oracle"):
        n_min = draw(st.integers(1, 50 if raw else 6))
        params["n_min"] = n_min
        params["n_max"] = n_min + draw(st.integers(0, 3))
    elif command == "zeta":
        params["terms"] = draw(st.integers(0, 40))
        if draw(st.booleans()):
            params["max_order"] = draw(st.integers(0, 12))
    elif command == "census":
        params["ext_degree"] = draw(st.integers(1, 3))
        params["max_period"] = draw(st.integers(1, 6))
    return command, params


@st.composite
def _christol(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    params = {"kind": "christol", "p": p}
    if draw(st.booleans()):
        # Artin-Schreier: y^p - y = g(t) with g(0) = 0 has a root with prefix 0
        tail = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=4))
        params["poly"] = f"y^{p} - y" + "".join(
            f" - {c}*t^{e}" for e, c in enumerate(tail, 1))
        params["prefix"] = [0]
    else:
        monomials = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3),
                                            st.integers(0, 3)),
                                  min_size=1, max_size=5))
        params["poly"] = " + ".join(f"{c}*t^{i}*y^{j}" for c, i, j in monomials)
        if draw(st.booleans()):
            params["prefix"] = draw(st.lists(st.integers(0, p - 1), min_size=1,
                                             max_size=3))
    if draw(st.booleans()):
        params["terms"] = draw(st.integers(0, 600))
    return params


# the largest kernel horizon drawn, which keeps every example fast
HORIZON_CAP = 25000


@st.composite
def _vp(draw):
    kind = draw(st.sampled_from(["vp-geometric", "vp-tower"]))
    if kind == "vp-geometric":
        ell = draw(st.sampled_from([3, 5, 7, 11, 13]))
        # a = 0 or 1 mod ell is refused; mostly draw a ratio that is not
        a = draw(st.integers(2, ell - 1) if draw(st.integers(0, 3)) else SMALL)
        params = {"kind": kind, "a": a,
                  "p": draw(st.sampled_from([2, 3, 5, 7])), "ell": ell}
        for key in ("alpha", "beta"):
            if draw(st.booleans()):
                params[key] = draw(st.integers(-4, 27))
    else:
        # ell > p^(a p^a), and ell = 7 mod 8 at p = 2 or ell = 2 mod 3 at
        # p = 3; the last three break one hypothesis each
        a, p, ell = draw(st.sampled_from([
            (1, 2, 7), (1, 2, 23), (1, 3, 29), (1, 3, 47), (2, 2, 263),
            (0, 2, 7), (2, 2, 23), (1, 3, 31)]))
        params = {"kind": kind, "a": a, "p": p, "ell": ell}
    if draw(st.booleans()):
        params["base"] = draw(st.integers(0, 6))
    if draw(st.booleans()):
        params["prefix_len"] = draw(st.integers(1, 24))
    base = max(params.get("base", params["ell"]), 2)
    prefix_len = params.get("prefix_len", 64)
    depth = 0
    while base ** (depth + 1) * prefix_len <= HORIZON_CAP:
        depth += 1
    if depth < 3 or draw(st.booleans()):
        params["depth"] = depth = draw(st.integers(0, depth))
    else:
        depth = 3
    # terms below base^depth * prefix_len hit the known IndexError (above)
    params["terms"] = base ** depth * prefix_len + draw(st.integers(0, 40))
    if draw(st.booleans()):
        params["show"] = draw(st.integers(0, 80))
    return params


def _flags(command, params):
    argv = [command]
    for key, value in params.items():
        if key == "sigma" and params.get("family") == "lattes-ordinary":
            key = "sigma_quad"
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        elif isinstance(value, list):
            argv += [flag, ",".join(map(str, value))]
        else:
            argv += [flag, str(value)]
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    return code, out.getvalue(), err.getvalue()


def _check(command, params, as_job):
    if as_job:
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "job.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"schema": "dynzeta/1", "command": command,
                           "params": params}, handle)
            code, text, err = _run(["--job", path])
    else:
        code, text, err = _run(_flags(command, params))
    assert code in (0, 2, 3), (command, params, code, err)
    assert "Traceback" not in err
    if code == 2:
        assert text == "", (command, params)
    for record in map(json.loads, text.splitlines()):
        if record["record"] == "row" and record.get("oracle") is not None:
            assert record["closed"] == record["oracle"], (command, params)


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=specs(), as_job=st.booleans())
def test_every_drawn_spec_exits_cleanly(spec, as_job):
    _check(*spec, as_job)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(params=st.one_of(_christol(), _vp()), as_job=st.booleans())
def test_every_drawn_automata_spec_exits_cleanly(params, as_job):
    _check("automata", params, as_job)
