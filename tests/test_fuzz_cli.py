"""Spec fuzzing of the CLI: every accepted input exits 0, or refuses with
exit 2 (invalid specification, empty stdout) or 3 (scale budget), and no
count row has a closed form that disagrees with its oracle.

Drawn: count, oracle, zeta, verdict and census specs over power,
Chebyshev, Lattes-generic, additive (also over F_p(u)), subadditive,
Lattes-ordinary and raw rational maps, spelled as flags or as job files.
Left out, each an open defect with its own fix:
- lattes-supersingular: split-prime (T, N) pairs describe no supersingular
  curve and can end in exit 4 (refusing them at construction is pending);
- automata vp-geometric / vp-tower: terms below the kernel horizon end in
  an IndexError traceback (a refusal with exit 2 is pending).
Raw-map oracles keep n <= 50, as a degree-1 map is iterated once per
step, and n <= 6 over F_(p^2), whose polynomial remainders are Python
loops over boxed field elements.
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


@st.composite
def _power(draw):
    return {"family": draw(st.sampled_from(["power", "chebyshev"])),
            "p": draw(PRIMES), "d": draw(st.integers(-3, 30))}


@st.composite
def _lattes_generic(draw):
    params = {"family": "lattes-generic", "p": draw(PRIMES),
              "s": draw(st.integers(-6, 6))}
    if draw(st.booleans()):
        params["variant"] = draw(st.sampled_from(["norm", "absolute"]))
    return params


@st.composite
def _additive(draw):
    p = draw(PRIMES)
    params = {"family": "additive", "p": p}
    if draw(st.integers(0, 3)) == 0:
        params["ratfunc"] = True
        entry = st.one_of(SMALL, st.sampled_from(
            ["u", "u+1", "2*u^2+1", "u^3-u", "1"]))
        params["sigma"] = draw(st.lists(entry, min_size=1, max_size=3))
    else:
        if draw(st.booleans()):
            params["k"] = draw(st.integers(1, 2))
        params["sigma"] = draw(st.lists(SMALL, min_size=1, max_size=4))
        if draw(st.booleans()):
            params["translation"] = draw(SMALL)
    return params


@st.composite
def _subadditive(draw):
    p = draw(PRIMES)
    k = draw(st.integers(1, 2))
    top = draw(st.integers(1, 3))
    # d mostly divides p^top - 1, so the map satisfies the descent condition
    divisors = [d for d in range(2, 41) if (p ** top - 1) % d == 0]
    if divisors and draw(st.integers(0, 3)):
        d = draw(st.sampled_from(divisors))
    else:
        d = draw(st.integers(0, 12))
    sigma = [draw(SMALL) for _ in range(top)] + [draw(st.integers(1, 4))]
    params = {"family": "subadditive", "p": p, "sigma": sigma, "d": d}
    if k > 1:
        params["k"] = k
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
    if draw(st.booleans()):
        params["k"] = draw(st.integers(1, 2))
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
        n_min = draw(st.integers(1, 50 if raw and "k" not in params else 6))
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


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(spec=specs(), as_job=st.booleans())
def test_every_drawn_spec_exits_cleanly(spec, as_job):
    command, params = spec
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
