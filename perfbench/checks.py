"""Per-job correctness checks, run after the timed loop.

Each check recomputes what the job's output claims by a route other than
the one the job took, and every job's stdout must also match the sha256
pinned in golden.json (byte-identical CLI output is the project's golden
output).  A check returns None when the output is correct and a short
reason otherwise.
"""

import json

from dynzeta import cli, modpoly
from dynzeta.elliptic import EllipticCurve, trace_of_frobenius
from dynzeta.families import (AdditiveMap, LattesOrdinary, SubadditiveMap,
                              classify_separability, map_degree, per_n_closed)
from dynzeta.field import field_make
from dynzeta.orders import QuadRing, prime_context
from dynzeta.sentinels import TRANSCENDENTAL
from dynzeta.twisted import constant_order

from jobs import THUE_MORSE, artin_schreier


def _records(stdout):
    return [json.loads(line) for line in stdout.splitlines()]


def _rational_form(D):
    """1 / ((1 - t)(1 - D t)), the zeta function of every inseparable map."""
    return ["1"], ["1", str(-(D + 1)), str(D)]


def check_verdict(params, recs):
    fam = cli.build_family(params)
    verdict = recs[1]
    if classify_separability(fam) == "inseparable":
        expected = ("rational", "inseparable")
    elif (isinstance(fam, (AdditiveMap, SubadditiveMap))
          and constant_order(fam.sigma) is TRANSCENDENTAL):
        expected = ("rational", "transcendental-linear-coefficient")
    elif isinstance(fam, (AdditiveMap, SubadditiveMap)):
        expected = ("transcendental-evidence", "separable-additive-algebraic")
    else:
        expected = ("transcendental-evidence",
                    "separable-multiplicative-or-lattes")
    if (verdict["outcome"], verdict["reason"]) != expected:
        return f"verdict {verdict['outcome']}/{verdict['reason']}, expected {expected}"
    if expected[0] == "rational":
        num, den = _rational_form(map_degree(fam))
        if verdict["numerator"] != num or verdict["denominator"] != den:
            return "rational closed form differs from 1/((1-t)(1-Dt))"
        return None
    cert = recs[2]
    if cert["record"] != "certificate" or cert["consistent"] is not True:
        return "certificate missing or not consistent"
    kinds = [r["record"] for r in recs[3:]]
    if kinds != ["kernel", "kernel", "period"] or recs[5]["found"]:
        return "certificate evidence incomplete or periodic"
    return None


def check_count(params, recs):
    rows = [r for r in recs if r["record"] == "row"]
    if not rows or any(r["oracle"] is None or r["match"] is not True
                       for r in rows):
        return "closed form and oracle do not match on every row"
    return None


def _compose_mod(f, g, Q, p):
    """f(g(x)) reduced modulo x^Q - x over F_p (f, g ascending int lists)."""
    acc = []
    for c in reversed(f):
        acc = modpoly.add(modpoly.mul(acc, g, p), [c], p)
        if len(acc) > Q:
            low = acc[:Q]
            for i in range(Q, len(acc)):
                low[i - Q + 1] += acc[i]
            acc = modpoly.trim([v % p for v in low])
    return acc


def check_census(params, recs):
    """Sum over L | n of L * c_L = 1 + deg gcd(f^n(x) - x, x^Q - x)."""
    _, f = cli._resolve_map(params)
    p = f.ctx.p
    if f.den.degree != 0:
        return "census checks cover polynomial maps only"
    fc = [c.rep for c in f.num.coeffs]
    Q = p ** params["ext_degree"]
    field_poly = [0, p - 1] + [0] * (Q - 2) + [1]      # x^Q - x
    cycles = {int(r["length"]): int(r["count"]) for r in recs
              if r["record"] == "cycle"}
    g = [0, 1]
    for n in range(1, params["max_period"] + 1):
        g = _compose_mod(fc, g, Q, p)
        h = modpoly.sub(g, [0, 1], p)
        fixed = Q if not h else modpoly.deg(modpoly.gcd(field_poly, h, p))
        census = sum(L * c for L, c in cycles.items() if n % L == 0)
        if census != 1 + fixed:
            return f"period {n}: census {census}, algebraic count {1 + fixed}"
    return None


def check_christol(params, recs):
    values = [int(v) for v in recs[1]["values"]]
    p, terms = params["p"], params["terms"]
    if params["poly"] == THUE_MORSE:
        expected = [bin(i).count("1") % 2 for i in range(terms)]
    else:
        c = next(c for c in range(1, 8) if artin_schreier(p, c) == params["poly"])
        hits = set()
        power = c
        while power < terms:
            hits.add(power)
            power *= p
        expected = [p - 1 if i in hits else 0 for i in range(terms)]
    if values != expected:
        return "series coefficients differ from the fixture"
    return None


def check_zeta(params, recs):
    fam = cli.build_family(params)
    coeffs = [int(c) for c in recs[1]["coefficients"]]
    terms = params["terms"]
    if len(coeffs) != terms + 1 or coeffs[0] != 1:
        return "wrong series length or constant term"
    counts = [per_n_closed(fam, n) for n in range(1, 9)]
    for j in range(1, 9):
        if j * coeffs[j] != sum(counts[i - 1] * coeffs[j - i]
                                for i in range(1, j + 1)):
            return f"coefficient {j} breaks the exponential recurrence"
    if classify_separability(fam) == "inseparable":
        D = map_degree(fam)
        num, den = _rational_form(D)
        guess = recs[2]
        if not guess["found"] or guess["numerator"] != num or guess["denominator"] != den:
            return "inseparable map without its rational closed form"
        if coeffs != [(D ** (j + 1) - 1) // (D - 1) for j in range(terms + 1)]:
            return "series differs from the expansion of 1/((1-t)(1-Dt))"
    return None


def check_torsion(job, recs):
    ctx = field_make(job["p"])
    E = EllipticCurve(ctx, ctx.from_int(job["A"]), ctx.from_int(job["B"]))
    ring = QuadRing(trace_of_frobenius(E), job["p"])
    fam = LattesOrdinary(prime_context(ring, job["p"]),
                         ring.elem(job["m"], 0), 2)
    if int(recs[0]["count"]) != per_n_closed(fam, job["n"]):
        return "torsion count differs from the ordinary closed form"
    return None


_CLI_CHECKS = {"verdict": check_verdict, "count": check_count,
               "census": check_census, "zeta": check_zeta}


def check(job, stdout):
    recs = _records(stdout)
    if "call" in job:
        return check_torsion(job, recs)
    params = job["params"]
    if job["command"] == "automata":
        return check_christol(params, recs)
    return _CLI_CHECKS[job["command"]](params, recs)
