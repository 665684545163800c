"""Seeded job generation for the four benchmark workloads.

A job is either a CLI job dict (``{"command": ..., "params": ...}``, run
through ``dynzeta --job FILE``) or, where the CLI has no verb, a call to a
public library function (``{"call": "lattes_oracle", ...}``).

Every workload is a set of *slots*.  A slot holds a finite pool of
distinct jobs of similar cost; one round of a run draws a fixed number of
jobs from each slot, and each slot's pool is drawn without replacement in
a seeded order.  So no job repeats within a run, every run executes the
same mix of job kinds whatever the seed, and the seed only changes which
parameters of each kind are run.  Fixing the mix is what
keeps jobs-per-second comparable across seeds; the pools were sized from
single profiled runs so the jobs inside one slot cost about the same.

Why each workload exists (the layer each one stresses and the layers it
leaves idle) is stated in BENCHMARK.json and README.md.
"""

import json
import random

DEFAULT_SEED = 20260808

# -- verdict --------------------------------------------------------------------------

_VERDICT_SLOTS = {
    "power": [{"family": "power", "p": p, "d": d}
              for p, ds in ((5, (2, 3, 4, -2, -3)), (11, (2, 3, 4, 5, -2, -3)))
              for d in ds],
    "chebyshev": [{"family": "chebyshev", "p": p, "d": d}
                  for p, ds in ((5, (2, 3, 4)), (11, (2, 3, 5))) for d in ds],
    "lattes-generic": [{"family": "lattes-generic", "p": 5, "s": s}
                       for s in (2, 3, -2, -3, 4)],
    "additive": [{"family": "additive", "p": 3, "sigma": sigma}
                 for sigma in ([1, 1], [-1, 1], [1, 1, 1], [1, -1, 1],
                               [1, 2, 1])],
    "subadditive": [{"family": "subadditive", "p": 3, "sigma": sigma, "d": 2}
                    for sigma in ([1, 1], [-1, 1], [1, 1, 1], [1, 2, 1],
                                  [1, -1, 1])],
    "lattes-ordinary": [{"family": "lattes-ordinary", "p": 11,
                         "tau": [t, 11], "sigma": sigma}
                        for t in (1, 2, -1, 3)
                        for sigma in ([2, 0], [3, 0], [1, 1], [2, 1])],
    # Only pairs that certify: other (trace, norm) pairs at p = 5, 7, 11
    # and 13 hit a known certificate re-derivation failure (exit 4, kept
    # visible in selftest.py), and these jobs measure speed on inputs the
    # program gets right.
    "lattes-supersingular": [
        {"family": "lattes-supersingular", "p": p, "sigma_tn": tn}
        for p, tns in ((11, ([0, 3], [2, 3], [1, 3], [0, 4])), (13, ([0, 3],)))
        for tn in tns],
    # The rational branch: inseparable maps ...
    "inseparable": (
        [{"family": "power", "p": p, "d": d}
         for p, ds in ((3, (3, 6, 9, -3)), (5, (5, 10, -5)), (7, (7,)))
         for d in ds]
        + [{"family": "chebyshev", "p": p, "d": p} for p in (3, 5, 7)]
        + [{"family": "lattes-generic", "p": p, "s": p} for p in (3, 5, 7)]
        + [{"family": "lattes-ordinary", "p": 11, "tau": [t, 11],
            "sigma": [0, 1]} for t in (1, 2, -1, 3)]),
    # ... and additive maps with a transcendental linear coefficient.
    "transcendental-coefficient": [
        {"family": "additive", "p": p, "ratfunc": True, "sigma": sigma}
        for p in (2, 3, 5)
        for sigma in (["u", 1], ["u+1", 1], ["u^2", 1], ["u", 0, 1],
                      ["u^2+u", 1])],
}

# -- oracle ---------------------------------------------------------------------------

_LOW, _CAP = 1000, 10_000
_PRIMES = (2, 3, 5, 7)


def _degree_powers(deg, low=_LOW, cap=_CAP):
    """Every n with low <= deg^n <= cap."""
    out = []
    n = 1
    while deg ** n <= cap:
        if deg ** n >= low:
            out.append(n)
        n += 1
    return out


def _count(params, n):
    return {"command": "count", "params": dict(params, n_min=n, n_max=n)}


def _oracle_slots():
    power = [_count({"family": "power", "p": p, "d": d}, n)
             for p in _PRIMES
             for d in (2, 3, 4, 5, 6, 7, 8, 9, 10, -2, -3, -4, -5, -6)
             if d % p for n in _degree_powers(abs(d))]
    # Chebyshev iterate cost depends on (p, d) more than on the degree;
    # these pairs cost within about 20% of each other.  p in {11, 13} is
    # added so the slot holds enough distinct jobs.
    chebyshev = [_count({"family": "chebyshev", "p": p, "d": d}, n)
                 for (d, n), primes in (((2, 12), (3, 5, 7)),
                                        ((4, 6), (3, 5, 7)),
                                        ((8, 4), (3, 5, 7)),
                                        ((3, 8), (2, 5, 7, 11, 13)),
                                        ((9, 4), (2, 5, 7, 11, 13)))
                 for p in primes]
    additive = [_count({"family": "additive", "p": p, "sigma": [a, b]}, n)
                for p in _PRIMES for a in range(1, p) for b in range(1, p)
                for n in _degree_powers(p)]
    # p = 5 stays below the degree floor: its n = 5 iterates cost 1-2 s.
    subadditive = [_count({"family": "subadditive", "p": p, "sigma": [a, b],
                           "d": d}, n)
                   for p, ds, ns in ((3, (2,), (7, 8)), (5, (2, 4), (4,)),
                                     (7, (2, 3, 6), (4,)))
                   for d in ds for a in range(1, p) for b in range(1, p)
                   for n in ns]
    return {"power": (power, 3), "chebyshev": (chebyshev, 1),
            "additive": (additive, 2), "subadditive": (subadditive, 4)}


# -- enumerate ------------------------------------------------------------------------

# One field F_(p^k) per census slot, so the jobs of a slot enumerate the
# same number of points with maps of degree 2 or 3.  The field sizes keep
# the slots' costs apart, so the median job of a round is always a
# census over F_(3^6).
_CENSUS_FIELDS = {"census-2^10": (2, 10), "census-3^6": (3, 6),
                  "census-5^4": (5, 4), "census-7^3": (7, 3)}

# Ordinary curves y^2 = x^3 + Ax + B over F_7 whose 3-torsion sweep
# certifies completeness at k_max = 4 (found by exhaustive search).
_TORSION_F7 = ((0, 1), (0, 4), (1, 3), (2, 3), (3, 1), (3, 2), (3, 3),
               (4, 3), (5, 1), (5, 2), (5, 3), (6, 1), (6, 2), (6, 3))


def _census_maps(p):
    maps = [{"family": family, "p": p, "d": d}
            for family in ("power", "chebyshev") for d in (2, 3) if d % p]
    if p <= 3:
        maps += [{"family": "additive", "p": p, "sigma": [a, 1],
                  "translation": t} for a in range(1, p) for t in range(p)]
    return maps


def _enumerate_slots():
    slots = {name: [{"command": "census",
                     "params": dict(m, ext_degree=k, max_period=mp)}
                    for m in _census_maps(p) for mp in (4, 5, 6)]
             for name, (p, k) in _CENSUS_FIELDS.items()}
    slots["torsion-f7"] = [
        {"call": "lattes_oracle", "p": 7, "A": a, "B": b, "m": 2, "n": 1,
         "k_max": 4} for a, b in _TORSION_F7]
    return slots


# -- series ---------------------------------------------------------------------------

THUE_MORSE = "t + y + t^2*y + y^2 + t*y^2 + t^2*y^2 + t^3*y^2"


def artin_schreier(p, c):
    """y^p - y - t^c over F_p; its root with y(0) = 0 is -sum t^(c p^i)."""
    if p == 2:
        return f"y^2+y+t^{c}"
    return f"y^{p}+{p - 1}*y+{p - 1}*t^{c}"


def _christol(poly, p, prefix, terms):
    return {"command": "automata",
            "params": {"kind": "christol", "poly": poly, "p": p,
                       "prefix": prefix, "terms": terms}}


def _series_slots():
    zeta_sep = [{"family": "power", "p": p, "d": d}
                for p, ds in ((3, (2, -2, 4)), (5, (2, 3, -2)), (7, (2, 3)))
                for d in ds]
    zeta_sep += [{"family": "chebyshev", "p": p, "d": d}
                 for p, d in ((5, 2), (7, 3), (5, 3))]
    zeta_insep = [{"family": "power", "p": p, "d": d}
                  for p, ds in ((2, (2, 4)), (3, (3, 6)), (5, (5,)),
                                (7, (7,)))
                  for d in ds]
    zeta_insep += [{"family": "chebyshev", "p": p, "d": p} for p in (3, 5)]
    # Newton steps over F_2 cost about twice those over odd primes, so the
    # two get separate slots; term ranges are narrow because the cost
    # grows with the number of terms.
    return {
        "christol-odd": [_christol(artin_schreier(p, c), p, [0], terms)
                         for p in (3, 5, 7) for c in (1, 2, 3)
                         for terms in range(4096, 6145, 128)],
        "christol-even": [_christol(artin_schreier(2, c), 2, [0], terms)
                          for c in (1, 2, 3)
                          for terms in range(4096, 6145, 128)],
        "christol-thue-morse": [_christol(THUE_MORSE, 2, [0, 1], terms)
                                for terms in range(4096, 5121, 32)],
        "zeta-separable": [{"command": "zeta", "params": dict(m, terms=t)}
                           for m in zeta_sep for t in range(200, 251, 5)],
        "zeta-inseparable": [{"command": "zeta", "params": dict(m, terms=t)}
                             for m in zeta_insep
                             for t in range(200, 251, 5)],
    }


def _cli(params_by_slot, command):
    return {slot: [{"command": command, "params": params} for params in pool]
            for slot, pool in params_by_slot.items()}


# Rounds a run executes even past --seconds.  A verdict round is about
# 15 s of heavy jobs; the median of three rounds is robust to one round
# slowed by another tenant of the machine.
MIN_ROUNDS = {"verdict": 3}

# Rounds a traced run executes, whatever --seconds says: a fixed job set,
# so each per-layer total measures the same work on a fast or slow host.
# Each is about 15 s of jobs untraced.
TRACE_ROUNDS = {"verdict": 1, "oracle": 12, "enumerate": 5, "series": 4}

WORKLOADS = {
    "verdict": lambda: _cli(_VERDICT_SLOTS, "verdict"),
    "oracle": _oracle_slots,
    "enumerate": _enumerate_slots,
    "series": _series_slots,
}


def job_id(job):
    """Canonical text of a job; the key of its pinned output digest."""
    return json.dumps(job, sort_keys=True, separators=(",", ":"))


def _draws(entry):
    """A slot is a pool of jobs, or (pool, jobs drawn per round)."""
    return entry if isinstance(entry, tuple) else (entry, 1)


def slots(workload):
    """{slot name: pool of distinct jobs} for one workload."""
    pools = {name: _draws(entry)[0]
             for name, entry in WORKLOADS[workload]().items()}
    seen = set()
    for pool in pools.values():
        for job in pool:
            key = job_id(job)
            if key in seen:
                raise ValueError(f"job listed twice in {workload}: {key}")
            seen.add(key)
    return pools


def rounds(workload, seed):
    """The seeded job sequence: a list of rounds of (slot, job) pairs.

    Each round draws the same number of jobs from every slot; there are as
    many rounds as the pools allow, and a run executes rounds until its
    measuring time is used up.
    """
    rng = random.Random(f"{workload}/{seed}")
    entries = {name: _draws(entry)
               for name, entry in WORKLOADS[workload]().items()}
    slots(workload)  # rejects duplicate jobs
    names = sorted(entries)
    queues = {name: rng.sample(entries[name][0], len(entries[name][0]))
              for name in names}
    count = min(len(queues[name]) // entries[name][1] for name in names)
    out = []
    for r in range(count):
        picks = [(name, queues[name][r * entries[name][1] + i])
                 for name in names for i in range(entries[name][1])]
        rng.shuffle(picks)
        out.append(picks)
    return out
