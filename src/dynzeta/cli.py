"""Command-line surface: exact counts, zeta data, verdicts and automata.

Every invocation compiles to a JobSpec (a command name plus a parameter
dictionary) that round-trips losslessly through JSON, so a job file and
the equivalent flag spelling produce byte-identical output.  Results are
line-delimited JSON records with a schema version; every numeric field is
an exact decimal string, never a float.  --table renders the same data as
aligned columns for humans.

Exit codes: 0 success, 2 invalid specification, 3 scale budget exceeded,
4 internal consistency failure (formula disagreeing with oracle), 141
stdout closed by its reader (128 + SIGPIPE, as a shell reports it).
"""

import argparse
import functools
import json
import os
import re
import sys
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

from .dynmap import cycle_census, per_n_oracle, rat_map
from .errors import DynzetaError, Mismatch, ScaleExceeded, SpecError
from .families import (AdditiveMap, ChebyshevMap, LattesGenericJ,
                       LattesOrdinary, LattesSupersingular, PowerMap,
                       SubadditiveMap, classify_separability, per_n_counts,
                       realize)
from .field import field_make, ratfunc_field
from .limits import EXTENSION_DEGREE_CAP
from .automata import (christol_series, eventual_period_detect,
                       kernel_explore, vp_geometric_sequence,
                       vp_tower_sequence)
from .orders import B3_ORDER, HURWITZ, QuadRing, QuatElem, prime_context
from .twisted import TwistedPoly
from .zeta import rationality_guess, verdict, zeta_from_counts

SCHEMA = "dynzeta/1"


@dataclass(frozen=True)
class JobSpec:
    command: str
    params: dict

    def to_dict(self):
        return {"schema": SCHEMA, "command": self.command, "params": self.params}

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise SpecError("a job file holds one JSON object")
        if data.get("schema") not in (None, SCHEMA):
            raise SpecError(f"unsupported job schema {data.get('schema')!r}")
        if "command" not in data:
            raise SpecError("job file lacks a command")
        if not isinstance(data["command"], str):
            raise SpecError("job command must be a string")
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise SpecError("job params must be a JSON object")
        return cls(data["command"], dict(params))


# -- tiny polynomial string parser -------------------------------------------------

_TERM_RE = re.compile(
    r"^\s*(?P<coeff>\d+)?\s*\*?\s*"
    r"(?:(?P<v1>[a-z])(?:\^(?P<e1>\d+))?)?\s*\*?\s*"
    r"(?:(?P<v2>[a-z])(?:\^(?P<e2>\d+))?)?\s*$")


def parse_poly_string(text, variables):
    """Parse a +/- separated sum of monomials like '3*t^2*y + y + 1'.

    Returns {exponent tuple: coefficient} keyed by the given variable
    order.  Parentheses are not supported; expand products beforehand.
    """
    out = {}
    chunks = re.split(r"(?=[+-])", text.replace("-", "+-"))
    for chunk in chunks:
        chunk = chunk.strip()
        if not chunk or chunk == "+":
            continue
        sign = 1
        body = chunk.lstrip("+").strip()
        if body.startswith("-"):
            sign = -1
            body = body[1:].strip()
        if not body:
            raise SpecError(f"empty term in polynomial {text!r}")
        match = _TERM_RE.match(body)
        if not match:
            raise SpecError(f"cannot parse term {body!r}")
        coeff = int(match.group("coeff") or 1) * sign
        exps = [0] * len(variables)
        for vkey, ekey in (("v1", "e1"), ("v2", "e2")):
            var = match.group(vkey)
            if var is None:
                continue
            if var not in variables:
                raise SpecError(f"unknown variable {var!r} in {text!r}")
            exps[variables.index(var)] += int(match.group(ekey) or 1)
        key = tuple(exps)
        out[key] = out.get(key, 0) + coeff
    return out


def _poly_to_y_coeffs(table, p):
    """{(t_exp, y_exp): coeff} -> list of t-coefficient lists per y power."""
    if not table:
        raise SpecError("empty equation")
    ydeg = max(k[1] for k in table)
    tdeg = max(k[0] for k in table)
    out = [[0] * (tdeg + 1) for _ in range(ydeg + 1)]
    for (i, j), c in table.items():
        out[j][i] = c % p
    return out


def _parse_u_coeff(spec, ctx):
    """Coefficient entry for a twisted polynomial: int, or a string
    polynomial in u when the context is the rational-function field."""
    if isinstance(spec, int):
        return ctx.from_int(spec)
    if isinstance(spec, str):
        if ctx.flavor != "ratfunc":
            raise SpecError("string coefficients need the rational-function flavor")
        table = parse_poly_string(spec, ["u"])
        elem = ctx.zero()
        for (e,), c in table.items():
            elem = elem + ctx.from_int(c) * ctx.u() ** e
        return elem
    raise SpecError(f"bad coefficient entry {spec!r}")


# -- map construction from parameters ------------------------------------------------


def build_family(params):
    family = params.get("family")
    p = params.get("p")
    if family == "power":
        return PowerMap(p, params["d"])
    if family == "chebyshev":
        return ChebyshevMap(p, params["d"])
    if family in ("additive", "subadditive"):
        ctx = ratfunc_field(p) if params.get("ratfunc") else field_make(p)
        coeffs = [_parse_u_coeff(c, ctx) for c in params["sigma"]]
        sigma = TwistedPoly.from_elems(ctx, coeffs)
        if family == "additive":
            translation = params.get("translation")
            trans = ctx.elem(translation) if translation is not None else None
            return AdditiveMap(sigma, trans)
        return SubadditiveMap(sigma, params["d"])
    if family == "lattes-generic":
        return LattesGenericJ(p, params["s"])
    if family == "lattes-ordinary":
        T, N = params["tau"]
        ring = QuadRing(T, N)
        ctx = prime_context(ring, p, unit_root=params.get("unit_root"))
        a, b = params["sigma"]
        return LattesOrdinary(ctx, ring.elem(a, b), params.get("gamma_order", 2))
    if family == "lattes-supersingular":
        if "sigma_quat" in params:
            order = HURWITZ if p == 2 else B3_ORDER
            a, b, c, d = params["sigma_quat"]
            quat = QuatElem(order, a, b, c, d)
            return LattesSupersingular(p, sigma_quat=quat,
                                       gamma=params.get("gamma", "units"))
        T, N = params["sigma_tn"]
        return LattesSupersingular(p, sigma_trace=T, sigma_norm=N)
    raise SpecError(f"unknown family {family!r}")


def build_raw_map(params):
    return rat_map(field_make(params["p"]), params["num"], params.get("den", [1]))


def _resolve_map(params):
    """(family map or None, realized rational map or None)."""
    if "family" in params:
        fam = build_family(params)
        realized = None
        try:
            realized = realize(fam)
        except DynzetaError:
            pass
        return fam, realized
    if "num" in params:
        return None, build_raw_map(params)
    raise SpecError("map description needs a family tag or raw coefficients")


# -- parameters -----------------------------------------------------------------------

_FAMILY_KEYS = {
    "power": ("p", "d"),
    "chebyshev": ("p", "d"),
    "additive": ("p", "sigma"),
    "subadditive": ("p", "sigma", "d"),
    "lattes-generic": ("p", "s"),
    "lattes-ordinary": ("p", "tau", "sigma"),
    "lattes-supersingular": ("p",),
}
_AUTOMATA_KEYS = {"christol": ("p", "poly"), "vp-geometric": ("a", "p", "ell"),
                  "vp-tower": ("a", "p", "ell")}
_TWISTED = "twisted"   # integer or u-polynomial entries
# keys that no longer select anything, refused so that a job written for
# them is not answered as if they were absent
_RETIRED = {"seed": "no count depends on the choice of modulus",
            "variant": "the Lattes count is the norm form only",
            "k": "integer coefficients define every map over F_p"}
_MAP = ("count", "oracle", "zeta", "verdict", "census")
_AUTO = ("automata",)


class _Param(NamedTuple):
    """A key, its JSON type (int, str, bool, _TWISTED, or list of integers
    of any or the given length), the verbs whose flag sets it, and argparse
    keywords.  The flag is --key with dashes unless ``name`` is given."""
    key: str
    type: object
    verbs: tuple
    kwargs: dict = {}
    length: int | None = None
    name: str | None = None

    @property
    def dest(self):
        return self.name or self.key

    @property
    def flag(self):
        return "--" + self.dest.replace("_", "-")


# Flag values enter params, and so the header, in this order.
_PARAMS = (
    _Param("kind", str, _AUTO, {"choices": list(_AUTOMATA_KEYS), "required": True}),
    _Param("poly", str, _AUTO),
    _Param("family", str, _MAP, {"choices": list(_FAMILY_KEYS)}),
    _Param("p", int, _MAP + _AUTO),
    *(_Param(key, int, _AUTO) for key in ("a", "ell", "alpha", "beta", "base",
                                           "depth")),
    *(_Param(key, int, _MAP) for key in ("d", "s")),
    *(_Param(key, int, _MAP) for key in ("translation", "gamma_order",
                                          "unit_root")),
    _Param("gamma", str, _MAP, {"choices": ["mu2", "units"]}),
    _Param("ratfunc", bool, _MAP),
    _Param("sigma", _TWISTED, _MAP, {
        "help": "comma-separated twisted coefficients, low degree first "
                "(u-polynomials allowed with --ratfunc)"}),
    _Param("tau", list, _MAP, {"help": "T,N of the quadratic generator"}, 2),
    _Param("sigma", list, _MAP, {"help": "a,b coordinates of the multiplier"},
           2, "sigma_quad"),
    _Param("sigma_tn", list, _MAP, {"help": "trace,norm of the multiplier"}, 2),
    _Param("sigma_quat", list, _MAP,
           {"help": "doubled quaternion coordinates a,b,c,d"}, 4),
    _Param("num", list, _MAP, {"help": "comma-separated numerator coefficients"}),
    _Param("den", list, _MAP, {"help": "comma-separated denominator coefficients"}),
    _Param("n_min", int, _MAP),
    _Param("n_max", int, _MAP),
    _Param("terms", int, _MAP + _AUTO),
    _Param("prefix_len", int, _AUTO),
    _Param("prefix", list, _AUTO, {"help": "comma-separated initial coefficients"}),
    *(_Param(key, int, _MAP) for key in ("max_order", "ext_degree",
                                          "max_period")),
    _Param("show", int, _AUTO, {"help": "sequence terms to print (64)"}),
)
# the row that types each key; sigma takes --sigma-quad's for lattes-ordinary
_TYPED = {row.key: row for row in _PARAMS if row.name is None}
_SIGMA_QUAD = next(row for row in _PARAMS if row.name == "sigma_quad")
_LIST_FLAGS = {row.flag for row in _PARAMS if row.type in (list, _TWISTED)}


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _has_type(value, row):
    if row.type is int:
        return _is_int(value)
    if row.type is _TWISTED:
        return isinstance(value, list) and all(
            _is_int(c) or isinstance(c, str) for c in value)
    if row.type is list:
        return (isinstance(value, list) and all(_is_int(v) for v in value)
                and row.length in (None, len(value)))
    return isinstance(value, row.type)


def validate_params(command, params):
    """Raise SpecError for a missing or mistyped parameter.

    Checks presence and JSON types, that terms, show and max_order are
    not negative (zero asks for an empty prefix), and the census ranges;
    the map constructors still check values (primality, degrees).
    Unknown keys are ignored, except the retired ones.
    """
    for key, reason in _RETIRED.items():
        if key in params:
            raise SpecError(f"parameter {key!r} is retired: {reason}")
    family = params.get("family")
    for key, value in params.items():
        row = _TYPED.get(key)
        if key == "sigma" and family == "lattes-ordinary":
            row = _SIGMA_QUAD
        if row is not None and not _has_type(value, row):
            raise SpecError(f"parameter {key!r} has the wrong type: {value!r}")
    if command == "automata":
        required = _AUTOMATA_KEYS.get(params.get("kind"), ())
    elif family is not None:
        required = _FAMILY_KEYS.get(family, ())
        if (family == "lattes-supersingular" and "sigma_quat" not in params
                and "sigma_tn" not in params):
            raise SpecError("lattes-supersingular needs sigma_quat or sigma_tn")
    elif "num" in params:
        required = ("p",)
    else:
        required = ()
    missing = [key for key in required if key not in params]
    if missing:
        raise SpecError(f"missing parameter(s) {', '.join(missing)}")
    for key in ("terms", "show", "max_order"):
        if params.get(key, 0) < 0:
            raise SpecError(f"{key} must not be negative")
    if command == "census":
        ext_degree = params.get("ext_degree", 1)
        if not 1 <= ext_degree <= EXTENSION_DEGREE_CAP:
            raise SpecError(f"extension degree {ext_degree} outside "
                            f"[1, {EXTENSION_DEGREE_CAP}]")
        if params.get("max_period", 6) < 1:
            raise SpecError("max_period must be at least 1")


# -- commands -----------------------------------------------------------------------


def run_job(spec: JobSpec):
    """Yield output records (dicts) for a job; deterministic.

    The header record waits for the validated spec's first record, so a
    spec rejected before its first record writes nothing.
    """
    handler = _COMMANDS.get(spec.command)
    if handler is None:
        raise SpecError(f"unknown command {spec.command!r}")
    validate_params(spec.command, spec.params)
    records = handler(spec.params)
    first = next(records, None)
    yield {"record": "header", "schema": SCHEMA, "command": spec.command,
           "params": spec.params}
    if first is not None:
        yield first
    yield from records


def _cmd_count(params):
    periods = _periods(params, 8)
    fam, realized = _resolve_map(params)
    if fam is None:
        raise SpecError("count needs a family map; use oracle for raw maps")
    mismatches = 0
    for n, closed in zip(periods, per_n_counts(fam, periods.start)):
        oracle_value = None
        match = None
        if realized is not None:
            try:
                oracle_value = per_n_oracle(realized, n)
                match = oracle_value == closed
                if not match:
                    mismatches += 1
            except ScaleExceeded:
                oracle_value = None
        yield {"record": "row", "n": n, "closed": closed,
               "oracle": oracle_value, "match": match}
    yield {"record": "summary", "rows": len(periods),
           "mismatches": mismatches, "separability": classify_separability(fam)}
    if mismatches:
        raise Mismatch(f"{mismatches} closed-form/oracle disagreements")


def _periods(params, n_max):
    """range(n_min, n_max + 1) of a count or oracle job; empty is refused."""
    n_min, n_max = params.get("n_min", 1), params.get("n_max", n_max)
    if n_min > n_max:
        raise SpecError(f"n_min {n_min} exceeds n_max {n_max}")
    return range(n_min, n_max + 1)


def _cmd_oracle(params):
    periods = _periods(params, 4)
    _, realized = _resolve_map(params)
    if realized is None:
        raise SpecError("this map has no concrete realization to iterate")
    # every row is formed before the first is written, so a refusal at a
    # later n (an iterate that is the identity) leaves stdout empty
    rows = []
    for n in periods:
        try:
            count = per_n_oracle(realized, n)
        except ScaleExceeded:
            count = None
        rows.append({"record": "row", "n": n, "count": count})
    yield from rows


def _cmd_zeta(params):
    if "family" not in params:
        raise SpecError("zeta needs a family map")
    fam = build_family(params)
    terms = params.get("terms", 30)
    counts = list(islice(per_n_counts(fam, 1), terms))
    guess = rationality_guess(counts, params.get("max_order", 8))
    closed = guess is not None and guess.numerator is not None
    yield {"record": "zeta", "provenance": "exp-formula",
           "coefficients": list(zeta_from_counts(counts).coeffs)}
    yield {"record": "rationality", "found": guess is not None,
           "order": guess.order if guess else None,
           "numerator": list(guess.numerator) if closed else None,
           "denominator": list(guess.denominator) if closed else None}


def _cmd_verdict(params):
    if "family" not in params:
        raise SpecError("verdict needs a family map")
    result = verdict(build_family(params))
    record = {"record": "verdict", "outcome": result.outcome,
              "reason": result.reason}
    if result.closed_form is not None:
        record["numerator"] = list(result.closed_form[0])
        record["denominator"] = list(result.closed_form[1])
        record["series_terms_checked"] = result.series_terms_checked
    yield record
    cert = result.certificate
    if cert is not None:
        yield {"record": "certificate", "family": cert.family,
               "shape": cert.shape, "m": cert.m, "ell": cert.ell,
               "ratio": cert.ratio, "alpha": cert.alpha, "beta": cert.beta,
               "tower_multiplier": cert.tower_multiplier, "v0": cert.v0,
               "control": cert.control,
               "heuristic_bound": False,  # no heuristic ell exists; the key stays
               "crosscheck_terms": cert.crosscheck_terms,
               "consistent": cert.consistent(),
               "values_prefix": list(cert.values[:32])}
        yield _kernel_record(cert.ell_kernel)
        yield _kernel_record(cert.p_kernel)
        yield _period_record(cert.period_scan)


def _kernel_record(report):
    return {"record": "kernel", "base": report.base,
            "class_counts": list(report.class_counts),
            "classification": report.classification}


def _period_record(scan):
    """The period record of an eventual_period_detect result."""
    return {"record": "period", "found": scan is not None,
            "preperiod": scan[0] if scan else None,
            "period": scan[1] if scan else None}


def _cmd_census(params):
    _, realized = _resolve_map(params)
    if realized is None:
        raise SpecError("census needs a realizable map")
    table = cycle_census(realized, params.get("ext_degree", 1),
                         params.get("max_period", 6))
    for length, count in table:
        yield {"record": "cycle", "length": length, "count": count}
    yield {"record": "summary", "cycles": sum(c for _, c in table)}


def _cmd_automata(params):
    kind = params.get("kind")
    if kind == "christol":
        p = params["p"]
        table = parse_poly_string(params["poly"], ["t", "y"])
        poly_y = _poly_to_y_coeffs(table, p)
        prefix = params.get("prefix", [0, 1])
        coeffs = christol_series(poly_y, p, prefix, params.get("terms", 64))
        # a root repeats a few residues: each distinct one is formatted once
        decimal = {c: str(c) for c in set(coeffs)}
        yield {"record": "coefficients",
               "values": _Decimals(map(decimal.__getitem__, coeffs))}
        return
    if kind in ("vp-geometric", "vp-tower"):
        if kind == "vp-geometric":
            seq = vp_geometric_sequence(params["a"], params["p"], params["ell"],
                                        params.get("alpha", 1),
                                        params.get("beta", 0),
                                        params.get("terms", 2000))
        else:
            seq = vp_tower_sequence(params["a"], params["p"], params["ell"],
                                    params.get("terms", 2000))
        # every record is formed before the first is written, so a
        # refused kernel leaves stdout empty
        base = params.get("base", params["ell"])
        report = kernel_explore(seq.values.__getitem__, base,
                                params.get("depth", 3), params.get("prefix_len", 64))
        scan = eventual_period_detect(seq.values)
        yield {"record": "sequence", "order": seq.order,
               "index_base": seq.index_base,
               "values": list(seq.values[:params.get("show", 64)])}
        yield _kernel_record(report)
        yield _period_record(scan)
        return
    raise SpecError(f"unknown automata kind {kind!r}")


_COMMANDS = {
    "count": _cmd_count,
    "oracle": _cmd_oracle,
    "zeta": _cmd_zeta,
    "verdict": _cmd_verdict,
    "census": _cmd_census,
    "automata": _cmd_automata,
}


# -- output encoding ------------------------------------------------------------------


class _Decimals(list):
    """A list of numbers already written as exact decimal strings."""


def _stringify(value):
    """Numbers become exact decimal strings; containers recurse."""
    if isinstance(value, _Decimals):
        return value
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (list, tuple)):
        # type(v) is int: a bool element stays a JSON boolean
        return [str(v) if type(v) is int else _stringify(v) for v in value]
    if isinstance(value, dict):
        return {k: _stringify(v) for k, v in value.items()}
    return value


def emit_records(records, out, table=False):
    if not table:
        for rec in records:
            out.write(json.dumps(_stringify(rec), separators=(",", ":")) + "\n")
        return
    for rec in records:
        kind = rec.get("record")
        fields = [f"{k}={_fmt(v)}" for k, v in rec.items() if k != "record"]
        out.write(f"{kind:12s} " + "  ".join(fields) + "\n")


def _fmt(value):
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(str(v) for v in value) + "]"
    return str(value)


# -- argument handling ---------------------------------------------------------------


def _list_value(text, row):
    """The entries of a comma-separated flag value: integers, and for
    twisted coefficients u-polynomial strings where not integers."""
    entries = []
    for chunk in text.split(","):
        try:
            entries.append(int(chunk))
        except ValueError:
            if row.type is list:
                raise SpecError(f"{row.flag} takes comma-separated integers, "
                                f"not {text!r}") from None
            entries.append(chunk.strip())
    return entries


def _glue_negative_values(argv):
    """Join a list flag to a following value such as -1,2, which argparse
    would otherwise read as an unknown option."""
    out = []
    for arg in argv:
        if out and out[-1] in _LIST_FLAGS and re.match(r"-[\du]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


@functools.cache
def make_parser():
    """The argument parser, built once per process (parsing leaves it as is)."""
    # --job and --table go before or after the verb; SUPPRESS keeps the
    # verb's parser from resetting a value given before it.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--job", default=argparse.SUPPRESS,
                        help="JSON job file; flags are ignored")
    common.add_argument("--table", action="store_true", default=argparse.SUPPRESS,
                        help="human-readable columns instead of JSON lines")
    parser = argparse.ArgumentParser(prog="dynzeta", parents=[common],
                                     description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command")
    verbs = {name: subs.add_parser(name, parents=[common]) for name in _COMMANDS}
    for row in _PARAMS:
        kwargs = dict(row.kwargs)
        if row.type is int:
            kwargs["type"] = int
        elif row.type is bool:
            kwargs.update(action="store_true", default=None)
        for verb in row.verbs:
            verbs[verb].add_argument(row.flag, **kwargs)
    return parser


def compile_spec(args) -> JobSpec:
    job = getattr(args, "job", None)
    if job:
        try:
            with open(job, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, UnicodeDecodeError) as exc:
            raise SpecError(f"job file cannot be read: {exc}") from None
        except json.JSONDecodeError as exc:
            raise SpecError(f"job file is not JSON: {exc}") from None
        return JobSpec.from_dict(data)
    if not args.command:
        raise SpecError("no command given (and no --job file)")
    params = {}
    for row in _PARAMS:
        value = getattr(args, row.dest, None)
        if row.flag in _LIST_FLAGS:
            value = _list_value(value, row) if value else None
        if value is not None:
            params[row.key] = value
    return JobSpec(args.command, params)


def main(argv=None, out=None):
    out = out or sys.stdout
    # Counts are printed as exact decimals, however many digits they have.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = make_parser().parse_args(
        _glue_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        spec = compile_spec(args)
        emit_records(run_job(spec), out, table=getattr(args, "table", False))
        out.flush()
    except BrokenPipeError:
        # The reader closed stdout (say `| head`): stop quietly, and point
        # stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except ScaleExceeded as exc:
        print(f"scale exceeded: {exc}", file=sys.stderr)
        return 3
    except Mismatch as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 4
    except DynzetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
