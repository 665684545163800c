"""Span tracing of dynzeta layers from outside the library.

Each traced function is wrapped and the wrapper is bound in place of the
original in every loaded ``dynzeta`` module namespace that holds it, so
both ``from .automata import kernel_explore`` call sites and
``modpoly.gcd``-style attribute calls go through it.  Spans (name, start,
end, parent, nested flag, work count) are kept in memory and written out
once, when the run ends.  FieldElem operators are deliberately not
wrapped: they run about 10^7 times per run and the wrapper would dominate.

Per-layer statistics derived from the spans:

* ``<name>.s``      inclusive wall time, counting only the outermost span
                    of a recursive call chain;
* ``<name>.self_s`` wall time minus the time covered by child spans;
* ``<name>.calls``  number of calls;
* ``<name>.<work>`` a work count taken from the call's arguments (or, for
                    ``elliptic.points_over``, from its result).
"""

import functools
import inspect
import json
import sys
import time


def _kernel_lookups(seq, base, depth, prefix_len=256, *args, **kwargs):
    return sum(base ** e for e in range(depth + 1)) * prefix_len


def _census_points(f, max_k, *args, **kwargs):
    return f.ctx.order ** max_k + 1


# (module, function, work-stat name or None, work from args, work from result)
TRACED = (
    ("automata", "kernel_explore", "lookups", _kernel_lookups, None),
    ("automata", "eventual_period_detect", "terms",
     lambda prefix, *a, **k: len(prefix), None),
    ("automata", "christol_series", "terms",
     lambda poly_y, p, prefix, length, *a, **k: length, None),
    ("zeta", "verdict", None, None, None),
    ("zeta", "certificate_build", None, None, None),
    ("zeta", "zeta_from_counts", "terms", lambda counts, *a, **k: len(counts),
     None),
    ("zeta", "rationality_guess", None, None, None),
    ("families", "per_n_closed", None, None, None),
    ("twisted", "v_phi_pow_minus", None, None, None),
    ("orders", "norm_sequence", None, None, None),
    ("dynmap", "iterate", None, None, None),
    ("dynmap", "compose", None, None, None),
    ("dynmap", "per_n_oracle", None, None, None),
    ("dynmap", "cycle_census", "points", _census_points, None),
    ("field", "separable_radical", None, None, None),
    ("field", "field_make", None, None, None),
    ("modpoly", "mul", "coeff_products", lambda a, b, *r, **k: len(a) * len(b),
     None),
    ("modpoly", "divrem", None, None, None),
    ("modpoly", "gcd", None, None, None),
    ("elliptic", "points_over", "points", None, len),
    ("elliptic", "mul_by_m", None, None, None),
    ("elliptic", "torsion_count", None, None, None),
    ("cli", "run_job", None, None, None),
    ("cli", "emit_records", None, None, None),
)

# The per-layer metrics reported, by (span name, statistic).  Keep in step
# with the "per_layer" list of BENCHMARK.json.
REPORTED = (
    ("automata.kernel_explore", "s"), ("automata.kernel_explore", "calls"),
    ("automata.kernel_explore", "lookups"),
    ("automata.eventual_period_detect", "s"),
    ("automata.eventual_period_detect", "calls"),
    ("automata.eventual_period_detect", "terms"),
    ("zeta.certificate_build", "self_s"),
    ("zeta.verdict", "s"), ("zeta.verdict", "calls"),
    ("families.per_n_closed", "s"), ("families.per_n_closed", "calls"),
    ("twisted.v_phi_pow_minus", "s"),
    ("orders.norm_sequence", "s"),
    ("dynmap.iterate", "s"),
    ("dynmap.compose", "calls"),
    ("dynmap.per_n_oracle", "self_s"),
    ("field.separable_radical", "s"),
    ("modpoly.mul", "s"), ("modpoly.mul", "calls"),
    ("modpoly.mul", "coeff_products"),
    ("modpoly.divrem", "s"), ("modpoly.divrem", "calls"),
    ("modpoly.gcd", "s"), ("modpoly.gcd", "calls"),
    ("dynmap.cycle_census", "s"), ("dynmap.cycle_census", "points"),
    ("elliptic.points_over", "s"), ("elliptic.points_over", "calls"),
    ("elliptic.points_over", "points"),
    ("elliptic.mul_by_m", "s"), ("elliptic.mul_by_m", "calls"),
    ("elliptic.torsion_count", "self_s"),
    ("field.field_make", "s"), ("field.field_make", "calls"),
    ("zeta.zeta_from_counts", "s"), ("zeta.zeta_from_counts", "terms"),
    ("zeta.rationality_guess", "s"),
    ("automata.christol_series", "s"), ("automata.christol_series", "terms"),
    ("cli.run_job", "self_s"),
    ("cli.emit_records", "self_s"),
)


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent, nested, work)
        self._stack = []
        self._active = {}
        self._bound = []     # (module, attribute, original) to restore

    def _enter(self, name):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        depth = self._active.get(name, 0)
        self._active[name] = depth + 1
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent, depth > 0

    def _leave(self, name, idx, parent, nested, start, work):
        end = time.perf_counter()
        self._stack.pop()
        self._active[name] -= 1
        self.spans[idx] = (name, start, end, parent, nested, work)

    def wrap(self, name, fn, arg_work=None, result_work=None):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            work = arg_work(*args, **kwargs) if arg_work else 0
            idx, parent, nested = self._enter(name)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                if result_work is not None and result is not None:
                    work = result_work(result)
                self._leave(name, idx, parent, nested, start, work)

        return wrapper

    def _wrap_generator(self, name, fn):
        """Each resumption of the generator is one span of the same name."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)

            def resumed():
                while True:
                    idx, parent, nested = self._enter(name)
                    start = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._leave(name, idx, parent, nested, start, 0)
                    yield item

            return resumed()

        return wrapper

    def install(self):
        """Rebind every traced function in all loaded dynzeta modules."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name == "dynzeta" or name.startswith("dynzeta.")}
        for modname, fname, _stat, arg_work, result_work in TRACED:
            original = getattr(modules["dynzeta." + modname], fname)
            wrapped = self.wrap(f"{modname}.{fname}", original, arg_work,
                                result_work)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._bound.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in self._bound:
            setattr(mod, attr, original)
        self._bound = []

    def summary(self):
        """{metric name: value} for every REPORTED statistic."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _nested, _work in spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats = {}
        for i, (name, start, end, _parent, nested, work) in enumerate(spans):
            entry = stats.setdefault(name, {"s": 0.0, "self_s": 0.0,
                                            "calls": 0, "work": 0})
            if not nested:
                entry["s"] += end - start
            entry["self_s"] += end - start - child_time[i]
            entry["calls"] += 1
            entry["work"] += work
        work_names = {f"{m}.{f}": stat for m, f, stat, _a, _r in TRACED if stat}
        out = {}
        for name, stat in REPORTED:
            entry = stats.get(name, {"s": 0.0, "self_s": 0.0, "calls": 0,
                                     "work": 0})
            key = "work" if stat == work_names.get(name) else stat
            out[f"{name}.{stat}"] = entry[key]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
