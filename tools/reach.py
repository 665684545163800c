"""Which functions of src/dynzeta a corpus of specs calls, and which it never does.

Runs a corpus in one interpreter under a ``sys.settrace`` hook that
records every function entered, lists the functions of ``src/dynzeta``
with ``ast``, and prints those never entered: how many, their lines, and
per module.  Standard library only, besides dynzeta itself.

It always runs the job files in jobs/, the pinned CLI corpus of
tests/cli_corpus.json, and every pooled benchmark job of
perfbench/jobs.py, each followed by its perfbench/checks.py check.

    --spec S    adds one CLI spelling, such as "count --family power --p 3
                --d 2" (repeatable, split as a shell would), so a run with
                and one without it show what that spelling alone reaches

--list names each unreached function.  --lines MODULE also traces lines
in that module and names, for each reached function there, the statement
lines no spec executed, so branches never taken show.

    python tools/reach.py --list

tools/unreached.txt names every function that ``--list`` leaves
unreached, with what keeps it; CI checks that the two lists agree.

It imports dynzeta from this checkout's src/, whatever PYTHONPATH says.
"""

import argparse
import ast
import collections
import contextlib
import io
import json
import os
import shlex
import sys
import tempfile
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "dynzeta")
CORPUS = os.path.join(ROOT, "tests", "cli_corpus.json")
sys.path.insert(0, os.path.join(ROOT, "src"))  # probe this checkout's package

from dynzeta.cli import main as dynzeta_main  # noqa: E402


class Function(NamedTuple):
    module: str
    name: str
    lines: int
    node: ast.FunctionDef


def functions():
    """{(file, first line): Function}; the first line is the code object's,
    so a decorated function starts at its first decorator."""
    out = {}

    def visit(node, path, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                name = prefix + child.name
                out[path, first] = Function(module, name,
                                            child.end_lineno - first + 1, child)
                visit(child, path, module, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, module, prefix + child.name + ".")
            else:
                visit(child, path, module, prefix)

    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            with open(path, encoding="utf-8") as handle:
                visit(ast.parse(handle.read()), path, name[:-3], "")
    return out


class Probe:
    """A trace hook that keeps the (file, first line) of every frame entered
    in the package, and the lines run in one module's file if asked."""

    def __init__(self, line_file=None):
        self.called, self.lines, self.line_file = set(), set(), line_file

    def _line(self, frame, event, arg):
        if event == "line":
            self.lines.add(frame.f_lineno)
        return self._line

    def _call(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename.startswith(PACKAGE):
            self.called.add((code.co_filename, code.co_firstlineno))
            if code.co_filename == self.line_file:
                return self._line
        return None

    @contextlib.contextmanager
    def active(self):
        sys.settrace(self._call)
        try:
            yield
        finally:
            sys.settrace(None)


def run_cli(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            dynzeta_main(argv, out=io.StringIO())
        except SystemExit:  # --help, and argparse refusals
            pass


def job_files():
    folder = os.path.join(ROOT, "jobs")
    return [["--job", os.path.join(folder, name)]
            for name in sorted(os.listdir(folder)) if name.endswith(".json")]


def corpus_specs():
    with open(CORPUS, encoding="utf-8") as handle:
        return [shlex.split(spec) for spec in json.load(handle)]


def run_pool(probe):
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import checks
    import jobs
    from worker import execute, write_job
    with tempfile.TemporaryDirectory() as workdir:
        for workload in sorted(jobs.WORKLOADS):
            for pool in jobs.slots(workload).values():
                for index, job in enumerate(pool):
                    path = write_job(job, workdir, index)
                    with probe.active():
                        _, stdout, _, _ = execute(job, path)
                        checks.check(job, stdout)


def executable_lines(node):
    """Lines of a function body that hold statements, docstrings left out."""
    body = node.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    return sorted({s.lineno for stmt in body for s in ast.walk(stmt)
                   if isinstance(s, ast.stmt)})


def _ranges(numbers):
    out, run = [], []
    for n in numbers:
        if run and n != run[-1] + 1:
            out.append(run)
            run = []
        run.append(n)
    if run:
        out.append(run)
    return ", ".join(f"{r[0]}" if len(r) == 1 else f"{r[0]}-{r[-1]}" for r in out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list", action="store_true")
    parser.add_argument("--spec", action="append", default=[])
    parser.add_argument("--lines", metavar="MODULE")
    args = parser.parse_args(argv)
    line_file = args.lines and os.path.join(PACKAGE, args.lines + ".py")
    probe = Probe(line_file)
    specs = ([shlex.split(spec) for spec in args.spec] + job_files()
             + corpus_specs())
    for spec in specs:
        with probe.active():
            run_cli(spec)
    run_pool(probe)

    table = functions()
    missed = sorted(table.keys() - probe.called)
    modules = collections.Counter(table[key].module for key in missed)
    print(f"specs run: {len(specs)} plus the pooled jobs")
    print(f"unreached: {len(missed)} of {len(table)} functions, "
          f"{sum(table[key].lines for key in missed)} lines")
    print("by module: " + ", ".join(f"{m} {c}" for m, c in modules.most_common()))
    if args.list:
        for key in missed:
            f = table[key]
            print(f"  {f.module}.{f.name} (line {key[1]}, {f.lines} lines)")
    for key in sorted(probe.called & table.keys()):
        if key[0] == line_file:
            f = table[key]
            idle = [n for n in executable_lines(f.node) if n not in probe.lines]
            if idle:
                print(f"  {f.module}.{f.name}: lines {_ranges(idle)} not run")


if __name__ == "__main__":
    main()
