"""The pinned CLI corpus: accepted and refused specs that no job file and
no pooled benchmark job holds, each with the exit code and stdout it gave
when it was pinned.

tests/cli_corpus.json maps each spec, one command line split as a shell
would (``shlex.split``, so a quoted ``--poly`` stays one word), to its
exit code, its stdout sha256 and what it is there for.  A spec with a
``seconds`` field must also finish within that many seconds of wall
time.  An argparse refusal raises SystemExit(2) out of main, and reads
as exit 2.  The specs run in process; tools/reach.py runs the same ones,
so the functions they reach count as reached.
"""

import hashlib
import io
import json
import math
import shlex
import time
from pathlib import Path

import pytest

from dynzeta.cli import main

ROOT = Path(__file__).resolve().parent.parent
CORPUS = json.loads(Path(__file__).with_name("cli_corpus.json")
                    .read_text(encoding="utf-8"))


def _run(argv):
    out = io.StringIO()
    try:
        code = main(argv, out=out)
    except SystemExit as exc:  # an argparse refusal
        code = exc.code
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("spec", list(CORPUS))
def test_spec_keeps_its_exit_code_and_stdout(spec):
    pin = CORPUS[spec]
    start = time.perf_counter()
    assert _run(shlex.split(spec)) == (pin["exit"], pin["stdout_sha256"])
    assert time.perf_counter() - start <= pin.get("seconds", math.inf)


def test_no_spec_is_a_job_file_or_a_pooled_job():
    # the header record prints the params, so equal stdout means an
    # equal spec: no corpus digest is a pooled job's pinned digest
    # (perfbench/golden.json) or the stdout of a job file
    taken = set(json.loads((ROOT / "perfbench" / "golden.json")
                           .read_text(encoding="utf-8")).values())
    for job in sorted((ROOT / "jobs").glob("*.json")):
        code, digest = _run(["--job", str(job)])
        assert code == 0, job
        taken.add(digest)
    assert [spec for spec, pin in CORPUS.items()
            if pin["stdout_sha256"] in taken] == []
