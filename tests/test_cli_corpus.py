"""The pinned CLI corpus: accepted specs that no job file and no pooled
benchmark job holds, each with the exit code and stdout it gave when it
was pinned.

tests/cli_corpus.json maps each spec, the words of one command line, to
its exit code, its stdout sha256 and what it is there for.  The specs run
in process; tools/reach.py runs the same ones, so the functions they
reach count as reached.
"""

import hashlib
import io
import json
from pathlib import Path

import pytest

from dynzeta.cli import main

CORPUS = json.loads(Path(__file__).with_name("cli_corpus.json")
                    .read_text(encoding="utf-8"))


@pytest.mark.parametrize("spec", list(CORPUS))
def test_spec_keeps_its_exit_code_and_stdout(spec):
    out = io.StringIO()
    code = main(spec.split(), out=out)
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert (code, digest) == (CORPUS[spec]["exit"], CORPUS[spec]["stdout_sha256"])
