import __future__
import contextlib
import inspect
import io
import os
import sys
import textwrap
from pathlib import Path
from random import Random
from typing import NamedTuple, Optional, Union
from unittest import mock

import pytest
from hypothesis import settings

from ordlab import cli
from ordlab.catalog import random_poset

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile("ordlab", deadline=None, max_examples=60)
settings.load_profile("ordlab")


@pytest.fixture
def rng():
    return Random(20260810)


def seeded_posets(count: int, sizes: range, seed: int):
    """Deterministic stream of random posets for bulk property checks."""
    r = Random(seed)
    return [random_poset(r.choice(list(sizes)), r) for _ in range(count)]


class CliRun(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


def run_cli(argv, stdin: Union[str, bytes] = "", env: Optional[dict] = None) -> CliRun:
    """``ordlab ARGV`` run in process, as the console script runs it:
    ``stdin`` on standard input (bytes are read as UTF-8) and ``env`` over
    the environment.  argparse's SystemExit becomes the exit code; any other
    exception propagates."""
    data = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8") if isinstance(stdin, bytes) else io.StringIO(stdin)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(sys, "stdin", data))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(err))
        stack.enter_context(mock.patch.dict(os.environ, env or {}))
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: --help, or arguments it rejects
            code = exc.code
    return CliRun(code, out.getvalue(), err.getvalue())


def mutant(fn, *edits: tuple[str, str]):
    """``fn`` recompiled from its source with each ``(old, new)`` of
    ``edits`` applied in turn, ``old`` occurring there once, in a copy of
    its module's namespace."""
    source = textwrap.dedent(inspect.getsource(fn))
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    namespace = dict(vars(inspect.getmodule(fn)))
    code = compile(
        source, f"<mutant {fn.__name__}>", "exec", flags=__future__.annotations.compiler_flag, dont_inherit=True,
    )
    exec(code, namespace)
    return namespace[fn.__name__]
