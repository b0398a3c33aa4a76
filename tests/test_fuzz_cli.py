"""Random input through the ways in: ``cli.main``, run in process on
random JSON documents on stdin, random bytes in a poset file, random
``converge --generator`` strings and random ``ORDLAB_MAX_ELEMENTS`` values,
may end only in exit 0, 2 (malformed input) or 3 (limit exceeded).  Any other exit, or an exception escaping
``main``, is a defect."""

import contextlib
import io
import json
import os
import sys
import tempfile
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from ordlab import cli
from ordlab.campaigns import CAMPAIGN_NAMES, CAMPAIGNS

ALLOWED = (0, 2, 3)


def _run(argv, stdin="", env=None):
    """``(exit code, stdout)`` of ``cli.main(argv)``, run in process."""
    out = io.StringIO()
    with contextlib.ExitStack() as stack:
        stack.enter_context(mock.patch.object(sys, "stdin", io.StringIO(stdin)))
        stack.enter_context(contextlib.redirect_stdout(out))
        stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
        stack.enter_context(mock.patch.dict(os.environ, env or {}))
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue()


def _exit_code(argv, stdin="", env=None):
    return _run(argv, stdin, env)[0]


labels = st.text(max_size=3)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | labels,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
# shaped like a poset document, so that some are posets and most reach the checks past the JSON reader
posets = st.fixed_dictionaries({
    "labels": st.lists(labels, max_size=6),
    "covers": st.lists(st.lists(st.integers(-1, 6), max_size=3), max_size=8),
})
poset_refs = st.sampled_from(["2", "2^2", "chain3", "M3", "N5", "nosuch"]) | posets
homs = st.fixed_dictionaries({
    "domain": poset_refs,
    "codomain": poset_refs,
    "map": st.dictionaries(labels, labels, max_size=6) | json_values,
})


@given(st.sampled_from(["check", "breadth", "hausdorff"]), json_values | posets)
def test_poset_documents_on_stdin(command, doc):
    assert _exit_code([command, "-"], json.dumps(doc)) in ALLOWED


@given(homs | json_values)
def test_hom_documents_on_stdin(doc):
    assert _exit_code(["hom", "-"], json.dumps(doc)) in ALLOWED


@given(st.text(max_size=12))
def test_text_on_stdin(text):
    assert _exit_code(["check", "-"], text) in ALLOWED


@given(st.binary(max_size=64))
def test_bytes_in_a_poset_file(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "poset.json")
        with open(path, "wb") as fh:
            fh.write(data)
        assert _exit_code(["check", path]) in ALLOWED


@given(
    st.sampled_from(["2xM3", "chain3xchain3", "M3"]),
    st.text(alphabet="(),01abcx", max_size=12),
    st.sampled_from(["order", "star"]),
)
def test_converge_generators(poset, generator, mode):
    assert _exit_code(["converge", poset, "--generator", generator, "--mode", mode]) in ALLOWED


@given(
    st.integers(-3, 10**20).map(str) | st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\0")),
    st.sampled_from([["campaign", "fact-1-1", "--limit", "3"], ["breadth", "2^3"], ["check", "2xM3"]]),
)
def test_max_elements_values(value, argv):
    assert _exit_code(argv, env={"ORDLAB_MAX_ELEMENTS": value}) in ALLOWED


@given(
    st.sampled_from(CAMPAIGN_NAMES),
    st.data(),
    st.integers(-2, 3),
    st.sampled_from([0, 2**70, -(2**70)]) | st.integers(-(2**70), 2**70),
)
def test_campaign_arguments(name, data, trials, seed):
    # a limit past the cap is refused, never clamped; an accepted one whose
    # instances pass a resource guard exits 3, before anything is printed
    cap = CAMPAIGNS[name].cap
    limit = data.draw(st.sampled_from([-2, 0, 1, 2, 3, 10**9] + ([cap + 1] if cap else [])), label="limit")
    code, out = _run(["campaign", name, "--limit", str(limit), "--trials", str(trials), "--seed", str(seed)])
    refused = limit < 1 or trials < 0 or (cap is not None and limit > cap)
    assert (code == 2) if refused else (code in (0, 3))
    if code != 0:
        assert out == ""
