"""Random input through the ways in: ``cli.main``, run in process on
random JSON documents on stdin, random bytes in a poset file, random
``converge --generator`` strings and random ``ORDLAB_MAX_ELEMENTS`` values,
may end only in exit 0, 2 (malformed input) or 3 (limit exceeded).  Any other exit, or an exception escaping
``main``, is a defect."""

import json
import os
import tempfile

from hypothesis import given
from hypothesis import strategies as st

from conftest import run_cli
from ordlab.campaigns import CAMPAIGN_NAMES, CAMPAIGNS
from ordlab.catalog import named_poset, random_lattice
from ordlab.order_core import poset_to_dict

ALLOWED = (0, 2, 3)

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
LIBRARY_LABELS = {name: named_poset(name).labels for name in ["2", "2^2", "chain3", "M3", "N5", "2^3", "2xchain3"]}
lattices = st.sampled_from(list(LIBRARY_LABELS)) | st.builds(
    lambda n, seed: poset_to_dict(random_lattice(n, seed)), st.integers(2, 8), st.integers(0, 2**32)
)
# three ends in four a lattice, so that most documents reach the map
ends = st.integers(0, 3).flatmap(lambda k: lattices if k else st.just("nosuch") | posets)


def _labels(end) -> list:
    return list(end["labels"] if isinstance(end, dict) else LIBRARY_LABELS.get(end, ()))


@st.composite
def homs(draw):
    """A hom document whose map is, three times in four, total from the
    domain's labels to the codomain's; else it names labels of either end
    (so that its keys and values may be the wrong end's; random text when
    neither end has one), or is any JSON value."""
    domain, codomain = draw(ends), draw(ends)
    keys, values = _labels(domain), _labels(codomain)
    if values and draw(st.integers(0, 3)):
        table = draw(st.fixed_dictionaries({k: st.sampled_from(values) for k in keys}))
    else:
        names = st.sampled_from(keys + values) if keys or values else labels
        table = draw(st.dictionaries(names, names, max_size=6) | json_values)
    return {"domain": domain, "codomain": codomain, "map": table}


@given(st.sampled_from(["check", "breadth", "hausdorff"]), json_values | posets)
def test_poset_documents_on_stdin(command, doc):
    assert run_cli([command, "-"], json.dumps(doc)).returncode in ALLOWED


@given(homs() | json_values)
def test_hom_documents_on_stdin(doc):
    assert run_cli(["hom", "-"], json.dumps(doc)).returncode in ALLOWED


@given(st.text(max_size=12))
def test_text_on_stdin(text):
    assert run_cli(["check", "-"], text).returncode in ALLOWED


@given(st.binary(max_size=64))
def test_bytes_in_a_poset_file(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "poset.json")
        with open(path, "wb") as fh:
            fh.write(data)
        assert run_cli(["check", path]).returncode in ALLOWED


@given(
    st.sampled_from(["2xM3", "chain3xchain3", "M3"]),
    st.text(alphabet="(),01abcx", max_size=12),
    st.sampled_from(["order", "star"]),
)
def test_converge_generators(poset, generator, mode):
    assert run_cli(["converge", poset, "--generator", generator, "--mode", mode]).returncode in ALLOWED


@given(
    st.integers(-3, 10**20).map(str) | st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\0")),
    st.sampled_from([["campaign", "fact-1-1", "--limit", "3"], ["breadth", "2^3"], ["check", "2xM3"]]),
)
def test_max_elements_values(value, argv):
    assert run_cli(argv, env={"ORDLAB_MAX_ELEMENTS": value}).returncode in ALLOWED


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
    # the uncapped hom campaigns also at 8, where a pair of ends has 8^8 candidate maps
    limit = data.draw(st.sampled_from([-2, 0, 1, 2, 3, 10**9] + ([cap + 1] if cap else [8])), label="limit")
    code, out, _ = run_cli(["campaign", name, "--limit", str(limit), "--trials", str(trials), "--seed", str(seed)])
    refused = limit < 1 or trials < 0 or (cap is not None and limit > cap)
    assert (code == 2) if refused else (code in (0, 3))
    if code != 0:
        assert out == ""
