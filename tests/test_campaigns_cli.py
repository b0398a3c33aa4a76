import argparse
import hashlib
import io
import json
import re
import sys
import tracemalloc
from random import Random
from typing import NamedTuple, Union

import pytest

from conftest import run_cli
from ordlab import campaigns, catalog, cli, filters, limits, morphisms, topology
from ordlab.breadth import has_breadth_at_most
from ordlab.campaigns import CAMPAIGN_NAMES, CampaignSpec, run_campaign
from ordlab.catalog import all_lattices, all_posets, all_posets_up_to, chain, m3, two
from ordlab.errors import LimitExceededError
from ordlab.limits import Limits, default_limits
from ordlab.order_core import Poset, boolean_power, build_poset, poset_to_dict, product


def _census_built(n):
    all_posets(n), all_lattices(n)  # cached, so the guards must run before the cache lookup
    return n


# (way in, the operation's name in its message, build the input, call it)
GUARDED = [
    ("build_poset", "poset", lambda: (["a", "b", "c"], [(0, 1), (1, 2)]), lambda x: build_poset(*x)),
    ("Poset", "poset", lambda: (["a", "b", "c"], (0b001, 0b011, 0b111)), lambda x: Poset(*x)),
    ("product", "product", lambda: [two(), two()], product),
    ("boolean_power", "boolean power", lambda: 2, boolean_power),
    ("product_topology", "product topology", lambda: [topology.interval_topology(two())] * 2,
     topology.product_topology),
    ("opens", "open-family materialization", lambda: topology.interval_topology(chain(3)),
     lambda t: t.opens()),
    ("topology_to_dict", "open-family materialization", lambda: topology.interval_topology(chain(3)),
     topology.topology_to_dict),
    ("super_filters", "super-filter enumeration", lambda: filters.SetFilter(chain(6), 0b111111),
     filters.super_filters),
    ("order_convergence_is_pointlike", "pointlike check", lambda: chain(6), filters.order_convergence_is_pointlike),
    ("all_posets", "upper-bounds table", lambda: _census_built(4), all_posets),
    ("all_lattices", "upper-bounds table", lambda: _census_built(4), all_lattices),
    ("has_breadth_at_most", "breadth check", lambda: chain(3), lambda p: has_breadth_at_most(p, 1)),
    ("random_poset", "poset", lambda: 3, lambda n: catalog.random_poset(n, Random(0))),
    ("random_lattice", "poset", lambda: 3, lambda n: catalog.random_lattice(n, 0)),
    ("run_campaign", "upper-bounds table", lambda: CampaignSpec("fact-1-1", 5), run_campaign),
    # lemma-3 builds its carriers before any map, so the element cap stops it
    # first (the image-table guard is reached in the test below)
    ("run_campaign-lemma-3", "poset", lambda: CampaignSpec("lemma-3", 4), run_campaign),
]


@pytest.mark.parametrize("what, build, call", [g[1:] for g in GUARDED], ids=[g[0] for g in GUARDED])
def test_every_guard_reads_the_environment(monkeypatch, what, build, call):
    # the limits have no argument: lowering the variable after the input is
    # built must reach the guard
    arg = build()
    monkeypatch.setenv("ORDLAB_MAX_ELEMENTS", "2")
    with pytest.raises(LimitExceededError, match=f"^{re.escape(what)}: "):
        call(arg)


def test_random_generators_check_the_cap_before_building():
    # a size past the cap is refused before the first draw: neither the
    # stacked blocks of a random lattice nor the rows of a random poset are built
    tracemalloc.start()
    try:
        with pytest.raises(LimitExceededError, match="^poset: 100000 elements exceeds limit 64$"):
            catalog.random_lattice(100_000, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20

    class NoDraws(Random):
        def random(self):
            raise AssertionError("drew before the cap check")

    with pytest.raises(LimitExceededError, match="^poset: 65 elements exceeds limit 64$"):
        catalog.random_poset(65, NoDraws(0))


def test_one_off_fact_and_lemma_queries_build_no_subset_table(monkeypatch):
    # each answers from its own rows in O(n), so the subset cap does not apply
    f = filters.SetFilter(chain(30), 0b110)
    monkeypatch.setenv("ORDLAB_MAX_ELEMENTS", "2")
    assert filters.upper_iff_downset(f, 29)
    assert morphisms.check_image_filter_inclusion(tuple(range(30)), 0b111, 0b011)


def test_lemma_3_guards_each_domain_before_its_first_map(monkeypatch):
    # the check builds its image tables unguarded, so the source's guard is
    # what holds a domain to the subset cap: lowering the variable once the
    # carriers are built must stop the run at the first 3-point domain
    maps = campaigns._maps_between_carriers(CampaignSpec("lemma-3", 4))
    domains = [next(maps)[0].n]
    monkeypatch.setenv("ORDLAB_MAX_ELEMENTS", "2")
    with pytest.raises(LimitExceededError, match="^image table: 3 elements exceeds subset-enumeration limit 2$"):
        for dom, _, _ in maps:
            domains.append(dom.n)
    assert domains == [1] * 10 + [2] * 30  # into chains 1-4: k maps from 1 point, k^2 from 2


@pytest.mark.parametrize("cap, args", [("12", ["lemma-2"]), ("10", ["hausdorff", "--limit", "5"])])
def test_library_builds_only_the_names_that_fit(monkeypatch, cap, args):
    # no instance of these runs has more than 5 elements, so a cap below
    # the 16 elements of 2^4 must not stop them
    monkeypatch.delenv("ORDLAB_MAX_ELEMENTS", raising=False)
    plain = run_cli(["campaign", *args])
    capped = run_cli(["campaign", *args], env={"ORDLAB_MAX_ELEMENTS": cap})
    assert plain.returncode == 0 and '"status":"pass"' in plain.stdout
    assert (capped.returncode, capped.stdout, capped.stderr) == (0, plain.stdout, "")


def test_library_sizes_are_read_off_the_names():
    names = catalog.poset_names()
    assert [catalog._library_size(name) for name in names] == [catalog.named_poset(name).n for name in names]


# (campaign, --limit, ORDLAB_MAX_ELEMENTS, stderr): a lowered cap stops a
# sweep at the first size past it, naming the first table or carrier built
# at that size
LOWERED_CAP_ERRORS = [
    ("fact-1-1", 5, 2, "upper-bounds table: 3 elements exceeds subset-enumeration limit 2"),
    ("fact-1-1", 6, 2, "upper-bounds table: 3 elements exceeds subset-enumeration limit 2"),
    ("fact-1-1", 5, 3, "upper-bounds table: 4 elements exceeds subset-enumeration limit 3"),
    ("fact-1-1", 6, 3, "upper-bounds table: 4 elements exceeds subset-enumeration limit 3"),
    ("fact-1-1", 5, 4, "upper-bounds table: 5 elements exceeds subset-enumeration limit 4"),
    ("fact-1-1", 6, 4, "upper-bounds table: 5 elements exceeds subset-enumeration limit 4"),
    ("lemma-3", 4, 2, "poset: 3 elements exceeds limit 2"),
    ("lemma-3", 5, 2, "poset: 3 elements exceeds limit 2"),
    ("lemma-3", 4, 3, "poset: 4 elements exceeds limit 3"),
    ("lemma-3", 5, 3, "poset: 4 elements exceeds limit 3"),
]


@pytest.mark.parametrize(
    "name, limit, cap, message", LOWERED_CAP_ERRORS, ids=[f"{c[0]}-{c[1]}-cap{c[2]}" for c in LOWERED_CAP_ERRORS]
)
def test_lowered_cap_error(name, limit, cap, message):
    res = run_cli(["campaign", name, "--limit", str(limit)], env={"ORDLAB_MAX_ELEMENTS": str(cap)})
    assert (res.returncode, res.stdout, res.stderr) == (3, "", f"error: {message}\n")


@pytest.mark.parametrize("args", ["fact-1-1", "lemma-3 --trials 3"])
def test_guards_run_once_per_size(monkeypatch, capsys, args):
    # a sweep's checks reuse the guard its source ran for the instance's
    # size; counted on a cold census cache, where all_posets guards its
    # recursive calls too
    real, calls = limits.default_limits, [0]

    def counting():
        calls[0] += 1
        return real()

    catalog._extend_posets.cache_clear()
    monkeypatch.setattr(limits, "default_limits", counting)
    assert cli.main(["campaign", *args.split()]) == 0
    assert json.loads(capsys.readouterr().out)["status"] == "pass"
    assert 0 < calls[0] <= 16


def _converge_calls():
    """``ordlab converge`` on every library poset: each single label, the
    first two labels and all labels, in both modes, then an unknown label
    and an empty generator."""
    for name in catalog.poset_names():
        labels = catalog.named_poset(name).labels
        for generator in [[label] for label in labels] + [labels[:2], labels]:
            for mode in ("order", "star"):
                yield ["converge", name, "--generator", ",".join(generator), "--mode", mode]
    yield ["converge", "M3", "--generator", "zz"]
    yield ["converge", "M3", "--generator", ""]


# exit codes, stdout and stderr of the calls above, recorded before the
# filter routes took generator masks and re-recorded when labels holding
# commas became nameable: only the 82 calls naming a label of 2xchain3,
# 2xchain4, chain3xchain3 or 2xM3 changed, from exit 2 to exit 0
CONVERGE_CALLS, CONVERGE_SHA256 = 346, "3965e45af70bb774d89af12f29a0bb67765689e8aaebf6876ef382ff0931dd98"


def test_converge_outputs_are_pinned(capsys):
    digest, calls = hashlib.sha256(), 0
    for args in _converge_calls():
        code = cli.main(args)
        out, err = capsys.readouterr()
        digest.update(json.dumps([args, code, out, err]).encode())
        calls += 1
    assert (calls, digest.hexdigest()) == (CONVERGE_CALLS, CONVERGE_SHA256)


def _check_calls():
    """``ordlab check`` on every library poset and on a 2-antichain read on
    stdin, which is no lattice and has neither bottom nor top."""
    for name in catalog.poset_names():
        yield None, ["check", name]
    yield json.dumps({"labels": ["x", "y"], "covers": []}), ["check", "-"]


# exit codes, stdout and stderr of the calls above, recorded while the
# certificate still stored its poset, bottom and top
CHECK_CALLS, CHECK_SHA256 = 23, "59d8b7973c8f719997f0881838fdec3c8aa4e3d36be88be75ca9ea7150dcd3a1"


def test_check_outputs_are_pinned(monkeypatch, capsys):
    digest, calls = hashlib.sha256(), 0
    for stdin, args in _check_calls():
        if stdin is not None:
            monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        code = cli.main(args)
        out, err = capsys.readouterr()
        digest.update(json.dumps([args, code, out, err]).encode())
        calls += 1
    assert (calls, digest.hexdigest()) == (CHECK_CALLS, CHECK_SHA256)


# input the JSON reader must report as malformed, not end in a traceback
UNREADABLE = {
    "not-utf-8": b'\xff\xfe{"labels": ["a"], "covers": []}',
    "too-deep": b"[" * 200_000 + b"]" * 200_000,
    "long-int": b'{"labels": ["a"], "covers": [], "n": ' + b"9" * 5000 + b"}",
}


@pytest.mark.parametrize("command", ["check FILE", "check -", "hom FILE"])
@pytest.mark.parametrize("data", list(UNREADABLE.values()), ids=list(UNREADABLE))
def test_unreadable_json_exits_2(tmp_path, command, data):
    path = tmp_path / "doc.json"
    path.write_bytes(data)
    code, out, err = run_cli([arg.replace("FILE", str(path)) for arg in command.split()], data)
    reading = "cannot read" if data == UNREADABLE["not-utf-8"] else "invalid JSON in"
    source = "-" if command.endswith("-") else path
    assert (code, out) == (2, "") and err.startswith(f"error: {reading} {source}: ")


def test_converge_names_every_single_label(monkeypatch, capsys):
    # product labels hold commas, as in (0,1): each must name its point,
    # on every library poset and on a product of a product read on stdin
    nested = product([catalog.named_poset("2xchain3"), two()])
    cases = [(name, catalog.named_poset(name)) for name in catalog.poset_names()] + [("-", nested)]
    calls = 0
    for ref, p in cases:
        for label in p.labels:
            if ref == "-":
                monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(poset_to_dict(p))))
            code = cli.main(["converge", ref, "--generator", label])
            out, _ = capsys.readouterr()
            assert code == 0, (ref, label)
            assert json.loads(out)["limits"] == [label]
            calls += 1
    assert "((0,1),1)" in nested.labels and calls > 100


def _non_lattice_converge_calls():
    """``ordlab converge -`` on every labelled poset with up to 4 points
    that is not a lattice, read on stdin: each single label, the first two
    labels and all labels, in both modes."""
    for p in all_posets_up_to(4):
        if p.certificate.is_lattice:
            continue
        doc = json.dumps(poset_to_dict(p))
        for generator in [[label] for label in p.labels] + [list(p.labels[:2]), list(p.labels)]:
            for mode in ("order", "star"):
                yield doc, ["converge", "-", "--generator", ",".join(generator), "--mode", mode]


# posets, calls and the digest of each call's poset, arguments, exit code,
# stdout and stderr, recorded before the limits took the closed form
NON_LATTICE_POSETS, NON_LATTICE_CALLS = 197, 2334
NON_LATTICE_SHA256 = "deb10c17f5709b8c8ff9e12350c635eaf2369e93649278229b90fcae56dff29f"


def test_converge_on_non_lattices_is_pinned(monkeypatch, capsys):
    # one parser for all the calls: parsing keeps no state on it, and
    # building it is most of an in-process call
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    digest, docs, calls = hashlib.sha256(), set(), 0
    for doc, args in _non_lattice_converge_calls():
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code = cli.main(args)
        out, err = capsys.readouterr()
        digest.update(json.dumps([doc, args, code, out, err]).encode())
        docs.add(doc)
        calls += 1
    assert (len(docs), calls, digest.hexdigest()) == (NON_LATTICE_POSETS, NON_LATTICE_CALLS, NON_LATTICE_SHA256)


_NAMES = "{breadth-2n,fact-1-1,hausdorff,lemma-2,lemma-3,product-lemma,prop-2-1,star-preservation}"
_CAMPAIGN_USAGE = (
    "usage: ordlab campaign [-h] [--limit LIMIT] [--trials TRIALS] [--seed SEED]\n"
    f"                       {_NAMES}\n"
)

# (arguments, exit code, stdout, stderr) of ``ordlab``, recorded on Python
# 3.11 at 80 columns; other versions of argparse may word or wrap them
# otherwise, and the test after compares with a tuple of names on each
PARSER_PINS = [
    (
        ["--help"],
        0,
        "usage: ordlab [-h]\n"
        "              {check,breadth,topology,hausdorff,product,boolean,hom,converge,campaign}\n"
        "              ...\n"
        "\n"
        "Finite order-theory laboratory: certificates, topologies, convergence,\n"
        "breadth, campaigns.\n"
        "\n"
        "positional arguments:\n"
        "  {check,breadth,topology,hausdorff,product,boolean,hom,converge,campaign}\n"
        "    check               lattice certificate for a poset\n"
        "    breadth             breadth and an irredundant witness\n"
        "    topology            dump a generated topology\n"
        "    hausdorff           separation properties of a generated topology\n"
        "    product             pointwise-ordered product of posets\n"
        "    boolean             the lattice of n-bit vectors\n"
        "    hom                 classify a map and analyze preimages/continuity\n"
        "    converge            order/star convergence points of a filter\n"
        "    campaign            run a verification campaign\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n",
        "",
    ),
    (
        ["campaign", "--help"],
        0,
        _CAMPAIGN_USAGE
        + "\n"
        "positional arguments:\n"
        f"  {_NAMES}\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --limit LIMIT         instance size limit; the default and the largest\n"
        "                        accepted value (the cap) are per campaign\n"
        "  --trials TRIALS       seeded random instances, drawn from --seed (breadth-2n\n"
        "                        and product-lemma draw none and only echo --trials and\n"
        "                        --seed)\n"
        "  --seed SEED\n",
        "",
    ),
    (
        ["campaign", "nosuch"],
        2,
        "",
        _CAMPAIGN_USAGE
        + "ordlab campaign: error: argument name: invalid choice: 'nosuch' (choose from 'breadth-2n', "
        "'fact-1-1', 'hausdorff', 'lemma-2', 'lemma-3', 'product-lemma', 'prop-2-1', 'star-preservation')\n",
    ),
    (
        ["campaign"],
        2,
        "",
        _CAMPAIGN_USAGE + "ordlab campaign: error: the following arguments are required: name\n",
    ),
]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="pinned on Python 3.11's argparse")
@pytest.mark.parametrize("args, code, stdout, stderr", PARSER_PINS, ids=[" ".join(p[0]) for p in PARSER_PINS])
def test_parser_output_is_pinned(args, code, stdout, stderr):
    res = run_cli(args, env={"COLUMNS": "80"})
    assert (res.returncode, res.stdout, res.stderr) == (code, stdout, stderr)



@pytest.mark.parametrize("args", [p[0] for p in PARSER_PINS], ids=[" ".join(p[0]) for p in PARSER_PINS])
def test_campaign_choices_read_late_print_as_a_tuple(monkeypatch, capsys, args):
    # on every Python: the parser's output is what it is with the names as a tuple
    monkeypatch.setenv("COLUMNS", "80")
    outputs = []
    for eager in (False, True):
        parser = cli.build_parser()
        if eager:
            sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
            action = next(a for a in sub.choices["campaign"]._actions if a.dest == "name")
            assert tuple(action.choices) == CAMPAIGN_NAMES
            action.choices = CAMPAIGN_NAMES
        with pytest.raises(SystemExit) as exited:
            parser.parse_args(args)
        outputs.append((exited.value.code, *capsys.readouterr()))
    assert outputs[0] == outputs[1]


class Pin(NamedTuple):
    """``ordlab ARGV`` with ``stdin``: its exit code, stdout and stderr.  A
    pattern must match the whole text; a substring pins what argparse may
    word otherwise on another Python."""

    id: str
    argv: list
    code: int
    stdout: Union[str, re.Pattern] = ""
    stderr: Union[str, re.Pattern] = ""
    stdin: str = ""


def _hom(domain, codomain, table) -> str:
    return json.dumps({"domain": domain, "codomain": codomain, "map": table})


_CHAIN_20 = json.dumps({"labels": [str(i) for i in range(20)], "covers": [[i, i + 1] for i in range(19)]})

# what the console script prints for each call, with the exit code
CLI_PINS = [
    # breadth and its witness, the first irredundant set in combinations order
    Pin("breadth 2^4", ["breadth", "2^4"], 0, '{"breadth":4,"witness":["0111","1011","1101","1110"]}\n'),
    Pin("breadth 2xM3", ["breadth", "2xM3"], 0, '{"breadth":3,"witness":["(0,1)","(1,a)","(1,b)"]}\n'),
    Pin("breadth chain3xchain3", ["breadth", "chain3xchain3"], 0, '{"breadth":2,"witness":["(0,1)","(1,0)"]}\n'),
    # a monotone map is a lattice hom exactly when the hom search pinned to it yields it
    Pin("hom 2 to chain3", ["hom", "-"], 0,
        '{"classification":"lattice-hom","continuous":{"interval":true,"lower":true,"upper":true},"interval_preimages"'
        ':{"all_interval_or_empty":true,"intervals_checked":6},"principal_preimages":{"all_interval_or_empty":true,'
        '"intervals_checked":6}}\n', stdin=_hom("2", "chain3", {"0": "1", "1": "2"})),
    # hom documents that name too little or the wrong end
    Pin("hom partial map", ["hom", "-"], 2, stderr="error: hom map is not total on the domain\n",
        stdin=_hom("2", "chain3", {"0": "1"})),
    Pin("hom value of the domain", ["hom", "-"], 2, stderr="error: unknown label '01'\n",
        stdin=_hom("2^2", "chain3", {"00": "0", "01": "01", "10": "1", "11": "2"})),
    Pin("hom key of the codomain", ["hom", "-"], 2, stderr="error: unknown label '2'\n",
        stdin=_hom("2", "chain3", {"0": "0", "2": "2"})),
    Pin("hom value not a string", ["hom", "-"], 2, stderr="error: hom map entries must be labels\n",
        stdin=_hom("2", "chain3", {"0": 0, "1": "2"})),
    Pin("hom map a list", ["hom", "-"], 2, stderr='error: hom "map" must be an object of label pairs\n',
        stdin=_hom("2", "chain3", [["0", "0"], ["1", "2"]])),
    Pin("hom end not a lattice", ["hom", "-"], 2, stderr="error: hom document needs lattices on both sides\n",
        stdin=_hom({"labels": ["x", "y"], "covers": []}, "2", {"x": "0", "y": "1"})),
    # a bad cover entry is named as read; a cycle and an implied edge are refused
    Pin("check string cover entry", ["check", "-"], 2, stderr="error: bad cover entry: ['x', 'y']\n",
        stdin='{"labels":["a","b"],"covers":[["x","y"]]}'),
    Pin("check bool cover entry", ["check", "-"], 2, stderr="error: bad cover entry: [True, 1]\n",
        stdin='{"labels":["a","b"],"covers":[[true,1]]}'),
    Pin("check 3-cycle", ["check", "-"], 2, stderr="error: cycle detected in covers\n",
        stdin='{"labels":["x","y","z"],"covers":[[0,1],[1,2],[2,0]]}'),
    Pin("check implied edge", ["check", "-"], 2,
        stderr="error: edge (0, 2) is implied by other covers; supply covers only, not the full relation\n",
        stdin='{"labels":["a","b","c"],"covers":[[0,1],[1,2],[0,2]]}'),
    Pin("check 100,000 deep", ["check", "-"], 2, stderr=re.compile(r"error: invalid JSON in -: .*", re.S),
        stdin="[" * 100_000 + "]" * 100_000 + "\n"),
    # the open family is grown from the neighbourhoods, not read off 2^20 subsets
    Pin("topology of a 20-point chain", ["topology", "-", "--kind", "lower"], 0,
        json.dumps({"carrier": 20, "opens": [[], *(list(range(k, 20)) for k in range(20))]}, separators=(",", ":"))
        + "\n", stdin=_CHAIN_20),
    # convergence of a filter given by its generator labels
    Pin("converge M3 a,b", ["converge", "M3", "--generator", "a,b", "--mode", "star"], 0,
        '{"generator":["a","b"],"limits":[],"limits_literal_tail":[],"mode":"star"}\n'),
    Pin("converge not a lattice", ["converge", "-", "--generator", "a", "--mode", "star"], 0,
        '{"generator":["a"],"limits":["a"],"limits_literal_tail":["a"],"mode":"star"}\n',
        "warning: poset is not a complete lattice; convergence is false wherever a bound is missing\n",
        stdin='{"labels":["a","b","c"],"covers":[[0,2],[1,2]]}'),
    Pin("converge unknown label", ["converge", "M3", "--generator", "zz"], 2, stderr="error: unknown label 'zz'\n"),
    Pin("converge product label", ["converge", "2xchain3", "--generator", "(0,1)", "--mode", "star"], 0,
        '{"generator":["(0,1)"],"limits":["(0,1)"],"limits_literal_tail":["(0,1)"],"mode":"star"}\n'),
    # the parser reads the campaign names only when it prints or checks one
    Pin("campaign --help", ["campaign", "--help"], 0,
        re.compile(".*" + re.escape("{" + ",".join(CAMPAIGN_NAMES) + "}") + ".*", re.S)),
    # a random lattice past the element cap is refused before it is built
    Pin("lemma-2 past the element cap", ["campaign", "lemma-2", "--limit", "1000000000", "--trials", "1", "--seed",
                                         "999999990"], 3, stderr="error: poset: 999999992 elements exceeds limit 64\n"),
]


def _matches(expected: Union[str, re.Pattern], text: str) -> bool:
    return bool(expected.fullmatch(text)) if isinstance(expected, re.Pattern) else expected == text


@pytest.mark.parametrize("pin", CLI_PINS, ids=[p.id for p in CLI_PINS])
def test_cli_pins(pin):
    code, out, err = run_cli(pin.argv, pin.stdin)
    assert (code, _matches(pin.stdout, out), _matches(pin.stderr, err)) == (pin.code, True, True), (out, err)


@pytest.mark.parametrize(
    "argv, check",
    [
        (["boolean", "6"], '{"bottom":"000000","carrier":64,"is_complete":true,"is_distributive":true,'
         '"is_lattice":true,"top":"111111","variant_distributive_identity":false}\n'),
        (["product", "2^3", "M3"], '{"bottom":"(000,0)","carrier":40,"is_complete":true,"is_distributive":false,'
         '"is_lattice":true,"top":"(111,1)","variant_distributive_identity":false}\n'),
    ],
    ids=["boolean 6", "product 2^3 M3"],
)
def test_products_read_back_on_stdin(argv, check):
    built = run_cli(argv)
    assert (built.returncode, built.stderr) == (0, "")
    assert run_cli(["check", "-"], built.stdout) == (0, check, "")


def test_library_name_takes_precedence_over_a_file(tmp_path, monkeypatch):
    (tmp_path / "M3").write_text(json.dumps({"labels": ["x", "y"], "covers": [[0, 1]]}))
    monkeypatch.chdir(tmp_path)
    res = run_cli(["check", "M3"])
    assert res.returncode == 0, res.stderr
    assert json.loads(res.stdout)["carrier"] == 5
    # the file is still read under any other name
    res = run_cli(["check", str(tmp_path / "M3")])
    assert json.loads(res.stdout)["carrier"] == 2


class TestCampaigns:
    @pytest.mark.parametrize("name", CAMPAIGN_NAMES)
    def test_every_campaign_passes_at_small_limits(self, name):
        limit = {"breadth-2n": 8, "product-lemma": 16, "prop-2-1": 4}.get(name, 4)
        result = run_campaign(CampaignSpec(name, limit, trials=2, seed=9))
        assert result.status == "pass"
        assert result.instances_checked > 0
        assert result.witness is None

    def test_unknown_campaign_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec("nope", 4)

    def test_bad_limits_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec("hausdorff", 0)
        with pytest.raises(ValueError):
            CampaignSpec("hausdorff", 4, trials=-1)

    def test_result_document_shape(self):
        result = run_campaign(CampaignSpec("breadth-2n", 8))
        doc = result.to_dict()
        assert doc["status"] == "pass"
        assert doc["campaign"]["name"] == "breadth-2n"
        assert isinstance(doc["instances_checked"], int)

    def test_counterexample_witness_is_recheckable(self, monkeypatch):
        # force a failure to exercise the witness channel, then re-check
        # the emitted instance independently
        import ordlab.campaigns as campaigns
        from ordlab import interval_topology, is_discrete, poset_from_dict

        monkeypatch.setattr(campaigns.topo, "is_discrete", lambda t: False)
        result = run_campaign(CampaignSpec("hausdorff", 4))
        assert result.status == "counterexample"
        assert result.witness is not None
        recovered = poset_from_dict(result.witness["poset"])
        monkeypatch.undo()
        assert is_discrete(interval_topology(recovered))


class TestCli:
    def test_boolean_breadth_pipeline(self):
        boolean = run_cli(["boolean", "3"])
        assert boolean.returncode == 0
        breadth = run_cli(["breadth", "-"], stdin=boolean.stdout)
        assert breadth.returncode == 0
        assert breadth.stdout == '{"breadth":3,"witness":["011","101","110"]}\n'

    def test_check_named_poset(self):
        res = run_cli(["check", "M3"])
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["is_lattice"] and doc["is_complete"] and not doc["is_distributive"]
        assert doc["bottom"] == "0" and doc["top"] == "1"
        assert doc["variant_distributive_identity"] is False

    def test_check_non_lattice_file(self, tmp_path):
        path = tmp_path / "antichain.json"
        path.write_text(json.dumps({"labels": ["x", "y"], "covers": []}))
        res = run_cli(["check", str(path)])
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert not doc["is_lattice"]
        assert doc["variant_distributive_identity"] is None

    def test_topology_golden(self):
        res = run_cli(["topology", "2", "--kind", "lower"])
        assert res.stdout == '{"carrier":2,"opens":[[],[0,1],[1]]}\n'

    def test_hausdorff_command(self):
        res = run_cli(["hausdorff", "2", "--kind", "lower"])
        doc = json.loads(res.stdout)
        assert doc == {"kind": "lower", "hausdorff": False, "t1": False, "discrete": False}
        res2 = run_cli(["hausdorff", "M3", "--kind", "interval"])
        assert json.loads(res2.stdout)["hausdorff"] is True

    def test_product_command(self):
        res = run_cli(["product", "2", "chain3"])
        doc = json.loads(res.stdout)
        assert len(doc["labels"]) == 6

    def test_converge_order_mode(self, tmp_path):
        square = {
            "labels": ["bot", "a", "b", "top"],
            "covers": [[0, 1], [0, 2], [1, 3], [2, 3]],
        }
        path = tmp_path / "square.json"
        path.write_text(json.dumps(square))
        res = run_cli(["converge", str(path), "--generator", "a", "--mode", "order"])
        assert res.returncode == 0
        assert json.loads(res.stdout)["limits"] == ["a"]
        res2 = run_cli(["converge", str(path), "--generator", "a,b", "--mode", "order"])
        assert json.loads(res2.stdout)["limits"] == []

    def test_converge_star_reports_both_readings(self, tmp_path):
        res = run_cli(["converge", "M3", "--generator", "a", "--mode", "star"])
        doc = json.loads(res.stdout)
        assert doc["limits"] == ["a"]
        assert doc["limits_literal_tail"] == ["a"]

    def test_converge_warns_on_incomplete_parent(self, tmp_path):
        path = tmp_path / "antichain.json"
        path.write_text(json.dumps({"labels": ["x", "y"], "covers": []}))
        res = run_cli(["converge", str(path), "--generator", "x,y", "--mode", "order"])
        assert res.returncode == 0
        assert "warning" in res.stderr
        # the upper-bound set is empty and has no infimum, so nothing converges
        assert json.loads(res.stdout)["limits"] == []

    def test_hom_command(self):
        # the README's example; finite interval topologies are discrete, so every map is continuous in them
        res = run_cli(["hom", "-"], _hom("2^2", "2", {"00": "0", "01": "1", "10": "1", "11": "1"}))
        failure = '"failure":{"interval":["1","1"],"preimage":["01","10","11"]}'
        assert res == (0, '{"classification":"order-preserving","continuous":{"interval":true,"lower":true,"upper":true},'
                       f'"interval_preimages":{{"all_interval_or_empty":false,{failure},"intervals_checked":3}},'
                       f'"principal_preimages":{{"all_interval_or_empty":false,{failure},"intervals_checked":4}}}}\n', "")

    def test_campaign_exit_zero(self):
        res = run_cli(["campaign", "prop-2-1", "--limit", "5"])
        assert res.returncode == 0
        assert json.loads(res.stdout)["status"] == "pass"

    def test_campaign_determinism(self):
        args = ["campaign", "fact-1-1", "--limit", "4", "--trials", "5", "--seed", "7"]
        first = run_cli(args)
        second = run_cli(args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_malformed_file_exit_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert run_cli(["check", str(path)]).returncode == 2
        path2 = tmp_path / "bad2.json"
        path2.write_text(json.dumps({"labels": ["x", "x"], "covers": []}))
        assert run_cli(["check", str(path2)]).returncode == 2
        assert run_cli(["check", "/nonexistent/p.json"]).returncode == 2

    def test_limit_exceeded_exit_3(self):
        assert run_cli(["boolean", "10"]).returncode == 3
        res = run_cli(["breadth", "2^4"], env={"ORDLAB_MAX_ELEMENTS": "8"})
        assert res.returncode == 3

    def test_poset_file_over_element_limit_exit_3(self, tmp_path):
        path = tmp_path / "chain65.json"
        path.write_text(json.dumps({"labels": [f"c{i}" for i in range(65)],
                                    "covers": [[i, i + 1] for i in range(64)]}))
        res = run_cli(["check", str(path)])
        assert res.returncode == 3
        assert "65 elements exceeds limit 64" in res.stderr

    def test_hom_continuity_on_64_points(self, tmp_path):
        # the identity of 2^6; continuity used to build open families and exit 3
        labels = [format(i, "06b") for i in range(64)]
        bool6 = tmp_path / "bool6.json"
        bool6.write_text(json.dumps(poset_to_dict(boolean_power(6))))
        path = tmp_path / "identity.json"
        path.write_text(json.dumps(
            {"domain": str(bool6), "codomain": str(bool6), "map": {lab: lab for lab in labels}}
        ))
        res = run_cli(["hom", str(path)])
        assert res.returncode == 0, res.stderr
        out = json.loads(res.stdout)
        assert out["classification"] == "complete-hom"
        assert out["continuous"] == {"interval": True, "lower": True, "upper": True}

    def test_env_override_does_not_raise_subset_cap(self, tmp_path, monkeypatch):
        path = tmp_path / "bool5.json"
        path.write_text(json.dumps(poset_to_dict(boolean_power(5))))
        monkeypatch.setenv("ORDLAB_MAX_ELEMENTS", "64")
        assert default_limits() == Limits(max_elements=64, max_subset_elements=20)
        monkeypatch.setenv("ORDLAB_MAX_ELEMENTS", "8")
        assert default_limits().max_subset_elements == 8
        res = run_cli(["breadth", str(path)], env={"ORDLAB_MAX_ELEMENTS": "64"})
        assert res.returncode == 3
        assert "subset-enumeration limit 20" in res.stderr

    def test_huge_size_exit_3(self):
        res = run_cli(["boolean", "20000"])
        assert res.returncode == 3 and res.stdout == ""
        assert res.stderr == "error: boolean power: 2^20000 elements exceeds limit 64\n"

    def test_env_override_allows_more(self):
        res = run_cli(["boolean", "7"], env={"ORDLAB_MAX_ELEMENTS": "128"})
        assert res.returncode == 0
        assert len(json.loads(res.stdout)["labels"]) == 128

    def test_bad_env_value(self):
        res = run_cli(["campaign", "hausdorff"], env={"ORDLAB_MAX_ELEMENTS": "x"})
        assert res == (2, "", "error: ORDLAB_MAX_ELEMENTS must be an integer, got 'x'\n")

    def test_stdin_everywhere(self):
        doc = json.dumps(poset_to_dict(m3()))
        res = run_cli(["hausdorff", "-", "--kind", "interval"], stdin=doc)
        assert res.returncode == 0

    def test_unknown_campaign_exit_2(self):
        res = run_cli(["campaign", "nosuch"])
        assert (res.returncode, res.stdout) == (2, "")
        assert "error: argument name: invalid choice: 'nosuch'" in res.stderr  # worded so on 3.10-3.13

    def test_input_preconditions_exit_2(self, tmp_path):
        antichain = tmp_path / "antichain.json"
        antichain.write_text(json.dumps({"labels": ["x", "y"], "covers": []}))
        hom = tmp_path / "hom.json"
        hom.write_text(json.dumps({"domain": str(antichain), "codomain": "2", "map": {"x": "0", "y": "1"}}))
        for args in (
            ["campaign", "hausdorff", "--limit", "0"],
            ["campaign", "hausdorff", "--trials", "-1"],
            ["breadth", str(antichain)],
            ["hom", str(hom)],
            ["boolean", "0"],
        ):
            res = run_cli(args)
            assert res.returncode == 2, args
            assert res.stderr.startswith("error: "), args

    def test_internal_value_error_is_not_malformed_input(self, monkeypatch, capsys):
        import ordlab.cli as cli

        def broken(p):
            raise ValueError("internal bug")

        monkeypatch.setattr(Poset, "certificate", property(broken))
        with pytest.raises(ValueError, match="internal bug"):
            cli.main(["check", "M3"])
