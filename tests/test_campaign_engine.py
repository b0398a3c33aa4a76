"""The campaign engine: pinned outputs, per-campaign caps and the
counterexample channel of every campaign.

The stdout digests and the forced-counterexample results were recorded
on the per-campaign runners that the one-table engine replaced, so they
pin byte-identical behaviour across that rewrite.  The fact-1-1 and
lemma-3 checks compare whole tables, so their rows spoil a table instead
of one per-pair result; fact-1-1 keeps its pin, lemma-3's is new (see
its row).  The two limit-1 rows with random trials pin random instances
held to the limit (one element each).
"""

import hashlib
import json

import pytest

from ordlab import breadth as breadth_mod
from ordlab import campaigns as campaigns_mod
from conftest import run_cli
from ordlab import catalog
from ordlab import morphisms as morph
from ordlab import topology as topo
from ordlab.campaigns import CAMPAIGNS, CampaignSpec, _random_lattices, _random_posets, run_campaign


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


GOLDEN = [
    # every campaign at its defaults
    ("breadth-2n", 0, "12906f8c654f038e1d810495aac5dc1a1b780068183e3df68366a10ad78c9d4d"),
    ("fact-1-1", 0, "47d52db08ba61d090d52bb1ef04ea71276bf5fd04084ea469dc8072d0915ee71"),
    ("hausdorff", 0, "963c91f3431fe32ebbeb4797a7b48ff04fb37736b59b083b134944e13dd45399"),
    ("lemma-2", 0, "70372f94c53ff9e9eba578f3f0d2bc758aa72b7958319f1321fdc26dffc2a3cf"),
    ("lemma-3", 0, "03393354da717880a44387b807cd0c005af937993cab16dd8a7e6a3bafbe46d1"),
    ("product-lemma", 0, "3f52eae66de4798ebcc07eac75ff0a90a127032711f2b704ab53c727d8da5a4c"),
    ("prop-2-1", 0, "ace555b1acbb0725f573df0159cf5d089492ba79d2363d7a00dfa2bdf7777f27"),
    ("star-preservation", 0, "466a594cf3a61fe07360c177fc48d89c77a1390a3c91774c7dcd1ae59ac42999"),
    # one non-default --limit/--trials/--seed case each
    ("breadth-2n --limit 9 --trials 3 --seed 5", 0, "e557fc7678a0fe4906910b8938d20d8204d652bd483f5db024a80ab3990b2eb2"),
    ("fact-1-1 --limit 4 --trials 10 --seed 7", 0, "fb9a5a1e88d627a04b1eff1f805084258f3332b0eea39e330be0db470bdf9bf2"),
    ("hausdorff --limit 8 --trials 5 --seed 3", 0, "b1c6d14909a5cfe13e6f0c8e4e812adf9656b493f37a4e4fcb33362b6c524210"),
    ("lemma-2 --limit 6 --trials 4 --seed 11", 0, "67a8248797f0feccd1256727fa386ff8dafe14c7cab9799146323bd6a63a6051"),
    ("lemma-3 --limit 4 --trials 3", 0, "4a732478bc6d22d94758feafd6b10c828e04e8a4808fa6ba73fd4456ed695260"),
    ("product-lemma --limit 20 --trials 2 --seed 1", 0, "df29175a8aafd31b05d9799d3770e299baca118f930a457f6b0b8a8cf83094a0"),
    ("prop-2-1 --trials 10", 0, "2639c468c0038cba6a541e8c05599e114012f937c8277554ba717f17dd781c1e"),
    ("star-preservation --limit 6 --trials 4 --seed 11", 0, "620fca7fa362187a5ddd43dae243cb24c4688ad29ea8bed80c60532a5e059518"),
    # the smallest limits; at limit 1 the random posets have one element
    ("fact-1-1 --limit 1 --trials 3 --seed 4", 0, "b25703ff2d5950de7bfc5f61b4f88dbcb9f196ff325ee56825411102f6bdb75a"),
    ("hausdorff --limit 2 --trials 3 --seed 4", 0, "c1655262ffec269bab0d2cfc416fc1fd91a28084ec58f030dd48c9583985247e"),
    ("lemma-2 --limit 2 --trials 3 --seed 1", 0, "7cd183280b91a6b3730cf2ffd85ccf37f9db66ca2d118fc12ce6523c918adde1"),
    ("lemma-3 --limit 1 --trials 2", 0, "b11a07a3596fb66fcedbb3c9070021d5eb737f4cb8a6a1634c26a78811671dfb"),
    # the hom campaigns at 7 and at 8, where a pair of 8-element ends has 8^8
    # candidate maps and its search visits at most 3,004 nodes
    ("prop-2-1 --limit 7 --trials 5 --seed 2", 0, "827fb516a0ea3ef4bedb6c79bcc3a4dbb7377e6573bbab350fa2946c495588ad"),
    ("lemma-2 --limit 7 --trials 5 --seed 2", 0, "6f43ae17ff7b4c7baa4fdd8396e77b60ef581120cb9c09d4821a789bcf7eec95"),
    ("star-preservation --limit 7 --trials 5 --seed 2", 0, "8555a4cad28531842e8030e056b2685aea0dc22036cd4a7f7ba87b6523c9831d"),
    # 11,758 and 26,722 instances
    ("prop-2-1 --limit 8", 0, "1b095e296b438c61e9aab6e42adf6707705794327cf4e01e1cbccc08a5cebf2e"),
    ("lemma-2 --limit 8 --trials 10", 0, "853729855eac45adf045bea7fe1eb6d72d887f685b208cfe157486ccf324d837"),
]


@pytest.mark.parametrize("args, exit_code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_campaign_stdout_golden(args, exit_code, digest):
    code, out, _ = run_cli(["campaign", *args.split()])
    assert code == exit_code
    assert _sha(out) == digest


CAPS = sorted((name, c.cap) for name, c in CAMPAIGNS.items() if c.cap is not None)


@pytest.mark.parametrize("name, cap", CAPS)
def test_limit_above_cap_exits_2_and_names_cap(name, cap):
    # a limit past the cap is refused, never clamped
    message = f"error: campaign {name}: size limit {cap + 1} is above its cap {cap}\n"
    assert run_cli(["campaign", name, "--limit", str(cap + 1)]) == (2, "", message)


def test_hausdorff_runs_at_its_cap():
    code, out, _ = run_cli(["campaign", "hausdorff", "--limit", "64", "--trials", "20"])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["instances_checked"] == 40


def test_fact_1_1_runs_at_its_cap():
    # every labelled poset on up to 6 points: 669,363 + 49,148,694 pairs
    code, out, _ = run_cli(["campaign", "fact-1-1", "--limit", "6"])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["instances_checked"] == 49_818_057


def test_random_instances_respect_the_limit():
    # none of the random lattices at limit 1: the one 1-element lattice is
    # in the library pool
    for limit in range(1, 7):
        for seed in range(10):
            spec = CampaignSpec("lemma-2", limit, trials=4, seed=seed)
            posets, lattices = _random_posets(spec), _random_lattices(spec)
            assert len(posets) == 4 and len(lattices) == (0 if limit == 1 else 4)
            assert all(p.n <= limit for p in posets + lattices)


def _spoil_report(report):
    return report._replace(passed=False, witness={"forced": True})


def _flip(entry, bit):
    """Spoil a subset table: toggle one bit of one entry (on a copy)."""

    def spoil(table):
        table = list(table)
        table[entry] ^= 1 << bit
        return table

    return spoil


# (campaign, size limit, module, attribute its check calls, failing call,
#  how that call's result is spoiled, instances checked, witness keys,
#  sha256 of the witness JSON)
COUNTEREXAMPLES = [
    ("breadth-2n", 16, breadth_mod, "compute_breadth", 3, lambda r: r._replace(breadth=r.breadth + 1), 3,
     ["check", "computed", "expected", "poset", "witness"],
     "94740543e01169358cf6eb13e4b93c8e85f8fde730335f35a9c18bebe8cf9c0e"),
    # the 1,000th (generator, point) pair is generator 0b1011, point 1 of
    # the 33rd poset; flipping that bit of its down-set table makes it the
    # first mismatch
    ("fact-1-1", 5, campaigns_mod, "_downset_member_table", 33, _flip(0b1011, 1), 1000,
     ["check", "generator", "point", "poset"],
     "6b4d03c55fc1f81308ac302b155811fc1527efd36b189d4aadba4ed173294f41"),
    ("hausdorff", 8, topo, "is_hausdorff", 5, lambda r: False, 5,
     ["check", "poset"],
     "6ad3cb156fa3d15d8a860ca619ee1516ff6e5b1031dca14caa8c9e5227c498b5"),
    ("lemma-2", 5, morph, "check_image_convergence", 100, _spoil_report, 100,
     ["check", "hom", "witness"],
     "7eebf7457cfe150563b13d91cd1d9ec98a02fd5ea7b66efd5b1dc5ba63778708"),
    # the 208th map, (0, 2, 1, 1), with point 0 dropped from the image of
    # its whole domain: the first failing pair is (0b1111, 0b1101), the
    # 4,996th.  No spoiled table keeps the old pin, the pair (0b1111, 0b1001)
    # at 5,000: the image of 0b1001 must then leave that of 0b1111, and so
    # the image of 0b1101 either leaves it too, failing at 4,996, or fails
    # the earlier pair (0b1101, 0b1001).
    ("lemma-3", 4, campaigns_mod, "_image_table", 208, _flip(0b1111, 0), 4996,
     ["check", "coarse_generator", "codomain", "domain", "fine_generator", "map"],
     "d7dfe9c96e099795100f8c4b2097f9d0d85d389a349ebff4392d48397a386ce0"),
    ("product-lemma", 64, topo, "topologies_equal", 7, lambda r: False, 7,
     ["check", "poset"],
     "a37b9849add8fcc99766fddabcc4b72835955417acd8ac30eaa035572c254bb7"),
    ("prop-2-1", 6, morph, "is_continuous", 100, lambda r: False, 100,
     ["check", "failure_interval", "hom"],
     "941ffe1b7c00a3405395854f7fcf4cf0740cc467e953127f43c9d1b482c5ea55"),
    ("star-preservation", 5, morph, "check_star_preservation", 100, _spoil_report, 100,
     ["check", "hom", "witness"],
     "4a71dfbf05d7f41c425cde818f985da6a832f1d4435954508e8bf43494717de3"),
]


@pytest.mark.parametrize(
    "name, limit, module, attr, fail_at, spoil, checked, keys, witness_digest",
    COUNTEREXAMPLES,
    ids=[c[0] for c in COUNTEREXAMPLES],
)
def test_counterexample_channel(monkeypatch, name, limit, module, attr, fail_at, spoil, checked, keys, witness_digest):
    # Replacing the module attribute must reach the campaign: a check that
    # captured the function when the campaign table was built would miss
    # it, and so would the benchmark tracer's wrappers.
    original = getattr(module, attr)
    calls = [0]

    def forced(*args, **kwargs):
        result = original(*args, **kwargs)
        calls[0] += 1
        return spoil(result) if calls[0] == fail_at else result

    monkeypatch.setattr(module, attr, forced)
    result = run_campaign(CampaignSpec(name, limit, trials=2, seed=3))
    assert result.status == "counterexample"
    assert result.instances_checked == checked
    assert sorted(result.witness) == keys
    assert _sha(json.dumps(result.witness, sort_keys=True, separators=(",", ":"))) == witness_digest


@pytest.mark.parametrize("args, attr", [("fact-1-1 --trials 1", "random_poset"), ("prop-2-1", "library_lattices")])
def test_catalog_double_reaches_the_campaign(monkeypatch, args, attr):
    # the instance sources read catalog's functions at call time, as they
    # read the other modules' functions
    original = getattr(catalog, attr)
    seen = []

    def double(*a):
        seen.append(a)
        return original(*a)

    monkeypatch.setattr(catalog, attr, double)
    assert run_cli(["campaign", *args.split()]).returncode == 0
    assert len(seen) == 1
