"""Acceptance suite.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them all).  The oracle gates of criterion 9, and criterion 7, justify the
shortcuts used elsewhere.  Most are rows of the registry in ``gates.py``:
a row holds a shortcut's production names and module, its oracles, its
pools, its comparison with pinned counts, and its seeded and equivalent
mutants, and one runner here checks every row.  Gate 9a (filter axioms
against their principal form) and gate 9j (which spoils tables, not
code) are written out below.
"""

import ast
import inspect
import itertools
import json
import math
import subprocess
import sys
import time
import types
from collections import defaultdict
from functools import lru_cache, wraps
from pathlib import Path
from random import Random

import pytest

import gates
import oracles
from conftest import mutant
from gates import GATES
from ordlab import (
    Classification, SetFilter, boolean_power, chain, check_image_filter_inclusion, coatom_family, compute_breadth,
    enumerate_homs, interval_topology, is_discrete, is_hausdorff, preimage_scan, product, product_topology,
    topologies_equal, upper_iff_downset,
)
from ordlab import campaigns as campaigns_mod
from ordlab.breadth import is_irredundant
from ordlab.campaigns import CAMPAIGN_NAMES, CampaignSpec, _check_fact_1_1, _check_lemma_3, run_campaign
from ordlab.catalog import all_posets_up_to, library_lattices, library_posets, m3, random_poset, two
from ordlab.order_core import _image_table, mask_of, poset_to_dict, subset_intersection_table

from oracles import all_filter_families, collapse_to_two, per_pair_fact_1_1, per_pair_lemma_3


def report(num, description, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}"
    print(line, flush=True)
    assert ok, line


def _patch_everywhere(patch, original, replacement) -> None:
    """Replace ``original`` in every loaded ordlab module that holds it."""
    for key, loaded in list(sys.modules.items()):
        if key.split(".")[0] == "ordlab" and type(loaded) is types.ModuleType:
            for attr in [a for a, value in vars(loaded).items() if value is original]:
                patch.setattr(loaded, attr, replacement)


def _seeded_mutants(patch, row: gates.Gate, agrees) -> tuple[list[str], list[str]]:
    """Run the gate's comparison ``agrees`` once per mutant ``(label, name,
    code replaced, replacement)`` of the row, the function the row's name
    resolves to patched in every loaded ordlab module that holds it; a
    mutant that raises one of the row's ``caught`` is caught.  Returns the
    labels of the mutants the gate missed and of the equivalent ones that
    survived."""
    passed = []
    for _, name, old, new in [*row.mutants, *row.equivalent]:
        original = gates.production(row, name)
        with patch.context() as scoped:
            _patch_everywhere(scoped, original, mutant(original, (old, new)))
            try:
                passed.append(agrees())
            except row.caught:
                passed.append(False)
    missed = [m[0] for m, ok in zip(row.mutants, passed) if ok]
    return missed, [m[0] for m, ok in zip(row.equivalent, passed[len(row.mutants):]) if ok]


def test_criterion_1_breadth_of_boolean_powers():
    start = time.monotonic()
    ok = True
    for n in range(1, 5):
        lattice = boolean_power(n)
        rep = compute_breadth(lattice)
        family = mask_of(coatom_family(n))
        ok = ok and rep.breadth == n
        ok = ok and is_irredundant(lattice, rep.witness)
        ok = ok and is_irredundant(lattice, family)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    report(1, f"breadth of the n-bit lattices is n for n=1..4 ({elapsed:.1f}s)", ok)


def test_criterion_2_one_zero_family_irredundant_in_16():
    lattice = boolean_power(4)
    family = coatom_family(4)
    mask = sum(1 << i for i in family)
    ok = lattice.infimum_mask(mask) == lattice.bottom
    proper = [c for r in range(1, 4) for c in itertools.combinations(family, r)]
    ok = ok and len(proper) == 14
    for combo in proper:
        inf = lattice.infimum_mask(sum(1 << i for i in combo))
        ok = ok and inf != lattice.bottom and lattice.leq(lattice.bottom, inf)
    report(2, "one-zero vectors in the 4-bit lattice: no proper subset reaches the bottom", ok)


def test_criterion_3_interval_topology_of_products():
    factories = [two, lambda: chain(3), lambda: boolean_power(2), m3]
    checked = 0
    ok = True
    for arity in (2, 3):
        for combo in itertools.combinations_with_replacement(range(4), arity):
            factors = [factories[i]() for i in combo]
            if math.prod(f.n for f in factors) > 64:
                continue
            lhs = interval_topology(product(factors))
            rhs = product_topology([interval_topology(f) for f in factors])
            ok = ok and topologies_equal(lhs, rhs)
            checked += 1
    ok = ok and checked == 26
    report(3, f"interval topology of products equals the product topology ({checked} products)", ok)


def test_criterion_4_interval_topologies_hausdorff():
    pool = [p for _, p in library_posets(8)]
    rng = Random(1404)
    pool += [random_poset(rng.randint(1, 8), rng) for _ in range(200)]
    ok = True
    for p in pool:
        t = interval_topology(p)
        ok = ok and is_discrete(t) and is_hausdorff(t)
    report(4, f"interval topologies discrete and Hausdorff on {len(pool)} posets", ok)


def test_criterion_5_complete_hom_preimages_are_intervals():
    pool = [p for _, p in library_lattices(6)]
    homs = 0
    ok = True
    for dom in pool:
        for cod in pool:
            for hom in enumerate_homs(dom, cod):
                homs += 1
                scan = preimage_scan(hom)
                ok = ok and scan.all_interval_or_empty
    collapse = collapse_to_two()
    ok = ok and collapse.classification == Classification.ORDER_PRESERVING
    ok = ok and not preimage_scan(collapse).all_interval_or_empty
    report(5, f"preimages of intervals under {homs} complete homs; stored collapse fails", ok)


def test_criterion_6_upper_membership_equivalence():
    ok = True
    checked = 0
    rng = Random(2026)
    for p in list(all_posets_up_to(5)) + [random_poset(rng.randint(2, 5), rng) for _ in range(500)]:
        for gen in range(1, p.full_mask + 1):
            f = SetFilter(p, gen)
            for x in range(p.n):
                checked += 1
                ok = ok and upper_iff_downset(f, x)
    report(6, f"upper-bound membership iff down-set membership ({checked} checks)", ok)


def test_criterion_8_image_filters_respect_inclusion():
    ok = True
    checked = 0
    for a in range(1, 5):
        for b in range(1, 5):
            dom, cod = chain(a), chain(b)
            for mapping in itertools.product(range(b), repeat=a):
                for coarse in range(1, dom.full_mask + 1):
                    fine = coarse
                    while fine:
                        checked += 1
                        ok = ok and check_image_filter_inclusion(mapping, coarse, fine)
                        fine = (fine - 1) & coarse
    report(8, f"image filters preserve containment ({checked} map/filter-pair checks)", ok)


def test_criterion_9a_gate_filters_are_principal():
    ok = True
    for carrier in range(1, 5):
        families = all_filter_families(carrier)
        ok = ok and len(families) == (1 << carrier) - 1
        for fam in families:
            gen = (1 << carrier) - 1
            for member in fam:
                gen &= member
            ok = ok and gen != 0
            ok = ok and fam == {m for m in range(1 << carrier) if m & gen == gen}
    report("9a", "every family satisfying the filter axioms on carriers <= 4 is principal", ok)


def test_criterion_9j_gate_table_campaign_checks(monkeypatch):
    """The whole-table fact-1-1 and lemma-3 checks against the per-pair
    loops, on the real tables and on tables with seeded flipped bits (the
    same bits flipped in the table the per-pair loop reads), comparing
    the verdict, the pairs checked and the witness."""
    rng = Random(909)
    flips = {"bits": ()}

    def flipping(real):
        def table(*args, **kwargs):
            out = real(*args, **kwargs)
            for entry, bit in flips["bits"]:
                out[entry] ^= 1 << bit
            return out

        return table

    # the unguarded builders the checks read
    monkeypatch.setattr(campaigns_mod, "_downset_member_table", flipping(campaigns_mod._downset_member_table))
    monkeypatch.setattr(campaigns_mod, "_image_table", flipping(campaigns_mod._image_table))

    def spoils(entries, bits, count):
        """No flips, then ``count`` seeded sets of 1-3 (entry, bit) flips."""
        return [()] + [
            [(rng.randrange(1, entries), rng.randrange(bits)) for _ in range(rng.randint(1, 3))]
            for _ in range(count)
        ]

    ok = True
    posets = runs = failing = 0
    for p in list(all_posets_up_to(5)) + [random_poset(6, rng) for _ in range(30)]:
        posets += 1
        for bits in spoils(p.full_mask + 1, p.n, 1):
            runs += 1
            upper = subset_intersection_table(p.up, p.full_mask)
            for gen, x in bits:
                upper[gen] ^= 1 << x
            checked, first = per_pair_fact_1_1(p, upper)
            flips["bits"] = bits
            witness = None
            if first is not None:
                failing += 1
                gen, x = first
                witness = {
                    "poset": poset_to_dict(p),
                    "check": "upper-iff-downset",
                    "generator": p.labels_of(gen),
                    "point": p.labels[x],
                }
            ok = ok and _check_fact_1_1(p) == (checked, witness)
            flips["bits"] = ()
    ok = ok and failing > 0
    maps = map_runs = map_failing = 0
    for a, b in itertools.product(range(1, 5), repeat=2):
        dom, cod = chain(a), chain(b)
        for mapping in itertools.product(range(b), repeat=a):
            maps += 1
            # b + 1 bits: a spoiled image may name a point outside the codomain
            for bits in spoils(1 << a, b + 1, 2):
                map_runs += 1
                images = _image_table(mapping)
                for entry, bit in bits:
                    images[entry] ^= 1 << bit
                checked, first = per_pair_lemma_3(dom, mapping, images)
                flips["bits"] = bits
                witness = None
                if first is not None:
                    map_failing += 1
                    coarse, fine = first
                    witness = {
                        "check": "image-filter-inclusion",
                        "domain": poset_to_dict(dom),
                        "codomain": poset_to_dict(cod),
                        "map": list(mapping),
                        "coarse_generator": dom.labels_of(coarse),
                        "fine_generator": dom.labels_of(fine),
                    }
                ok = ok and _check_lemma_3((dom, cod, mapping)) == (checked, witness)
                flips["bits"] = ()
    ok = ok and map_failing > 0 and (posets, maps) == (4473 + 30, 494)
    report(
        "9j",
        f"table fact-1-1 equals the per-pair Fact 1.1 loop on {posets} posets (<= 5, 30 of 6; "
        f"{runs} runs, {failing} on spoiled tables failing), table lemma-3 equals the per-pair "
        f"Lemma 3 loop on {maps} maps between carriers <= 4 ({map_runs} runs, "
        f"{map_failing} failing)",
        ok,
    )


def test_criterion_10_campaign_determinism():
    def run(args):
        return subprocess.run([sys.executable, "-m", "ordlab", *args], capture_output=True, text=True)

    ok = True
    for args in (
        ["campaign", "fact-1-1", "--limit", "4", "--trials", "10", "--seed", "7"],
        ["campaign", "breadth-2n", "--limit", "16"],
        ["campaign", "product-lemma", "--limit", "64"],
    ):
        first, second = run(args), run(args)
        ok = ok and first.returncode == 0 and second.returncode == 0
        ok = ok and first.stdout == second.stdout and first.stdout.endswith("\n")
        ok = ok and json.loads(first.stdout)["status"] == "pass"
    report(10, "campaign output is byte-identical across repeated seeded runs", ok)


@pytest.fixture(scope="module", autouse=True)
def _gate_pools():
    yield
    gates.release_pools()


def _run_gate(row: gates.Gate, patch) -> None:
    """Check the row's comparison as shipped against its pinned result,
    then under every seeded and equivalent mutant, and print its PASS line."""
    cases = row.cases()
    survey = row.survey(cases)
    got = survey + row.once(cases)
    missed, survived = _seeded_mutants(patch, row, lambda: row.survey(cases) == survey)
    line = (
        f"{row.line.format(*got)}; seeded mutants ({', '.join(m[0] for m in row.mutants) or 'none yet'}) "
        f"missed: {', '.join(missed) or 'none'}"
    )
    if row.equivalent:
        line += f"; equivalent, surviving: {', '.join(survived) or 'none'}"
    report(row.num, line, got == row.pinned and not missed and len(survived) == len(row.equivalent))


def _gate_test(row: gates.Gate):
    def test(monkeypatch):
        _run_gate(row, monkeypatch)

    test.__name__ = row.test
    return test


# each row runs under its test's name, as before the registry
globals().update({row.test: _gate_test(row) for row in GATES})


def test_9k_pair_mutant_is_seen_by_the_literal_test_only(monkeypatch):
    """Gate 9k's seeded pair-test mutant, patched into the filter oracle as
    well: the filter then finds the census's 6-point lattices, as both call
    the one pair test, and only is_lattice_literal refuses the posets it
    adds, where a pair with point 0 has no join."""
    row = next(row for row in GATES if row.num == "9k")
    name, old, new = next(m[1:] for m in row.mutants if m[1] == "order_core._pairs_have_joins")
    original = gates.production(row, name)
    replacement = mutant(original, (old, new))
    shipped = len(gates.catalog_mod.all_lattices(6))
    _patch_everywhere(monkeypatch, original, replacement)
    monkeypatch.setattr(oracles, "_pairs_have_joins", replacement)
    census = gates.catalog_mod.all_lattices(6)
    assert gates.rows_digest(census) == gates.rows_digest(oracles.lattices_by_filter(6))
    assert (len(census) - shipped, sum(not oracles.is_lattice_literal(p) for p in census)) == (60, 60)


def test_gate_registry_resolves():
    """Every production name of a row resolves, every oracle is in
    tests/oracles.py, every mutant's replaced code occurs once in its
    function's source, and every campaign a row names exists."""
    for row in GATES:
        for name in row.names:
            try:
                gates.production(row, name)
            except (AttributeError, ImportError) as exc:
                pytest.fail(f"gate {row.num}: production name {name} does not resolve: {exc}")
        for name in row.oracles:
            assert callable(getattr(oracles, name, None)), f"gate {row.num}: no oracle {name} in tests/oracles.py"
        for label, name, old, _ in [*row.mutants, *row.equivalent]:
            assert name in row.names, f"gate {row.num}: mutant {label!r} replaces {name}, not a name of the row"
            count = inspect.getsource(gates.production(row, name)).count(old)
            assert count == 1, f"gate {row.num}: mutant {label!r}: {old!r} occurs {count} times in {name}"
        for name, names in (row.campaigns or {}).items():
            assert name in row.names, f"gate {row.num}: {name} reaches campaigns but is not a name of the row"
            assert set(names) <= set(CAMPAIGN_NAMES), f"gate {row.num}: unknown campaigns {names}"


def test_every_oracle_has_a_reader():
    """Every top-level function of tests/oracles.py is named in a row's
    oracles or imported by a test module."""
    read = {name for row in GATES for name in row.oracles}
    for path in Path(__file__).parent.glob("*.py"):
        read |= {
            alias.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom) and node.module == "oracles" for alias in node.names
        }
    tree = ast.parse(Path(oracles.__file__).read_text())
    orphans = [node.name for node in tree.body if isinstance(node, ast.FunctionDef) and node.name not in read]
    assert not orphans, f"oracles read by no row and imported by no test module: {orphans}"


def test_gate_campaigns_are_the_callers(monkeypatch):
    """Run every campaign once, in process at small arguments, with every
    production function of every row wrapped in a call counter: the
    campaigns that call a name are exactly those its row lists."""
    callers, campaign = defaultdict(set), None
    # an empty census cache, so that a campaign's calls do not depend on the tests run before it
    census = gates.catalog_mod._extend_posets
    _patch_everywhere(monkeypatch, census, lru_cache(maxsize=None)(census.__wrapped__))

    def counting(original):
        @wraps(original)
        def counted(*args, **kwargs):
            callers[original].add(campaign)
            return original(*args, **kwargs)

        return counted

    names = [(row, name, gates.production(row, name)) for row in GATES for name in row.names]
    names = [(row, name, fn) for row, name, fn in names if inspect.isfunction(inspect.unwrap(fn))]  # not methods
    for fn in {fn for _, _, fn in names}:
        _patch_everywhere(monkeypatch, fn, counting(fn))
    for campaign in CAMPAIGN_NAMES:
        assert run_campaign(CampaignSpec(campaign, 4, 2, 0)).status == "pass"
    wrong = [
        f"gate {row.num}: {name} is called by {sorted(callers[fn])}"
        for row, name, fn in names
        if callers[fn] != set((row.campaigns or {}).get(name, ()))
    ]
    assert not wrong, wrong
