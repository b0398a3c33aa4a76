"""Acceptance suite.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see
them all).  The oracle gates in criterion 9 justify the shortcuts used
elsewhere: principal filter representation, the bound queries and the
generator route for the filter upper set, the breadth size-bound
reduction and the breadth read off the meet-irreducibles, and the finite
complete-homomorphism test, continuity read
off neighbourhood tables,
the closed-form order and star limits of a filter, the subset tables
(bounds, closures, images) with the enumerated order rows, and the
pruned hom search, the preimage scan by lookup, the complete homs taken
from the search unclassified and distributivity by join-primes, the
whole-table fact-1-1 and lemma-3 campaign checks, and the lattice
census (the lattice test on the order rows, the bit-level isomorphism
test and the enumeration order), the box rows that build products,
``2^n`` and product topologies, and the census memoised by normal codes.
"""

import __future__
import hashlib
import inspect
import itertools
import json
import subprocess
import sys
import textwrap
import time
import types
from random import Random

from ordlab import (
    Classification,
    SetFilter,
    boolean_power,
    chain,
    check_image_filter_inclusion,
    classify,
    coatom_family,
    compute_breadth,
    enumerate_homs,
    interval_topology,
    is_continuous,
    is_discrete,
    is_hausdorff,
    lower_topology,
    preimage_scan,
    product,
    product_topology,
    star_converges,
    topologies_equal,
    upper_iff_downset,
    upper_topology,
)
from ordlab import breadth as breadth_mod
from ordlab import campaigns as campaigns_mod
from ordlab import catalog as catalog_mod
from ordlab import filters as filters_mod
from ordlab import morphisms as morph_mod
from ordlab import order_core as core_mod
from ordlab import topology as topo_mod
from ordlab.breadth import has_breadth_at_most, is_irredundant
from ordlab.campaigns import CAMPAIGNS, CampaignSpec, _check_fact_1_1, _check_lemma_3, _lattice_pool
from ordlab.catalog import (
    all_lattices,
    all_posets,
    all_posets_up_to,
    iso_representatives,
    library_lattices,
    library_posets,
    m3,
    random_lattice,
    random_poset,
    two,
)
from ordlab.errors import MalformedInputError
from ordlab.filters import order_convergence_is_pointlike, order_converges
from ordlab.morphisms import _search
from ordlab.order_core import (
    Poset,
    _image_table,
    _is_lattice,
    are_order_isomorphic,
    mask_of,
    poset_to_dict,
    subset_intersection_table,
    subset_union_table,
)

from oracles import (
    all_filter_families,
    all_filter_limit_sweep,
    are_isomorphic_brute_force,
    breadth_by_bounds,
    breadth_literal,
    breadth_violation_by_combinations,
    collapse_to_two,
    filter_lower_definitional,
    filter_upper_definitional,
    has_breadth_at_most_literal,
    is_complete_hom_exhaustive,
    is_lattice_literal,
    iso_representatives_pairwise,
    iter_monotone_maps,
    mask_from,
    members_of,
    naive_down_closure,
    naive_image,
    naive_infimum,
    naive_is_continuous,
    naive_is_distributive,
    naive_lower_bounds,
    naive_order_converges,
    naive_preimage_scan,
    naive_product_rows,
    naive_star_converges,
    naive_supremum,
    naive_transpose,
    naive_up_closure,
    naive_upper_bounds,
    order_limits_definitional,
    per_pair_fact_1_1,
    per_pair_lemma_3,
    projection_preimages,
    relabelings,
    relabelled,
    star_limits_by_subsets,
)


def report(num, description, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {description}"
    print(line, flush=True)
    assert ok, line


def _mutant(fn, old: str, new: str):
    """``fn`` recompiled from its source with ``old``, which occurs there
    once, replaced by ``new``, in a copy of its module's namespace."""
    source = textwrap.dedent(inspect.getsource(fn))
    assert source.count(old) == 1, old
    namespace = dict(vars(inspect.getmodule(fn)))
    code = compile(
        source.replace(old, new), f"<mutant {fn.__name__}>", "exec",
        flags=__future__.annotations.compiler_flag, dont_inherit=True,
    )
    exec(code, namespace)
    return namespace[fn.__name__]


def _seeded_mutants(patch, module, mutants, agrees, equivalent=(), caught=()) -> tuple[list[str], list[str]]:
    """Run the gate's comparison ``agrees`` once per mutant ``(label,
    function of module, code replaced, replacement)``, patched in every
    loaded ordlab module that holds the original; a mutant that raises one
    of ``caught`` is caught.  Returns the labels of ``mutants`` the gate
    missed and of the ``equivalent`` mutants that survived."""
    passed = []
    for _, name, old, new in [*mutants, *equivalent]:
        original = getattr(module, name)
        mutant = _mutant(original, old, new)
        with patch.context() as scoped:
            for key, loaded in list(sys.modules.items()):
                if key.split(".")[0] == "ordlab" and type(loaded) is types.ModuleType:
                    for attr in [a for a, value in vars(loaded).items() if value is original]:
                        scoped.setattr(loaded, attr, mutant)
            try:
                passed.append(agrees())
            except caught:
                passed.append(False)
    missed = [m[0] for m, ok in zip(mutants, passed) if ok]
    return missed, [m[0] for m, ok in zip(equivalent, passed[len(mutants):]) if ok]


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
    ok = lattice.infimum(mask) == lattice.bottom
    proper = [c for r in range(1, 4) for c in itertools.combinations(family, r)]
    ok = ok and len(proper) == 14
    for combo in proper:
        inf = lattice.infimum(sum(1 << i for i in combo))
        ok = ok and inf != lattice.bottom and lattice.leq(lattice.bottom, inf)
    report(2, "one-zero vectors in the 4-bit lattice: no proper subset reaches the bottom", ok)


def test_criterion_3_interval_topology_of_products():
    factories = [two, lambda: chain(3), lambda: boolean_power(2), m3]
    checked = 0
    ok = True
    for arity in (2, 3):
        for combo in itertools.combinations_with_replacement(range(4), arity):
            factors = [factories[i]() for i in combo]
            size = 1
            for f in factors:
                size *= f.n
            if size > 64:
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
        upper_bounds = subset_intersection_table(p.up, p.full_mask)
        for gen in range(1, p.full_mask + 1):
            f = SetFilter(p, gen)
            for x in range(p.n):
                checked += 1
                ok = ok and upper_iff_downset(f, x, upper_bounds)
    report(6, f"upper-bound membership iff down-set membership ({checked} checks)", ok)


def _convergence_homs() -> list:
    """The complete homs between library lattices <= 5, each with the
    order and star reports of the sweep over every filter, its limits
    taken by the definitions."""
    pool = [p for _, p in library_lattices(5)]
    return [
        (
            hom,
            all_filter_limit_sweep(hom, order_limits_definitional),
            all_filter_limit_sweep(hom, star_limits_by_subsets),
        )
        for dom in pool
        for cod in pool
        for hom in enumerate_homs(dom, cod)
    ]


def _sweep_outcomes(homs) -> tuple[int, int]:
    """``(wrong, raised)``: the homs on which the point-filter sweeps, read
    through the morphisms module (so a mutant patched in is the one run),
    fail or differ from the sweeps over every filter, and those on which
    they raise the generator range check instead of reporting."""
    wrong = raised = 0
    for hom, order, star in homs:
        try:
            wrong += not (
                order.passed and star.passed
                and morph_mod.check_image_convergence(hom) == order
                and morph_mod.check_star_preservation(hom) == star
            )
        except MalformedInputError:  # an image generator outside the poset read
            raised += 1
    return wrong, raised


# (mutant, function, code replaced, replacement); caught only by a wrong
# report on some hom, not by the generator range check raising
SWEEP_MUTANTS = [
    ("image on the domain", "image_filter", "image |= 1 << mapping[low.bit_length() - 1]", "image |= low"),
    ("image point read on the domain", "_limit_sweep", "(image_points >> h.mapping[y])", "(image_points >> y)"),
    ("first point skipped", "_limit_sweep", "for x in range(dom.n):", "for x in range(1, dom.n):"),
    ("image generator widened by the bottom", "_limit_sweep", "limit_mask(cod, image_filter(h.mapping, gen))",
     "limit_mask(cod, image_filter(h.mapping, gen) | 1 << cod.bottom)"),
]
# equivalent under the closed form, which reads the generator and not the
# order: a point generator's limit is itself on any poset it lies in, so
# the mutant reports right or raises the range check, and must survive
SWEEP_EQUIVALENT = [
    ("image limits read on the domain", "_limit_sweep", "limit_mask(cod, image_filter(h.mapping, gen))",
     "limit_mask(dom, image_filter(h.mapping, gen))"),
]


def test_criterion_7_convergence_preserved_by_complete_homs(monkeypatch):
    pool = [p for _, p in library_lattices(5)]
    ok = True
    # the convergence checks sweep point filters only, by the degeneracy
    # law: assert it for order and star limits on every lattice of the hom
    # campaigns' pools, at the default limits and at --trials 10, on seeds
    # 0 and 7, and compare the checks with the sweep over every filter
    pooled = 0
    for name in ("lemma-2", "prop-2-1", "star-preservation"):
        for trials in (0, 10):
            for seed in (0, 7):
                spec = CampaignSpec(name, CAMPAIGNS[name].default_limit, trials, seed)
                for p in _lattice_pool(spec):
                    pooled += 1
                    ok = ok and order_convergence_is_pointlike(p)
                    for gen in range(1, p.full_mask + 1):
                        point = gen if not gen & (gen - 1) else 0
                        ok = ok and star_limits_by_subsets(p, gen) == point
    # the degeneracy law, asserted exhaustively on the same instance family
    for p in pool:
        ok = ok and order_convergence_is_pointlike(p)
        for gen in range(1, p.full_mask + 1):
            f = SetFilter(p, gen)
            for x in range(p.n):
                ok = ok and star_converges(f, x) == (gen == 1 << x)
                ok = ok and order_converges(f, x) == (gen == 1 << x)
    homs = _convergence_homs()
    ok = ok and _sweep_outcomes(homs) == (0, 0)
    raising = []

    def sweeps_agree():
        wrong, raised = _sweep_outcomes(homs)
        raising.append(raised)
        return not wrong

    missed, survived = _seeded_mutants(monkeypatch, morph_mod, SWEEP_MUTANTS, sweeps_agree, SWEEP_EQUIVALENT)
    raised = [f"{m[0]} on {r}" for m, r in zip(SWEEP_MUTANTS + SWEEP_EQUIVALENT, raising) if r]
    ok = ok and not missed and len(survived) == len(SWEEP_EQUIVALENT)
    report(
        7,
        f"order and star convergence preserved by {len(homs)} complete homs, point-filter sweeps equal to "
        f"the all-filter sweeps; convergence pointlike on {pooled} hom-campaign pool lattices; seeded "
        f"mutants ({', '.join(m[0] for m in SWEEP_MUTANTS)}) missed: {', '.join(missed) or 'none'}; "
        f"equivalent under the closed form, surviving: {', '.join(survived) or 'none'}; the generator range "
        f"check raised instead of a report for {', '.join(raised) or 'no mutant'} of the homs",
        ok,
    )


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


def _bound_cases() -> list:
    """Every subset mask of the posets <= 4, the library posets <= 6 and 50
    seeded random posets on 5-6 points, with its upper and lower bounds,
    infimum and supremum by the per-element definitions."""
    pool = list(all_posets_up_to(4))
    pool += [p for _, p in library_posets(6)]
    rng = Random(99)
    pool += [random_poset(rng.randint(5, 6), rng) for _ in range(50)]
    cases = []
    for p in pool:
        for m in range(p.full_mask + 1):
            s = members_of(m)
            bounds = mask_from(naive_upper_bounds(p, s)), mask_from(naive_lower_bounds(p, s))
            cases.append((p, m, bounds, naive_infimum(p, s), naive_supremum(p, s)))
    return cases


def _bounds_gate(cases) -> bool:
    """True when the bound queries, whose shared loops are read through
    the order_core module (so a mutant patched in is the one run), give
    every case's definitional answers."""
    return all(
        (p.upper_bounds_mask(m), p.lower_bounds_mask(m)) == bounds
        and p.infimum_mask(m) == inf and p.supremum_mask(m) == sup
        for p, m, bounds, inf, sup in cases
    )


# (mutant, function, code replaced, replacement)
BOUND_MUTANTS = [
    ("bound loop starting from no element", "_bounds_mask", "out = full", "out = 0"),
    ("bound loop joining the rows", "_bounds_mask", "out &= rows[", "out |= rows["),
    ("scan returning the first bound untested", "_spanning_member", "if not bounds & ~rows[x]:", "if True:"),
]


def test_criterion_9b_gate_upper_set_via_generator(monkeypatch):
    cases = _bound_cases()
    ok = _bounds_gate(cases)
    # a filter's upper and lower sets, the unions over its members, are
    # the bounds of its generator
    for p, m, bounds, _, _ in cases:
        if m:
            f = SetFilter(p, m)
            ok = ok and (filter_upper_definitional(f), filter_lower_definitional(f)) == bounds
    missed, _ = _seeded_mutants(monkeypatch, core_mod, BOUND_MUTANTS, lambda: _bounds_gate(cases))
    ok = ok and not missed
    report(
        "9b",
        f"bounds, infima and suprema equal the per-element definitions on {len(cases)} subset masks, and "
        f"filter upper/lower sets equal the definitional unions; seeded mutants "
        f"({', '.join(m[0] for m in BOUND_MUTANTS)}) missed: {', '.join(missed) or 'none'}",
        ok,
    )


def test_criterion_9c_gate_breadth_reduction():
    reps = iso_representatives([l for n in range(1, 7) for l in all_lattices(n)])
    ok = len(reps) == 25
    for lattice in reps:
        for n in range(1, lattice.n + 1):
            check = has_breadth_at_most(lattice, n)
            ok = ok and check.holds == has_breadth_at_most_literal(lattice, n)
            ok = ok and tuple(check) == breadth_violation_by_combinations(lattice, n)
    report(
        "9c",
        f"breadth size-bound reduction agrees with the definition on {len(reps)} lattice classes (<= 6), and "
        f"its counterexample is the first irredundant (n+1)-subset of the scan in combinations order",
        ok,
    )


def test_criterion_9d_gate_complete_hom_shortcut():
    reps = iso_representatives([l for n in range(1, 6) for l in all_lattices(n)])
    ok = len(reps) == 10
    maps_checked = 0
    for dom in reps:
        for cod in reps:
            for mapping in itertools.product(range(cod.n), repeat=dom.n):
                maps_checked += 1
                fast = classify(mapping, dom, cod).classification == Classification.COMPLETE_HOM
                slow = is_complete_hom_exhaustive(mapping, dom, cod)
                ok = ok and fast == slow
    report("9d", f"complete-hom shortcut equals the all-subsets definition ({maps_checked} maps, lattices <= 5)", ok)


def test_criterion_9e_gate_continuity_from_neighbourhood_tables():
    pool = [p for _, p in library_lattices(5)]
    kinds = (interval_topology, lower_topology, upper_topology)
    spaces = {id(p): [make(p) for make in kinds] for p in pool}
    ok = True
    maps_checked = discontinuous = 0
    for dom in pool:
        for cod in pool:
            if dom.n <= 3 and cod.n <= 3:
                maps = itertools.product(range(cod.n), repeat=dom.n)
            else:
                maps = iter_monotone_maps(dom, cod)
            for mapping in maps:
                maps_checked += 1
                for t_dom, t_cod in itertools.product(spaces[id(dom)], spaces[id(cod)]):
                    fast = is_continuous(mapping, t_dom, t_cod)
                    ok = ok and fast == naive_is_continuous(mapping, t_dom, t_cod)
                    discontinuous += not fast
    ok = ok and discontinuous > 0
    report(
        "9e",
        f"continuity from neighbourhood tables equals the closed-family definition "
        f"({maps_checked} maps x 9 topology pairs, {discontinuous} discontinuous, lattices <= 5)",
        ok,
    )


def _limit_cases() -> list:
    """Every filter of the posets <= 4 and the library lattices <= 8, with
    its order-limit and star-limit masks by the per-point definitions."""
    cases = []
    for p in list(all_posets_up_to(4)) + [p for _, p in library_lattices(8)]:
        for gen in range(1, p.full_mask + 1):
            f = SetFilter(p, gen)
            order = mask_of(x for x in range(p.n) if naive_order_converges(f, x))
            star = mask_of(x for x in range(p.n) if naive_star_converges(f, x))
            cases.append((p, gen, order, star))
    return cases


def _pointlike_posets() -> list:
    """Every labelled poset on 5 points and 200 seeded random posets on
    6-10 points, lattices or not."""
    rng = Random(19)
    return list(all_posets(5)) + [random_poset(rng.randint(6, 10), rng) for _ in range(200)]


def _limits_gate(cases, posets) -> bool:
    """True when the limit route and the pointlike check, read through the
    filters module (so a mutant patched in is the one run), give the
    order and star masks of every case and pass on every poset."""
    return all(filters_mod.limit_mask(p, gen) == order == star for p, gen, order, star in cases) and all(
        filters_mod.order_convergence_is_pointlike(p) for p in posets
    )


_CLOSED_FORM = "return 0 if gen & (gen - 1) else gen"
# (mutant, function, code replaced, replacement)
LIMIT_MUTANTS = [
    ("points converge nowhere", "limit_mask", _CLOSED_FORM, "return 0"),
    ("every generator converges to itself", "limit_mask", _CLOSED_FORM, "return gen"),
    ("lowest bit of any generator", "limit_mask", _CLOSED_FORM, "return gen & -gen"),
    (
        "pointlike check without the supremum comparison", "order_convergence_is_pointlike",
        "x is not None and x == p.supremum_mask(p.lower_bounds_mask(gen))", "x is not None",
    ),
    # only a poset that is not a lattice has a generator with neither bound
    ("pointlike check equating two missing bounds", "order_convergence_is_pointlike", "x is not None and ", ""),
]


def test_criterion_9f_gate_one_limit_per_filter(monkeypatch):
    cases, posets = _limit_cases(), _pointlike_posets()
    singletons = sum(not gen & (gen - 1) for _, gen, _, _ in cases)
    non_lattices = sum(not p.certificate.is_lattice for p in posets)
    ok = _limits_gate(cases, posets) and (len(cases), singletons, len(posets)) == (4785, 1029, 4431)
    # the star oracle the convergence sweeps of gate 7 read agrees with the per-point one
    ok = ok and all(star_limits_by_subsets(p, gen) == star for p, gen, _, star in cases)
    missed, _ = _seeded_mutants(monkeypatch, filters_mod, LIMIT_MUTANTS, lambda: _limits_gate(cases, posets))
    ok = ok and not missed
    report(
        "9f",
        f"a filter converges, in order and in star, exactly to its one-point generator: the closed form equals "
        f"the per-point definitions on {len(cases)} filters ({singletons} point filters; posets <= 4, library "
        f"lattices <= 8), and the definitional pointlike check passes on {len(posets)} posets ({non_lattices} "
        f"not lattices; every poset on 5 points, seeded random on 6-10); seeded mutants "
        f"({', '.join(m[0] for m in LIMIT_MUTANTS)}) missed: {', '.join(missed) or 'none'}",
        ok,
    )


def test_criterion_9g_gate_subset_tables():
    ok = True
    posets = masks = maps = 0
    for n in range(1, 6):
        for p in all_posets(n):
            posets += 1
            # the enumeration hands over its up rows; they must be the transpose
            p._validate()
            ok = ok and Poset(p.labels, p.down).up == p.up
            upper = subset_intersection_table(p.up, p.full_mask)
            down_cl, up_cl = subset_union_table(p.down), subset_union_table(p.up)
            ok = ok and len(upper) == len(down_cl) == len(up_cl) == 1 << n
            for m in range(1 << n):
                masks += 1
                s = members_of(m)
                ok = ok and upper[m] == mask_from(naive_upper_bounds(p, s))
                ok = ok and down_cl[m] == mask_from(naive_down_closure(p, s))
                ok = ok and up_cl[m] == mask_from(naive_up_closure(p, s))
    for a, b in itertools.product(range(1, 5), repeat=2):
        for mapping in itertools.product(range(b), repeat=a):
            maps += 1
            images = _image_table(mapping)
            ok = ok and len(images) == 1 << a
            ok = ok and all(images[m] == mask_from(naive_image(mapping, members_of(m))) for m in range(1 << a))
    ok = ok and (posets, maps) == (4473, 494)
    report(
        "9g",
        f"subset tables (upper bounds, down/up closures) equal per-mask definitions on {posets} posets "
        f"<= 5 ({masks} masks), enumerated up rows are the transposes, image tables agree on {maps} maps "
        "between carriers <= 4",
        ok,
    )


def _gate_9h_lattices():
    """Library lattices with up to five elements and seeded random ones."""
    return [p for _, p in library_lattices(5)] + [random_lattice(4 + i % 2, 4100 + i) for i in range(6)]


def test_criterion_9h_a_gate_pruned_hom_search():
    pool = _gate_9h_lattices()
    ok = True
    maps_checked = homs = 0
    for dom in pool:
        for cod in pool:
            by_level = {level: set() for level in Classification}
            for mapping in itertools.product(range(cod.n), repeat=dom.n):
                maps_checked += 1
                by_level[classify(mapping, dom, cod).classification].add(mapping)
            at_least = {
                level: set().union(*(by_level[k] for k in Classification if k >= level)) for level in by_level
            }
            found = [h.mapping for h in enumerate_homs(dom, cod)]
            ok = ok and len(found) == len(set(found)) and set(found) == at_least[Classification.COMPLETE_HOM]
            # unpinned, the search yields exactly the lattice homs
            pruned = list(_search(dom, cod, [cod.full_mask] * dom.n))
            ok = ok and len(pruned) == len(set(pruned)) and set(pruned) == at_least[Classification.LATTICE_HOM]
            homs += len(found) + len(pruned)
            monotone = list(iter_monotone_maps(dom, cod))
            ok = ok and len(monotone) == len(set(monotone))
            ok = ok and set(monotone) == at_least[Classification.ORDER_PRESERVING]
    report(
        "9h(a)",
        f"unpinned hom search yields exactly the brute-force lattice homs and enumerate_homs exactly "
        f"the brute-force complete homs, monotone backtracking equals the monotone maps "
        f"({maps_checked} maps, {homs} homs, {len(pool)} lattices <= 5)",
        ok,
    )


def test_criterion_9h_b_gate_preimage_scan_by_lookup():
    pool = _gate_9h_lattices()
    homs = [classify(m, dom, cod) for dom in pool for cod in pool for m in iter_monotone_maps(dom, cod)]
    homs.append(collapse_to_two())
    ok = True
    failures = 0
    for h in homs:
        for principal in (False, True):
            scan = preimage_scan(h, principal_only=principal)
            checked, interval, failure = naive_preimage_scan(h.mapping, h.domain, h.codomain, principal)
            ok = ok and scan.intervals_checked == checked and scan.failure_interval == interval
            ok = ok and scan.all_interval_or_empty == (failure is None)
            if failure is not None:
                failures += 1
                rep = scan.failure
                got = (rep.kind, rep.low, rep.high, members_of(rep.preimage), rep.missing)
                ok = ok and got == failure
    ok = ok and failures > 0
    report(
        "9h(b)",
        f"preimage scan by lookup equals the per-interval definition on {len(homs)} monotone maps "
        f"(full and principal scans, {failures} failing)",
        ok,
    )


def _complete_homs_on_prop_2_1_pool() -> tuple[int, int, int]:
    """``(homs, duplicates, not complete)`` over every pair of the default
    prop-2-1 pool at --trials 10 --seed 0: the homs enumerate_homs returns,
    repeats within a pair, and those classify does not call complete."""
    pool = _lattice_pool(CampaignSpec("prop-2-1", CAMPAIGNS["prop-2-1"].default_limit, 10, 0))
    homs = duplicates = not_complete = 0
    for dom in pool:
        for cod in pool:
            found = [h.mapping for h in morph_mod.enumerate_homs(dom, cod)]
            homs += len(found)
            duplicates += len(found) - len(set(found))
            levels = [classify(m, dom, cod).classification for m in found]
            not_complete += sum(level != Classification.COMPLETE_HOM for level in levels)
    return homs, duplicates, not_complete


# (mutant, function, code replaced, replacement)
HOM_SEARCH_MUTANTS = [
    ("no top pin", "enumerate_homs", "pins[domain.top] &= 1 << codomain.top", "pass"),
    ("no join constraint", "_search", "allowed &= 1 << join_c[values[a]][values[b]]", "pass"),
    # keeps every meet pair of a domain but its first
    ("one meet pair dropped", "_search", "meets[x].append(", "any(meets) and meets[x].append("),
]


def test_criterion_9h_c_gate_complete_homs_from_search(monkeypatch):
    """enumerate_homs builds its homs as complete without classifying
    them; classify must agree on every one, and the gate must catch
    seeded mutants of the search."""
    ok = _complete_homs_on_prop_2_1_pool() == (5451, 0, 0)
    missed, _ = _seeded_mutants(
        monkeypatch, morph_mod, HOM_SEARCH_MUTANTS, lambda: _complete_homs_on_prop_2_1_pool()[2] == 0
    )
    ok = ok and not missed
    report(
        "9h(c)",
        f"classify calls all 5,451 homs enumerate_homs returns on the default prop-2-1 pool (--trials 10) "
        f"complete, none repeated; seeded search mutants ({', '.join(m[0] for m in HOM_SEARCH_MUTANTS)}) "
        f"missed: {', '.join(missed) or 'none'}",
        ok,
    )


def test_criterion_9h_d_gate_join_prime_distributivity():
    pool = [p for n in range(1, 7) for p in all_lattices(n)]
    pool += [boolean_power(6), product([boolean_power(3), boolean_power(3)]), chain(64)]
    ok = len(pool) == 6815 + 3
    non_distributive = 0
    for p in pool:
        fast = p.certificate.is_distributive
        ok = ok and fast == naive_is_distributive(p)
        non_distributive += not fast
    ok = ok and non_distributive > 0
    report(
        "9h(d)",
        f"join-prime distributivity equals the triple law on {len(pool)} lattices "
        f"(all labelled lattices <= 6, 2^6, 2^3x2^3, chain64; {non_distributive} not distributive)",
        ok,
    )


_BREADTH_SIZES = "len(rows)))), 1)"
_BREADTH_DROPS = "dropped = (*(d & row for d in drops), lower)"
# (mutant, function, code replaced, replacement)
BREADTH_MUTANTS = [
    ("join-irreducibles", "_meet_irreducible_breadth", "enumerate(lattice.up) if row ^ (1 << m) in ups",
     "enumerate(lattice.down) if row ^ (1 << m) in set(lattice.down)"),
    ("only the new member's drop checked", "_irredundant_sets", _BREADTH_DROPS, "dropped = (lower,)"),
    ("growth stopped one size early", "_meet_irreducible_breadth", _BREADTH_SIZES, "len(rows) - 1))), 1)"),
    ("no floor at 1", "_meet_irreducible_breadth", _BREADTH_SIZES, "len(rows)))), 0)"),
    # the witness: the first irredundant set of its size in combinations order
    ("children visited in reverse index order", "_irredundant_sets", "for i in range(start, len(rows)):",
     "for i in reversed(range(start, len(rows))):"),
    ("the new member's own drop unchecked", "_irredundant_sets", _BREADTH_DROPS,
     "dropped = tuple(d & row for d in drops)"),
    ("a set one short returned", "has_breadth_at_most", "members.bit_count() > n", "members.bit_count() >= n"),
]
# the top's down row is the whole carrier, so adding it never changes a
# set's lower bounds and it joins no irredundant set: the mutant must survive
BREADTH_EQUIVALENT = [
    ("at most one upper cover", "_meet_irreducible_breadth", "if row ^ (1 << m) in ups",
     "if row ^ (1 << m) in ups or row == 1 << m"),
]


def _breadth_agrees(pool, expected) -> bool:
    """compute_breadth gives the expected (breadth, witness) on every
    lattice of the pool, stopping at the first that differs."""
    return all((r.breadth, r.witness) == e for r, e in zip(map(compute_breadth, pool), expected))


def test_criterion_9i_gate_meet_irreducible_breadth(monkeypatch):
    """compute_breadth reads the breadth off the meet-irreducibles and the
    witness off the same walk over the carrier; it must give the breadth
    and witness of the loop over the bounds, on the oracles' subset scan,
    on every labelled lattice with up to six elements and every library
    lattice, the literal breadth on the classes, and catch seeded mutants
    of the walk and its two readers."""
    pool = [p for n in range(1, 7) for p in all_lattices(n)] + [p for _, p in library_lattices(20)]
    expected = [breadth_by_bounds(p) for p in pool]
    ok = len(pool) == 6835 and _breadth_agrees(pool, expected)
    reps = iso_representatives([p for n in range(1, 7) for p in all_lattices(n)])
    ok = ok and all(compute_breadth(p).breadth == breadth_literal(p) for p in reps)
    # compute_breadth raises AssertionError when it finds no irredundant witness
    missed, survived = _seeded_mutants(
        monkeypatch, breadth_mod, BREADTH_MUTANTS, lambda: _breadth_agrees(pool, expected), BREADTH_EQUIVALENT,
        caught=(AssertionError,),
    )
    ok = ok and not missed and len(survived) == len(BREADTH_EQUIVALENT)
    report(
        "9i",
        f"breadth by meet-irreducibles equals the loop over the bounds (breadth and witness) on {len(pool)} "
        f"lattices and the literal breadth on {len(reps)} classes (<= 6); seeded mutants "
        f"({', '.join(m[0] for m in BREADTH_MUTANTS)}) missed: {', '.join(missed) or 'none'}; equivalent, "
        f"surviving: {', '.join(survived) or 'none'}",
        ok,
    )


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
        f"table fact-1-1 equals the per-pair upper_iff_downset loop on {posets} posets (<= 5, 30 of 6; "
        f"{runs} runs, {failing} on spoiled tables failing), table lemma-3 equals the per-pair "
        f"check_image_filter_inclusion loop on {maps} maps between carriers <= 4 ({map_runs} runs, "
        f"{map_failing} failing)",
        ok,
    )


def _rows_digest(posets):
    h = hashlib.sha256()
    for p in posets:
        h.update(repr((p.labels, p.down, p.up)).encode())
    return h.hexdigest()


# the census order, which the exhaustive campaigns and their pinned
# outputs follow; recorded on the per-poset certificate route
ALL_POSETS_1_TO_6_SHA256 = "6b252ef1734d70a3ede6af24963e81ccc09c7529df06eb271a2032e573e889ed"
LATTICE_CLASSES_6_SHA256 = "f8a39bad2ea08b977706b3e946fedf5ef696070beabea7b646bf756fe670c321"


# non-isomorphic pairs with equal (down, up) count profiles on 6 and 7
# points, where a test of the up rows alone, or of the down rows alone,
# finds a bijection
PROFILE_TWINS = (
    (1, 3, 4, 12, 29, 36),
    (1, 2, 5, 15, 18, 34),
    (1, 2, 5, 8, 26, 42, 65),
    (1, 2, 7, 8, 26, 40, 65),
)


def _profile_twins() -> list[Poset]:
    return [Poset([str(i) for i in range(len(down))], down) for down in PROFILE_TWINS]


def test_criterion_9k_gate_lattice_census():
    ok = True
    bounded = [p for p in all_posets(6) if p.full_mask in p.up and p.full_mask in p.down]
    pool = list(all_posets_up_to(5)) + bounded
    lattices = 0
    for p in pool:
        literal = is_lattice_literal(p)
        ok = ok and _is_lattice(p.down, p.up) == literal == p.certificate.is_lattice
        lattices += literal
    ok = ok and (len(bounded), lattices) == (6570, 1 + 2 + 6 + 36 + 380 + 6390)

    # plus the profile twins
    small = list(all_posets_up_to(4)) + _profile_twins()
    pairs = isomorphic = 0
    for a in small:
        perms = relabelings(a)
        for b in small:
            pairs += 1
            fast = are_order_isomorphic(a, b)
            ok = ok and fast == are_isomorphic_brute_force(a, b, perms)
            isomorphic += fast
    # 242 posets in 1 + 2 + 5 + 16 classes; a class of k labelled posets gives
    # k^2 isomorphic pairs: 1 on one point, 1 + 4 on two, 91 on three, 3,957
    # on four; each of the four larger posets is isomorphic only to itself
    ok = ok and (pairs, isomorphic) == (246 * 246, 4054 + 4)

    ok = ok and _rows_digest(p for n in range(1, 7) for p in all_posets(n)) == ALL_POSETS_1_TO_6_SHA256
    ok = ok and _rows_digest(iso_representatives(all_lattices(6))) == LATTICE_CLASSES_6_SHA256
    report(
        "9k",
        f"row lattice test and certificate equal the pairwise sup/inf definition on {len(pool)} posets "
        f"(<= 5 and the 6,570 bounded ones on 6; {lattices} lattices), bit-level isomorphism equals "
        f"brute-force permutation on {pairs} pairs of posets <= 4 and four on 6-7 points "
        f"({isomorphic} isomorphic), and "
        "all_posets(1..6) rows and the 6-point lattice representatives match their pinned digests",
        ok,
    )


def _box_rows_cases():
    """The inputs of gate 9m with their expected rows, from the oracles:
    ordered pairs of library posets with at most 64 elements in their
    product plus seeded random triples; the n-bit lattices for n <= 6; the
    interval, lower and upper topologies of the library pairs."""
    library = [p for _, p in library_posets(64)]
    rng = Random(1313)
    factor_lists = [[a, b] for a in library for b in library if a.n * b.n <= 64]
    factor_lists += [[random_poset(rng.randint(1, 4), rng) for _ in range(3)] for _ in range(20)]
    products = [
        (factors, naive_product_rows([p.down for p in factors]), naive_product_rows([p.up for p in factors]))
        for factors in factor_lists
    ]
    powers = [
        (n, [sum(1 << i for i in range(1 << n) if i & j == i) for j in range(1 << n)],
         [sum(1 << i for i in range(1 << n) if i & j == j) for j in range(1 << n)])
        for n in range(1, 7)
    ]
    topologies = []
    for make in (interval_topology, lower_topology, upper_topology):
        for a, b in itertools.combinations_with_replacement(library, 2):
            if a.n * b.n <= 64:
                factors = [make(a), make(b)]
                expected = topo_mod.from_open_subbasis(a.n * b.n, projection_preimages(factors))
                topologies.append((factors, expected))
    return products, powers, topologies


def _box_rows_gate(cases) -> bool:
    """True when the product routes, read through their modules (so a
    mutant patched in is the one run), give the oracle rows on every case."""
    products, powers, topologies = cases
    for factors, down, up in products:
        p = core_mod.product(factors)
        if (list(p.down), list(p.up)) != (down, up):
            return False
    for n, down, up in powers:
        p = core_mod.boolean_power(n)
        if (list(p.down), list(p.up)) != (down, up):
            return False
    return all(topo_mod.product_topology(factors) == expected for factors, expected in topologies)


# (mutant, function, code replaced, replacement)
BOX_ROWS_MUTANTS = [
    ("first factor fastest", "_box_rows", "for table in factor_rows:", "for table in reversed(factor_rows):"),
    (
        "widen and tile swapped", "_box_rows",
        "for row in rows]\n        tiled = [row * ones for row in table]",
        "for row in table]\n        tiled = [row * ones for row in rows]",
    ),
    (
        "up rows taken from down rows", "product",
        "_box_rows([p.up for p in posets])", "_box_rows([p.down for p in posets])",
    ),
    ("one factor dropped", "_box_rows", "for table in factor_rows:", "for table in factor_rows[1:]:"),
    (
        "chain rows swapped", "boolean_power",
        "_box_rows([(0b01, 0b11)] * n), _box_rows([(0b11, 0b10)] * n)",
        "_box_rows([(0b11, 0b10)] * n), _box_rows([(0b01, 0b11)] * n)",
    ),
]


def test_criterion_9m_gate_box_rows(monkeypatch):
    """product, boolean_power and product_topology share one box-row
    routine, so both sides of the product lemma run through it; each use
    is compared with an oracle that shares no code with it, and the gate
    must catch seeded mutants of the routine and its callers."""
    cases = _box_rows_cases()
    products, powers, topologies = cases
    ok = _box_rows_gate(cases)
    ok = ok and (len(products), len(powers), len(topologies)) == (353 + 20, 6, 3 * 185)

    # the trusted constructor derives the transpose the validating one does
    pool = list(all_posets_up_to(4)) + [random_poset(8, Random(1314 + i)) for i in range(20)]
    pool += [core_mod.product(factors) for factors, _, _ in products[:40]]
    for p in pool:
        up = Poset._from_rows(p.labels, p.down).up
        ok = ok and up == Poset(p.labels, p.down).up == naive_transpose(p.down) == p.up

    # a mutant that raises, e.g. on a neighbourhood table of the wrong size, is caught
    missed, _ = _seeded_mutants(
        monkeypatch, core_mod, BOX_ROWS_MUTANTS, lambda: _box_rows_gate(cases), caught=(ValueError, IndexError)
    )
    ok = ok and not missed
    report(
        "9m",
        f"box rows equal the pointwise pair loop for {len(products)} products (library pairs <= 64 points "
        f"and 20 seeded triples <= 4), i & j == i for 2^1..2^6, and from_open_subbasis of the projection "
        f"preimages for {len(topologies)} product topologies; the trusted constructor transposes as the "
        f"validating one on {len(pool)} posets; seeded mutants "
        f"({', '.join(m[0] for m in BOX_ROWS_MUTANTS)}) missed: {', '.join(missed) or 'none'}",
        ok,
    )


# the 318 classes of 6-point posets (OEIS A000112), recorded with the
# pairwise route (oracles.iso_representatives_pairwise)
POSET_CLASSES_6_SHA256 = "c7d6a87ff7596bd3e8888c6276f7a347a9cb692a22bc44194f8de41c95aa613c"


def _census_cases() -> list[tuple[list[Poset], list[Poset]]]:
    """The pools of gate 9n with their pairwise representatives: the
    posets on 1-5 points and the lattices on 1-6 points by size, the
    profile twins, and seeded random posets on 7-9 points shuffled with
    seeded relabellings of themselves."""
    pools = [list(all_posets(n)) for n in range(1, 6)] + [list(all_lattices(n)) for n in range(1, 7)]
    pools.append(_profile_twins() + [relabelled(p, [*range(1, p.n), 0]) for p in _profile_twins()])
    rng = Random(1414)
    for _ in range(8):
        pool = []
        for _ in range(6):
            p = random_poset(rng.randint(7, 9), rng)
            pool += [p] + [relabelled(p, rng.sample(range(p.n), p.n)) for _ in range(3)]
        rng.shuffle(pool)
        pools.append(pool)
    return [(pool, iso_representatives_pairwise(pool)) for pool in pools]


def _census_gate(cases) -> bool:
    """True when the census read through the catalog module (so a mutant
    patched in is the one run) has the labelled poset counts of OEIS
    A001035 and the rows, in census order, of the posets on 1-5 points in
    the first five pools (built before any mutant, and pinned by gate 9k),
    and iso_representatives keeps the pairwise representatives, in their
    order, on every pool."""
    census = [catalog_mod.all_posets(n) for n in range(1, 6)]
    if [len(family) for family in census] != [1, 3, 19, 219, 4231]:
        return False
    if _rows_digest(p for family in census for p in family) != _rows_digest(p for pool, _ in cases[:5] for p in pool):
        return False
    return all(
        [(p.labels, p.down) for p in catalog_mod.iso_representatives(pool)]
        == [(p.labels, p.down) for p in expected]
        for pool, expected in cases
    )


# (mutant, function, code replaced, replacement)
CENSUS_MUTANTS = [
    ("code is the sorted profile", "_normal_code", "return tuple(code)", "return tuple(sorted(profile))"),
    (
        "no confirm on a miss", "iso_representatives",
        "if not any(are_order_isomorphic(p, q) for q in kept):", "if True:",
    ),
    (
        "bisect_left in the extension", "_extend_posets",
        "bisect_right(up_sets, allowed)", "__import__('bisect').bisect_left(up_sets, allowed)",
    ),
    # the same posets in another order: only the rows digest sees it
    ("down-sets in up-set order", "_extend_posets", "reversed(up_sets)", "up_sets"),
    ("allowed keeps d", "_extend_posets", "upper_bounds[d] & outside", "upper_bounds[d]"),
]


def test_criterion_9n_gate_memoised_census(monkeypatch):
    """iso_representatives skips a poset whose normal code it has seen and
    confirms a new code with are_order_isomorphic; it must keep the
    posets, in the order, that the pairwise route keeps.  The extension
    scans only the up-sets up to the allowed one, and reads the down-sets
    as the complements of the up-sets, walked in descending order.  The
    gate must catch seeded mutants of both."""
    cases = _census_cases()
    ok = _census_gate(cases)
    ok = ok and len(cases) == 5 + 6 + 1 + 8 and sum(len(pool) for pool, _ in cases) == 4473 + 6815 + 8 + 8 * 24
    classes = iso_representatives(all_posets(6))
    ok = ok and len(classes) == 318 and _rows_digest(classes) == POSET_CLASSES_6_SHA256

    missed, _ = _seeded_mutants(monkeypatch, catalog_mod, CENSUS_MUTANTS, lambda: _census_gate(cases))
    ok = ok and not missed
    report(
        "9n",
        f"iso_representatives by normal code keeps the pairwise representatives in order on the posets "
        f"<= 5, the lattices <= 6, the profile twins and {8 * 24} seeded posets on 7-9 points with their "
        f"relabellings; the 318 classes of 6-point posets match their pinned digest; seeded mutants "
        f"({', '.join(m[0] for m in CENSUS_MUTANTS)}) missed: {', '.join(missed) or 'none'}",
        ok,
    )


def test_criterion_10_campaign_determinism():
    def run(args):
        return subprocess.run(
            [sys.executable, "-m", "ordlab", *args], capture_output=True, text=True
        )

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
