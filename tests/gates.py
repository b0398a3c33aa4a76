"""The oracle gates as data: one row per shortcut.

A row holds the ordlab module and the production names its gate reads
through that module (so a mutant patched into it is the code that runs),
the oracles of ``oracles`` it is compared with, the pools with their
oracle answers, the comparison and its pinned result, the seeded mutants
it must catch, the equivalent ones that must survive, and the campaigns
that call each name.  ``test_acceptance`` runs every row with one runner.
The lattice pools several rows read are cached until ``release_pools``.
"""

from __future__ import annotations

import hashlib
import importlib
import itertools
from functools import cache
from random import Random
from types import ModuleType
from typing import Callable, NamedTuple, Optional

import oracles
from ordlab import breadth as breadth_mod
from ordlab import campaigns as campaigns_mod
from ordlab import catalog as catalog_mod
from ordlab import filters as filters_mod
from ordlab import morphisms as morph_mod
from ordlab import order_core as core_mod
from ordlab import topology as topo_mod
from ordlab.campaigns import CAMPAIGNS, CampaignSpec
from ordlab.catalog import all_lattices, all_posets, all_posets_up_to, library_lattices, library_posets, random_poset
from ordlab.errors import MalformedInputError
from ordlab.order_core import Poset, mask_of
from oracles import mask_from, members_of

COMPLETE_HOM = morph_mod.Classification.COMPLETE_HOM
HOM_CAMPAIGNS = ("lemma-2", "prop-2-1", "star-preservation")


class Gate(NamedTuple):
    num: str  # the gate id in its PASS line
    test: str  # the acceptance test that runs the row
    module: ModuleType  # the mutants replace functions of this module
    names: tuple[str, ...]  # attribute paths in ``module``, or in the ordlab module they start with
    oracles: tuple[str, ...]  # names in tests/oracles.py
    cases: Callable[[], object]  # the pools with the oracles' answers
    survey: Callable[[object], tuple]  # the comparison, run as shipped and under every mutant
    pinned: tuple  # survey + once as shipped
    line: str  # the PASS line, formatted with survey + once
    once: Callable[[object], tuple] = lambda cases: ()  # more checks, run as shipped only
    mutants: tuple = ()  # (label, function of module, code replaced, replacement)
    equivalent: tuple = ()  # mutants that must survive, in the same form
    caught: tuple = ()  # exceptions that count as catching a mutant
    campaigns: Optional[dict] = None  # name -> the campaigns that call it at small arguments


def production(row: Gate, name: str) -> object:
    """``name`` in the row's module, or in the ordlab module its first part
    names when the row's module has no such attribute."""
    head, *rest = name.split(".")
    obj = getattr(row.module, head, None) or importlib.import_module(f"ordlab.{head}")
    for attr in rest:
        obj = getattr(obj, attr)
    return obj


def agree(route, cases) -> bool:
    """``route(*args)`` is ``expected`` on every case ``(*args, expected)``."""
    return all(route(*args) == expected for *args, expected in cases)


@cache
def _lattices_to_6() -> tuple[Poset, ...]:
    return tuple(p for n in range(1, 7) for p in all_lattices(n))


@cache
def _lattice_classes() -> tuple[Poset, ...]:
    """The 25 lattice classes with up to six elements."""
    return tuple(catalog_mod.iso_representatives(_lattices_to_6()))


@cache
def _library_lattices_5() -> tuple[Poset, ...]:
    return tuple(p for _, p in library_lattices(5))


@cache
def _gate_9h_lattices() -> tuple[Poset, ...]:
    """Library lattices with up to five elements and seeded random ones."""
    return _library_lattices_5() + tuple(catalog_mod.random_lattice(4 + i % 2, 4100 + i) for i in range(6))


@cache
def _breadth_table() -> tuple:
    """Every labelled lattice with up to six elements and every library
    lattice, with the breadth, witness and violations of the loop over the
    bounds."""
    pool = [*_lattices_to_6(), *(p for _, p in library_lattices(20))]
    return tuple((p, oracles.breadth_by_bounds(p)) for p in pool)


def release_pools() -> None:
    """Drop the shared pools: held for the rest of a session, they slow every later garbage collection."""
    for pool in (_lattices_to_6, _lattice_classes, _library_lattices_5, _gate_9h_lattices, _breadth_table):
        pool.cache_clear()


def rows_digest(posets) -> str:
    h = hashlib.sha256()
    for p in posets:
        h.update(repr((p.labels, p.down, p.up)).encode())
    return h.hexdigest()


# non-isomorphic pairs with equal (down, up) count profiles on 6 and 7
# points, where a test of the up rows alone, or of the down rows alone,
# finds a bijection
PROFILE_TWINS = ((1, 3, 4, 12, 29, 36), (1, 2, 5, 15, 18, 34), (1, 2, 5, 8, 26, 42, 65), (1, 2, 7, 8, 26, 40, 65))


def profile_twins() -> list[Poset]:
    return [Poset([str(i) for i in range(len(down))], down) for down in PROFILE_TWINS]


def _convergence_cases():
    """The library lattices <= 5; the lattices of the hom campaigns' pools
    at their default limits and at --trials 10, on seeds 0 and 7; and the
    complete homs between the library lattices with the order and star
    reports of the sweep over every filter, limits taken by definition."""
    pool = _library_lattices_5()
    pooled = [
        p for name in HOM_CAMPAIGNS for trials in (0, 10) for seed in (0, 7)
        for p in campaigns_mod._lattice_pool(CampaignSpec(name, CAMPAIGNS[name].default_limit, trials, seed))
    ]
    sweeps = (oracles.order_limits_definitional, oracles.star_limits_by_subsets)
    homs = [
        (hom, *(oracles.all_filter_limit_sweep(hom, limits) for limits in sweeps))
        for dom in pool for cod in pool for hom in morph_mod.enumerate_homs(dom, cod)
    ]
    return pool, pooled, homs


def _sweep_outcomes(homs) -> tuple[int, int]:
    """``(wrong, raised)``: the homs on which the point-filter sweeps fail
    or differ from the sweeps over every filter, and those on which they
    raise the generator range check instead of reporting."""
    wrong = raised = 0
    for hom, order, star in homs:
        try:
            wrong += not (
                order.passed and star.passed
                and morph_mod.check_image_convergence(hom) == order and morph_mod.check_star_preservation(hom) == star
            )
        except MalformedInputError:  # an image generator outside the poset read
            raised += 1
    return wrong, raised


def _degeneracy(cases) -> tuple:
    """The range checks raised as shipped, and the degeneracy law the sweeps
    rest on: limits are pointlike on the hom campaigns' pool lattices, and
    on the library lattices every filter converges, in order and in star,
    exactly to its one-point generator."""
    pool, pooled, homs = cases
    return (
        _sweep_outcomes(homs)[1],
        len(pooled),
        all(filters_mod.order_convergence_is_pointlike(p) for p in [*pooled, *pool]),
        all(
            oracles.star_limits_by_subsets(p, gen) == (0 if gen & (gen - 1) else gen)
            for p in pooled for gen in range(1, p.full_mask + 1)
        ),
        all(
            filters_mod.star_converges(f, x) == filters_mod.order_converges(f, x) == (gen == 1 << x)
            for p in pool for gen in range(1, p.full_mask + 1) for f in [filters_mod.SetFilter(p, gen)]
            for x in range(p.n)
        ),
    )


def _bound_cases() -> list:
    """Every subset mask of the posets <= 4, the library posets <= 6 and 50
    seeded random posets on 5-6 points, with its upper and lower bounds,
    infimum and supremum by the per-element definitions."""
    rng = Random(99)
    pool = [*all_posets_up_to(4), *(p for _, p in library_posets(6))]
    pool += [random_poset(rng.randint(5, 6), rng) for _ in range(50)]
    bounds = (oracles.naive_upper_bounds, oracles.naive_lower_bounds)
    extrema = (oracles.naive_infimum, oracles.naive_supremum)
    return [
        (p, m, (*(mask_from(bound(p, s)) for bound in bounds), *(extremum(p, s) for extremum in extrema)))
        for p in pool for m in range(p.full_mask + 1) for s in [members_of(m)]
    ]


def _bounds(p: Poset, m: int) -> tuple:
    return p.upper_bounds_mask(m), p.lower_bounds_mask(m), p.infimum_mask(m), p.supremum_mask(m)


def _filter_bounds(cases) -> tuple:
    """A filter's upper and lower sets, the unions over its members, are
    the bounds of its generator."""
    return (all(
        (oracles.filter_upper_definitional(f), oracles.filter_lower_definitional(f)) == expected[:2]
        for p, m, expected in cases if m for f in [filters_mod.SetFilter(p, m)]
    ),)


def _breadth_bound_cases():
    """The lattice classes <= 6, and 2^3 and 2xM3 of breadth 3, with the
    definitions' answer for every n from 1 to the size; n = 0 is refused."""
    pool = [*_lattice_classes(), catalog_mod.named_poset("2^3"), catalog_mod.named_poset("2xM3")]
    return [
        (p, n, (oracles.has_breadth_at_most_literal(p, n), *oracles.breadth_violation_by_combinations(p, n))
         if n else "breadth bound must be positive")
        for p in pool for n in range(p.n + 1)
    ]


def _breadth_bound(p: Poset, n: int) -> object:
    try:
        check = breadth_mod.has_breadth_at_most(p, n)
    except ValueError as exc:
        return str(exc)
    return check.holds, *check


def _breadth_bounds_on_table(cases) -> tuple:
    """The bound for every n on the lattices of the gate 9i table: the scan's
    violation below the breadth, and (True, None) from the breadth up, as
    irredundance is hereditary."""
    table = _breadth_table()
    return len(table), all(
        breadth_mod.has_breadth_at_most(p, n) == ((False, violations[n - 1]) if n < b else (True, None))
        for p, (b, _, violations) in table for n in range(1, p.n + 1)
    )


def _complete_hom_cases():
    """Every map between the lattice classes <= 5, and between the library
    lattices <= 4, with its all-subsets answer."""
    reps = [p for p in _lattice_classes() if p.n <= 5]
    library = [p for _, p in library_lattices(4)]
    return len(reps), len(library), [
        (m, dom, cod, oracles.is_complete_hom_exhaustive(m, dom, cod))
        for pool in (reps, library) for dom in pool for cod in pool
        for m in itertools.product(range(cod.n), repeat=dom.n)
    ]


def _continuity_cases():
    """Every map between library lattices <= 3 and every monotone map
    between those <= 5, with every pair of their interval, lower and upper
    topologies and the closed-family answer."""
    pool = _library_lattices_5()
    kinds = (topo_mod.interval_topology, topo_mod.lower_topology, topo_mod.upper_topology)
    spaces = {id(p): [make(p) for make in kinds] for p in pool}
    maps, cases = 0, []
    for dom, cod in itertools.product(pool, repeat=2):
        small = dom.n <= 3 and cod.n <= 3
        for m in itertools.product(range(cod.n), repeat=dom.n) if small else oracles.iter_monotone_maps(dom, cod):
            maps += 1
            for t_dom, t_cod in itertools.product(spaces[id(dom)], spaces[id(cod)]):
                cases.append((m, t_dom, t_cod, oracles.naive_is_continuous(m, t_dom, t_cod)))
    return maps, cases


def _limit_cases():
    """Every filter of the posets <= 4 and the library lattices <= 8, with
    its order-limit and star-limit masks by the per-point definitions; and
    every poset on 5 points with 200 seeded random posets on 6-10 points."""
    cases = []
    for p in [*all_posets_up_to(4), *(p for _, p in library_lattices(8))]:
        for gen in range(1, p.full_mask + 1):
            f = filters_mod.SetFilter(p, gen)
            limits = [mask_of(x for x in range(p.n) if converges(f, x))
                      for converges in (oracles.naive_order_converges, oracles.naive_star_converges)]
            cases.append((p, gen, *limits))
    rng = Random(19)
    return cases, [*all_posets(5), *(random_poset(rng.randint(6, 10), rng) for _ in range(200))]


def _limits(cases) -> tuple:
    filters, posets = cases
    return (
        len(filters), sum(not gen & (gen - 1) for _, gen, _, _ in filters),
        len(posets), sum(not p.certificate.is_lattice for p in posets),
        all(filters_mod.limit_mask(p, gen) == order == star for p, gen, order, star in filters)
        and all(filters_mod.order_convergence_is_pointlike(p) for p in posets),
    )


_CLOSED_FORM = "return 0 if gen & (gen - 1) else gen"


def _subset_table_cases():
    """Every poset <= 5 with its upper-bounds table, and every map between
    carriers <= 4 with its image table, by the per-mask definitions."""
    sets = [members_of(m) for m in range(1 << 5)]
    posets = [(p, (True, [mask_from(oracles.naive_upper_bounds(p, s)) for s in sets[: p.full_mask + 1]]))
              for p in all_posets_up_to(5)]
    maps = [
        (m, [mask_from(oracles.naive_image(m, members_of(s))) for s in range(1 << a)])
        for a, b in itertools.product(range(1, 5), repeat=2) for m in itertools.product(range(b), repeat=a)
    ]
    return posets, maps


def _subset_tables(p: Poset) -> tuple:
    # the enumeration hands over its up rows; they must be the transpose
    p._validate()
    return core_mod.Poset(p.labels, p.down).up == p.up, core_mod.subset_intersection_table(p.up, p.full_mask)


def _row_union_cases():
    """Every poset <= 5 and 200 seeded random posets on 6-10 points, each
    with its down-sets mapped to their upper bounds, by the per-mask
    definitions; and the interval, lower and upper topologies of the poset
    classes <= 4 with the open family of brute-force generation."""
    rng = Random(16)
    posets = [*all_posets_up_to(5), *(random_poset(rng.randint(6, 10), rng) for _ in range(200))]
    down_sets = [
        (p, {m: mask_from(oracles.naive_upper_bounds(p, members_of(m))) for m in range(p.full_mask + 1)
             if mask_from(oracles.naive_down_closure(p, members_of(m))) == m})
        for p in posets
    ]
    topologies = [
        (make(p), oracles.brute_force_closed_generation(p.n, closed))
        for p in catalog_mod.iso_representatives(all_posets_up_to(4))
        for make, closed in ((topo_mod.interval_topology, p.down + p.up), (topo_mod.lower_topology, p.down),
                             (topo_mod.upper_topology, p.up))
    ]
    return down_sets, topologies


def _brute_levels():
    """Every ordered pair of the gate 9h lattices with the level of each
    monotone map between them by definition: monotone on the comparable
    pairs by scalar ``leq`` queries, a lattice hom by the pairwise test,
    complete by the all-subsets test.  Every other map is not monotone."""
    levels, cases = morph_mod.Classification, []
    for dom, cod in itertools.product(_gate_9h_lattices(), repeat=2):
        pairs = [(x, y) for x in range(dom.n) for y in range(dom.n) if x != y and dom.leq(x, y)]
        found = {}
        for m in itertools.product(range(cod.n), repeat=dom.n):
            if all(cod.leq(m[x], m[y]) for x, y in pairs):
                found[m] = (
                    levels.ORDER_PRESERVING if not oracles.naive_is_lattice_hom(m, dom, cod)
                    else COMPLETE_HOM if oracles.is_complete_hom_exhaustive(m, dom, cod) else levels.LATTICE_HOM
                )
        cases.append((dom, cod, found))
    return cases


def _pruned_search(cases) -> tuple:
    ok, maps, homs, levels = True, 0, 0, morph_mod.Classification
    for dom, cod, found_levels in cases:
        for m in itertools.product(range(cod.n), repeat=dom.n):
            maps += 1
            level = found_levels.get(m, levels.NOT_ORDER_PRESERVING)
            ok = ok and morph_mod.classify(m, dom, cod).classification == level
        at_least = {level: {m for m, k in found_levels.items() if k >= level} for level in levels}
        found = [h.mapping for h in morph_mod.enumerate_homs(dom, cod)]
        # unpinned, the search yields exactly the lattice homs
        pruned = list(morph_mod._search(dom, cod, [cod.full_mask] * dom.n))
        monotone = list(oracles.iter_monotone_maps(dom, cod))
        homs += len(found) + len(pruned)
        for got, level in ((found, COMPLETE_HOM), (pruned, levels.LATTICE_HOM), (monotone, levels.ORDER_PRESERVING)):
            ok = ok and len(got) == len(set(got)) and set(got) == at_least[level]
    return maps, homs, len({id(dom) for dom, _, _ in cases}), ok


def _preimage_cases():
    """Every monotone map between the gate 9h lattices, classified, and the
    stored collapse, with the per-interval answer of the full and the
    principal scan."""
    pool = _gate_9h_lattices()
    homs = [
        morph_mod.classify(m, dom, cod) for dom in pool for cod in pool for m in oracles.iter_monotone_maps(dom, cod)
    ]
    homs.append(oracles.collapse_to_two())
    return [
        (h, principal, (checked, interval, failure is None, failure))
        for h in homs for principal in (False, True)
        for checked, interval, failure in [oracles.naive_preimage_scan(h.mapping, h.domain, h.codomain, principal)]
    ]


def _preimage_scan(h, principal: bool) -> tuple:
    scan = morph_mod.preimage_scan(h, principal_only=principal)
    rep = scan.failure
    failure = None if rep is None else (rep.kind, rep.low, rep.high, members_of(rep.preimage), rep.missing)
    return scan.intervals_checked, scan.failure_interval, scan.all_interval_or_empty, failure


def _prop_2_1_pool() -> list[Poset]:
    """The default prop-2-1 pool at --trials 10."""
    return campaigns_mod._lattice_pool(CampaignSpec("prop-2-1", CAMPAIGNS["prop-2-1"].default_limit, 10, 0))


def _complete_homs_on_pool(pool) -> tuple[int, int, int]:
    """``(homs, duplicates, not complete)`` over every pair of the pool:
    the homs enumerate_homs returns, repeats within a pair, and those
    classify does not call complete."""
    homs = duplicates = not_complete = 0
    for dom, cod in itertools.product(pool, repeat=2):
        found = [h.mapping for h in morph_mod.enumerate_homs(dom, cod)]
        homs += len(found)
        duplicates += len(found) - len(set(found))
        not_complete += sum(morph_mod.classify(m, dom, cod).classification != COMPLETE_HOM for m in found)
    return homs, duplicates, not_complete


def _distributivity_cases():
    pool = [*_lattices_to_6(), core_mod.boolean_power(6), core_mod.product([core_mod.boolean_power(3)] * 2)]
    return [(p, oracles.naive_is_distributive(p)) for p in [*pool, catalog_mod.chain(64)]]


def _breadth_cases():
    """The gate 9i table; the lattice classes <= 6 with their literal breadth."""
    return _breadth_table(), [(p, oracles.breadth_literal(p)) for p in _lattice_classes()]


_BREADTH_SIZES = "len(rows)))), 1)"
_BREADTH_DROPS = "dropped = (*(d & row for d in drops), lower)"
# M(L) misread: both give breadth 2 on 2^3 and 2xM3, whose breadth is 3
_JOIN_IRREDUCIBLES = ("join-irreducibles", "_meet_irreducible_breadth",
                      "enumerate(lattice.up) if row ^ (1 << m) in ups",
                      "enumerate(lattice.down) if row ^ (1 << m) in set(lattice.down)")
_UP_ROWS_WALKED = ("up rows of the meet-irreducibles walked", "_meet_irreducible_breadth", "rows = [lattice.down[m]",
                   "rows = [lattice.up[m]")


def _box_rows_cases():
    """Ordered pairs of library posets with at most 64 elements in their
    product plus seeded random triples, with their pointwise rows; the
    n-bit lattices for n <= 6 with ``i & j == i``; the interval, lower and
    upper topologies of the library pairs with the topology their
    projection preimages generate."""
    library = [p for _, p in library_posets(64)]
    rng = Random(1313)
    factor_lists = [[a, b] for a in library for b in library if a.n * b.n <= 64]
    factor_lists += [[random_poset(rng.randint(1, 4), rng) for _ in range(3)] for _ in range(20)]
    products = [
        (factors, tuple(oracles.naive_product_rows([getattr(p, rows) for p in factors]) for rows in ("down", "up")))
        for factors in factor_lists
    ]
    powers = [
        (n, ([sum(1 << i for i in range(1 << n) if i & j == i) for j in range(1 << n)],
             [sum(1 << i for i in range(1 << n) if i & j == j) for j in range(1 << n)]))
        for n in range(1, 7)
    ]
    topologies = [
        (factors, topo_mod.from_open_subbasis(a.n * b.n, oracles.projection_preimages(factors)))
        for make in (topo_mod.interval_topology, topo_mod.lower_topology, topo_mod.upper_topology)
        for a, b in itertools.combinations_with_replacement(library, 2) if a.n * b.n <= 64
        for factors in [[make(a), make(b)]]
    ]
    return products, powers, topologies


def _rows(p: Poset) -> tuple[list[int], list[int]]:
    return list(p.down), list(p.up)


def _trusted_transposes(cases) -> tuple:
    """The trusted constructor derives the transpose the validating one does."""
    pool = [*all_posets_up_to(4), *(random_poset(8, Random(1314 + i)) for i in range(20))]
    pool += [core_mod.product(factors) for factors, _ in cases[0][:40]]
    return len(pool), all(
        Poset._from_rows(p.labels, p.down).up == Poset(p.labels, p.down).up == oracles.naive_transpose(p.down) == p.up
        for p in pool
    )


# the 318 classes of 6-point posets (OEIS A000112), recorded with the
# pairwise route (oracles.iso_representatives_pairwise)
POSET_CLASSES_6_SHA256 = "c7d6a87ff7596bd3e8888c6276f7a347a9cb692a22bc44194f8de41c95aa613c"


def _census_cases() -> list:
    """The posets on 1-5 points and the lattices on 1-6 points by size, the
    profile twins, and seeded random posets on 7-9 points shuffled with
    seeded relabellings of themselves, with their pairwise
    representatives."""
    pools = [list(all_posets(n)) for n in range(1, 6)] + [list(all_lattices(n)) for n in range(1, 7)]
    pools.append(profile_twins() + [oracles.relabelled(p, [*range(1, p.n), 0]) for p in profile_twins()])
    rng = Random(1414)
    for _ in range(8):
        pool = []
        for _ in range(6):
            p = random_poset(rng.randint(7, 9), rng)
            pool += [p] + [oracles.relabelled(p, rng.sample(range(p.n), p.n)) for _ in range(3)]
        rng.shuffle(pool)
        pools.append(pool)
    return [(pool, [(p.labels, p.down) for p in oracles.iso_representatives_pairwise(pool)]) for pool in pools]


def _census(cases) -> tuple:
    """The census has the labelled poset counts of OEIS A001035 and the rows,
    in census order, of the posets on 1-5 points of the first five pools
    (built as shipped, and pinned by gate 9k), and iso_representatives
    keeps the pairwise representatives, in their order, on every pool."""
    census = [catalog_mod.all_posets(n) for n in range(1, 6)]
    return (
        len(cases), sum(len(pool) for pool, _ in cases), [len(family) for family in census],
        rows_digest(p for family in census for p in family) == rows_digest(p for pool, _ in cases[:5] for p in pool),
        agree(lambda pool: [(p.labels, p.down) for p in catalog_mod.iso_representatives(pool)], cases),
    )


def _class_counts(cases) -> tuple:
    """The class counts of the posets on 1-6 points (OEIS A000112) and of the
    lattices on 1-6 points (OEIS A006966), and the 6-point poset classes'
    digest."""
    classes = catalog_mod.iso_representatives(all_posets(6))
    counts = [len(reps) for _, reps in cases[:11]]
    return [*counts[:5], len(classes)], counts[5:], rows_digest(classes) == POSET_CLASSES_6_SHA256


GATES = (
    Gate("7", "test_criterion_7_convergence_preserved_by_complete_homs", morph_mod,
        ("check_image_convergence", "check_star_preservation", "_limit_sweep", "image_filter"),
        ("all_filter_limit_sweep", "order_limits_definitional", "star_limits_by_subsets"),
        _convergence_cases, lambda cases: (len(cases[2]), _sweep_outcomes(cases[2])[0]),
        (372, 0, 0, 180, True, True, True),
        "order and star convergence preserved by {0} complete homs, point-filter sweeps equal to the all-filter "
        "sweeps ({1} wrong, {2} raising the generator range check); convergence pointlike on {3} hom-campaign pool "
        "lattices, and every filter of the library lattices <= 5 converges exactly to its one-point generator",
        once=_degeneracy,
        # caught only by a wrong report on some hom, not by the generator range check raising
        mutants=(
            ("image on the domain", "image_filter", "image |= 1 << mapping[low.bit_length() - 1]", "image |= low"),
            ("image point read on the domain", "_limit_sweep", "(image_points >> h.mapping[y])", "(image_points >> y)"),
            ("first point skipped", "_limit_sweep", "for x in range(dom.n):", "for x in range(1, dom.n):"),
            ("image generator widened by the bottom", "_limit_sweep", "limit_mask(cod, image_filter(h.mapping, gen))",
             "limit_mask(cod, image_filter(h.mapping, gen) | 1 << cod.bottom)"),
        ),
        # the closed form reads the generator and not the order: a point
        # generator's limit is itself on any poset it lies in, so the mutant
        # reports right or raises the range check
        equivalent=(("image limits read on the domain", "_limit_sweep", "limit_mask(cod, image_filter(h.mapping, gen))",
                     "limit_mask(dom, image_filter(h.mapping, gen))"),),
        campaigns={"check_image_convergence": ("lemma-2",), "check_star_preservation": ("star-preservation",),
                   "_limit_sweep": ("lemma-2", "star-preservation"), "image_filter": ("lemma-2", "star-preservation")},
    ),
    Gate("9b", "test_criterion_9b_gate_upper_set_via_generator", core_mod, ("_bounds_mask", "_spanning_member"),
        ("naive_upper_bounds", "naive_lower_bounds", "naive_infimum", "naive_supremum", "filter_upper_definitional",
         "filter_lower_definitional"),
        _bound_cases, lambda cases: (len(cases), agree(_bounds, cases)), (6196, True, True),
        "bounds, infima and suprema equal the per-element definitions on {0} subset masks, and filter upper/lower "
        "sets equal the definitional unions",
        once=_filter_bounds,
        mutants=(
            ("bound loop starting from no element", "_bounds_mask", "out = full", "out = 0"),
            ("bound loop joining the rows", "_bounds_mask", "out &= rows[", "out |= rows["),
            ("scan returning the first bound untested", "_spanning_member", "if not bounds & ~rows[x]:", "if True:"),
        ),
        campaigns={"_bounds_mask": ("breadth-2n",), "_spanning_member": ("breadth-2n",)},
    ),
    Gate("9c", "test_criterion_9c_gate_breadth_reduction", breadth_mod,
        ("has_breadth_at_most", "_meet_irreducible_breadth", "_first_irredundant", "_irredundant_sets"),
        ("has_breadth_at_most_literal", "breadth_violation_by_combinations"),
        _breadth_bound_cases, lambda cases: (len({id(p) for p, *_ in cases}), agree(_breadth_bound, cases)),
        (27, True, 6835, True),
        "breadth bound decided on the meet-irreducibles agrees with the definition on {0} lattices (the classes "
        "<= 6, 2^3 and 2xM3) for every n from 1, refuses n = 0, and its counterexample is the first irredundant "
        "(n+1)-subset of the scan in combinations order, also for every n on the {2} lattices of the gate 9i table",
        once=_breadth_bounds_on_table,
        mutants=(
            ("sets of at most n members walked", "_first_irredundant", "lattice.full_mask, size)",
             "lattice.full_mask, size - 1)"),
            ("bound one too generous", "has_breadth_at_most", "_meet_irreducible_breadth(lattice) <= n",
             "_meet_irreducible_breadth(lattice) <= n + 1"),
            ("bound read strictly", "has_breadth_at_most", "_meet_irreducible_breadth(lattice) <= n",
             "_meet_irreducible_breadth(lattice) < n"),
            ("growth stopped one size early", "_meet_irreducible_breadth", _BREADTH_SIZES, "len(rows) - 1))), 1)"),
            _JOIN_IRREDUCIBLES,
            _UP_ROWS_WALKED,
            ("n = 0 let through", "has_breadth_at_most", "if n < 1:", "if n < 0:"),
        ),
        campaigns={name: ("breadth-2n",) for name in ("_meet_irreducible_breadth", "_first_irredundant",
                                                     "_irredundant_sets")},
    ),
    Gate("9d", "test_criterion_9d_gate_complete_hom_shortcut", morph_mod, ("classify",),
        ("is_complete_hom_exhaustive",), _complete_hom_cases,
        lambda cases: (*cases[:2], len(cases[2]),
                       agree(lambda *m: morph_mod.classify(*m).classification == COMPLETE_HOM, cases[2])),
        (10, 6, 98214 + 2906, True),
        "complete-hom shortcut equals the all-subsets definition ({2} maps, {0} lattice classes <= 5 and {1} "
        "library lattices <= 4)",
        mutants=(("complete without the top compared", "classify",
                  "m[domain.bottom] == codomain.bottom and m[domain.top] == codomain.top",
                  "m[domain.bottom] == codomain.bottom"),),
    ),
    Gate("9e", "test_criterion_9e_gate_continuity_from_neighbourhood_tables", morph_mod, ("is_continuous",),
        ("naive_is_continuous", "iter_monotone_maps"),
        _continuity_cases,
        lambda cases: (cases[0], sum(not c[-1] for c in cases[1]), agree(morph_mod.is_continuous, cases[1])),
        (3617, 13304, True),
        "continuity from neighbourhood tables equals the closed-family definition ({0} maps x 9 topology pairs, "
        "{1} discontinuous, lattices <= 5)",
        mutants=(("every map continuous", "is_continuous",
                  "return _maps_rows_into(mapping, t_dom.min_nbhd, t_cod.min_nbhd)", "return True"),),
        campaigns={"is_continuous": ("prop-2-1",)},
    ),
    Gate("9f", "test_criterion_9f_gate_one_limit_per_filter", filters_mod,
        ("limit_mask", "order_convergence_is_pointlike"),
        ("naive_order_converges", "naive_star_converges", "star_limits_by_subsets"),
        _limit_cases, _limits, (4785, 1029, 4431, 4051, True, True),
        "a filter converges, in order and in star, exactly to its one-point generator: the closed form equals the "
        "per-point definitions on {0} filters ({1} point filters; posets <= 4, library lattices <= 8), and the "
        "definitional pointlike check passes on {2} posets ({3} not lattices; every poset on 5 points, seeded random "
        "on 6-10)",
        # the star oracle the convergence sweeps of gate 7 read agrees with the per-point one
        once=lambda cases: (all(oracles.star_limits_by_subsets(p, gen) == star for p, gen, _, star in cases[0]),),
        mutants=(
            ("points converge nowhere", "limit_mask", _CLOSED_FORM, "return 0"),
            ("every generator converges to itself", "limit_mask", _CLOSED_FORM, "return gen"),
            ("lowest bit of any generator", "limit_mask", _CLOSED_FORM, "return gen & -gen"),
            ("pointlike check without the supremum comparison", "order_convergence_is_pointlike",
             "x is not None and x == p.supremum_mask(p.lower_bounds_mask(gen))", "x is not None"),
            # only a poset that is not a lattice has a generator with neither bound
            ("pointlike check equating two missing bounds", "order_convergence_is_pointlike", "x is not None and ", ""),
        ),
        campaigns={"limit_mask": ("lemma-2", "star-preservation")},
    ),
    Gate("9g", "test_criterion_9g_gate_subset_tables", core_mod,
        ("subset_intersection_table", "_image_table", "_transpose"), ("naive_upper_bounds", "naive_image"),
        _subset_table_cases,
        lambda cases: (len(cases[0]), sum(1 << p.n for p, _ in cases[0]), len(cases[1]),
                       agree(_subset_tables, cases[0]) and agree(core_mod._image_table, cases[1])),
        (4473, 139062, 494, True),
        "upper-bounds tables equal the per-mask definition on {0} posets <= 5 ({1} masks), enumerated up rows are "
        "the transposes, image tables agree on {2} maps between carriers <= 4",
        mutants=(
            ("rows joined", "subset_intersection_table", "t & row", "t | row"),
            ("the empty set bounded by nothing", "subset_intersection_table", "table = [full]", "table = [0]"),
            ("images toggled", "_image_table", "t | bit", "t ^ bit"),
            ("columns overwritten", "_transpose", "|= bit", "= bit"),
        ),
        campaigns={"subset_intersection_table": ("fact-1-1",),
                   "_image_table": ("lemma-3",),
                   "_transpose": ("fact-1-1", "hausdorff", "lemma-3", "product-lemma", *HOM_CAMPAIGNS)},
    ),
    Gate("9h(a)", "test_criterion_9h_a_gate_pruned_hom_search", morph_mod, ("enumerate_homs", "_search", "classify"),
        ("iter_monotone_maps", "naive_is_lattice_hom", "is_complete_hom_exhaustive"), _brute_levels,
        _pruned_search, (184814, 7449, 15, True),
        "unpinned hom search yields exactly the brute-force lattice homs and enumerate_homs exactly the brute-force "
        "complete homs, monotone backtracking equals the monotone maps, and classify gives every map its brute-force "
        "level ({0} maps, {1} homs, {2} lattices <= 5)",
        mutants=(
            ("pins widened to the whole codomain", "classify", "[1 << v for v in m]",
             "[codomain.full_mask for v in m]"),
            ("the last value left unpinned", "classify", "[1 << v for v in m]",
             "[*(1 << v for v in m[:-1]), codomain.full_mask]"),
            ("search answer ignored", "classify", "None) is not None:", "()) is not None:"),
        ),
        campaigns={"enumerate_homs": HOM_CAMPAIGNS, "_search": HOM_CAMPAIGNS},
    ),
    Gate("9h(b)", "test_criterion_9h_b_gate_preimage_scan_by_lookup", morph_mod, ("preimage_scan",),
        ("naive_preimage_scan", "iter_monotone_maps", "collapse_to_two"),
        _preimage_cases,
        lambda cases: (len(cases) // 2, sum(not c[-1][2] for c in cases), agree(_preimage_scan, cases)),
        (12724, 13682, True),
        "preimage scan by lookup equals the per-interval definition on {0} monotone maps (full and principal "
        "scans, {1} failing)",
        mutants=(("no preimage tested", "preimage_scan", "if pre and pre not in intervals:", "if False:"),),
        campaigns={"preimage_scan": ("prop-2-1",)},
    ),
    Gate("9h(c)", "test_criterion_9h_c_gate_complete_homs_from_search", morph_mod, ("enumerate_homs", "_search"), (),
        _prop_2_1_pool, _complete_homs_on_pool, (5451, 0, 0),
        "classify calls all {0:,} homs enumerate_homs returns on the default prop-2-1 pool (--trials 10) complete, "
        "{1} repeated",
        mutants=(
            ("no top pin", "enumerate_homs", "pins[domain.top] &= 1 << codomain.top", "pass"),
            ("no join constraint", "_search", "allowed &= 1 << join_c[values[a]][values[b]]", "pass"),
            # keeps every meet pair of a domain but its first
            ("one meet pair dropped", "_search", "meets[x].append(", "any(meets) and meets[x].append("),
        ),
        campaigns={"enumerate_homs": HOM_CAMPAIGNS, "_search": HOM_CAMPAIGNS},
    ),
    Gate("9h(d)", "test_criterion_9h_d_gate_join_prime_distributivity", core_mod,
        ("Poset.certificate", "_is_distributive"), ("naive_is_distributive",), _distributivity_cases,
        lambda cases: (len(cases), sum(not c[-1] for c in cases),
                       agree(lambda p: core_mod._is_distributive(p.down, p.join_table), cases)),
        (6818, 4010, True, True),
        "join-prime distributivity equals the triple law on {0} lattices (all labelled lattices <= 6, 2^6, "
        "2^3x2^3, chain64; {1} not distributive), and the certificate reads it",
        once=lambda cases: (agree(lambda p: p.certificate.is_distributive, cases),),
        mutants=(
            ("every element counted join-irreducible", "_is_distributive", " if row ^ (1 << j) in rows", ""),
            # the down row of the meet of a and b
            ("meet read for the join", "_is_distributive", "down[join[a][b]]", "(down[a] & down[b])"),
        ),
        # a pair of equal elements is comparable, and a comparable pair never fails
        equivalent=(("pair loop from b = a", "_is_distributive", "range(a + 1, n)", "range(a, n)"),),
        campaigns={"_is_distributive": ("breadth-2n", *HOM_CAMPAIGNS)},
    ),
    Gate("9i", "test_criterion_9i_gate_meet_irreducible_breadth", breadth_mod,
        ("compute_breadth", "_meet_irreducible_breadth", "_irredundant_sets", "_first_irredundant"),
        ("breadth_by_bounds", "breadth_literal"), _breadth_cases,
        lambda cases: (len(cases[0]), len(cases[1]),
                       all(breadth_mod.compute_breadth(p)[1:] == expected[:2] for p, expected in cases[0]),
                       agree(lambda p: breadth_mod.compute_breadth(p).breadth, cases[1])),
        (6835, 25, True, True),
        "breadth by meet-irreducibles equals the loop over the bounds (breadth and witness) on {0} lattices and the "
        "literal breadth on {1} classes (<= 6)",
        mutants=(
            _JOIN_IRREDUCIBLES,
            _UP_ROWS_WALKED,
            ("only the new member's drop checked", "_irredundant_sets", _BREADTH_DROPS, "dropped = (lower,)"),
            ("growth stopped one size early", "_meet_irreducible_breadth", _BREADTH_SIZES, "len(rows) - 1))), 1)"),
            ("no floor at 1", "_meet_irreducible_breadth", _BREADTH_SIZES, "len(rows)))), 0)"),
            # the witness: the first irredundant set of its size in combinations order
            ("children visited in reverse index order", "_irredundant_sets", "for i in range(start, len(rows)):",
             "for i in reversed(range(start, len(rows))):"),
            ("the new member's own drop unchecked", "_irredundant_sets", _BREADTH_DROPS,
             "dropped = tuple(d & row for d in drops)"),
            ("a set one short returned", "_first_irredundant", "members.bit_count() == size",
             "members.bit_count() >= size - 1"),
            ("witness sought one size up", "compute_breadth", "_first_irredundant(lattice, n)",
             "_first_irredundant(lattice, n + 1)"),
        ),
        # the top's down row is the whole carrier, so adding it never changes a
        # set's lower bounds and it joins no irredundant set
        equivalent=(("at most one upper cover", "_meet_irreducible_breadth", "if row ^ (1 << m) in ups",
                     "if row ^ (1 << m) in ups or row == 1 << m"),),
        # compute_breadth raises AssertionError when it finds no irredundant witness
        caught=(AssertionError,),
        campaigns={name: ("breadth-2n",) for name in
                   ("compute_breadth", "_meet_irreducible_breadth", "_irredundant_sets", "_first_irredundant")},
    ),
    Gate("9m", "test_criterion_9m_gate_box_rows", core_mod,
        ("_box_rows", "product", "boolean_power", "topology.product_topology", "Poset._from_rows"),
        ("naive_product_rows", "projection_preimages", "naive_transpose"), _box_rows_cases,
        lambda cases: (*map(len, cases), agree(lambda f: _rows(core_mod.product(f)), cases[0])
                       and agree(lambda n: _rows(core_mod.boolean_power(n)), cases[1])
                       and agree(topo_mod.product_topology, cases[2])),
        (373, 6, 555, True, 302, True),
        "box rows equal the pointwise pair loop for {0} products (library pairs <= 64 points and 20 seeded triples "
        "<= 4), i & j == i for 2^1..2^{1}, and from_open_subbasis of the projection preimages for {2} product "
        "topologies; the trusted constructor transposes as the validating one on {4} posets",
        once=_trusted_transposes,
        mutants=(
            ("first factor fastest", "_box_rows", "for table in factor_rows:", "for table in reversed(factor_rows):"),
            ("widen and tile swapped", "_box_rows", "for row in rows]\n        tiled = [row * ones for row in table]",
             "for row in table]\n        tiled = [row * ones for row in rows]"),
            ("up rows taken from down rows", "product", "_box_rows([p.up for p in posets])",
             "_box_rows([p.down for p in posets])"),
            ("one factor dropped", "_box_rows", "for table in factor_rows:", "for table in factor_rows[1:]:"),
            ("chain rows swapped", "boolean_power", "_box_rows([(0b01, 0b11)] * n), _box_rows([(0b11, 0b10)] * n)",
             "_box_rows([(0b11, 0b10)] * n), _box_rows([(0b01, 0b11)] * n)"),
        ),
        # a mutant that raises, e.g. on a neighbourhood table of the wrong size, is caught
        caught=(ValueError, IndexError),
        # at limit 4 the library pools build 2^2 and no product, as no product
        # name fits; breadth-2n builds no product of posets
        campaigns={"_box_rows": ("breadth-2n", "hausdorff", "product-lemma", *HOM_CAMPAIGNS),
                   "boolean_power": ("breadth-2n", "hausdorff", "product-lemma", *HOM_CAMPAIGNS),
                   "product": ("product-lemma",),
                   "topology.product_topology": ("product-lemma",)},
    ),
    Gate("9n", "test_criterion_9n_gate_memoised_census", catalog_mod,
        ("iso_representatives", "_normal_code", "_extend_posets", "all_posets"),
        ("iso_representatives_pairwise", "relabelled"),
        _census_cases, _census,
        (20, 4473 + 6815 + 8 + 8 * 24, [1, 3, 19, 219, 4231], True, True, [1, 2, 5, 16, 63, 318], [1, 1, 1, 2, 5, 15],
         True),
        "iso_representatives by normal code keeps the pairwise representatives in order on {0} pools of {1} posets "
        "(the posets <= 5, the lattices <= 6, the profile twins and 8 x 24 seeded posets on 7-9 points with their "
        "relabellings); the census counts {2}; the class counts {5} of the posets and {6} of the lattices on 1-6 "
        "points; the 318 classes of 6-point posets match their pinned digest",
        once=_class_counts,
        mutants=(
            ("code is the sorted profile", "_normal_code", "return tuple(code)", "return tuple(sorted(profile))"),
            ("no confirm on a miss", "iso_representatives",
             "if not any(are_order_isomorphic(p, q) for q in kept):", "if True:"),
            # the same posets in other orders: only the rows digest sees them
            ("down-sets walked in descending order", "_extend_posets", "for d in down_sets:",
             "for d in reversed(down_sets):"),
            ("up-sets listed in down-set order", "_extend_posets", "for d in reversed(down_sets)]",
             "for d in down_sets]"),
            ("allowed keeps d", "_extend_posets", "bounds[d] & ~d", "bounds[d]"),
        ),
        campaigns={"all_posets": ("fact-1-1",), "_extend_posets": ("fact-1-1",)},
    ),
    Gate("9p", "test_criterion_9p_gate_row_unions", core_mod, ("_row_unions", "topology.FiniteTopology.opens"),
        ("naive_down_closure", "naive_upper_bounds", "brute_force_closed_generation"),
        _row_union_cases,
        lambda cases: (len(cases[0]), sum(len(bounds) for _, bounds in cases[0]), len(cases[1]),
                       agree(lambda p: core_mod._row_unions(p.down, p.up, p.full_mask), cases[0]),
                       agree(topo_mod.FiniteTopology.opens, cases[1])),
        (4673, 55501, 72, True, True),
        "the walk over the down rows gives every down-set with its upper bounds, as the per-mask definitions do, on "
        "{0} posets (every poset <= 5, seeded random on 6-10; {1} down-sets), and the open families of {2} interval, "
        "lower and upper topologies (poset classes <= 4) equal brute-force generation",
        mutants=(
            ("the last row never joined", "_row_unions", "zip(rows, tags)", "zip(rows[:-1], tags)"),
            ("the new row's tag not ANDed", "_row_unions", "bound & tag", "bound"),
            ("the empty union bounded by 0", "_row_unions", "unions = {0: full}", "unions = {0: 0}"),
        ),
        # every union reached again gets the bounds it has: those of a
        # down-set whichever points reached it, and opens read none
        equivalent=(("the last route's bounds kept", "_row_unions", "unions.setdefault(seen | row, bound & tag)",
                     "unions[seen | row] = bound & tag"),),
        campaigns={"_row_unions": ("fact-1-1", *HOM_CAMPAIGNS)},
    ),
)
