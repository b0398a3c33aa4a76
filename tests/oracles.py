"""Independent brute-force oracles.

Everything here is deliberately primitive: subsets are frozensets of
indices, bounds are found by scanning with scalar ``leq`` queries, and
families are enumerated exhaustively.  These routes share no code with
the bitmask implementations they check.  The exceptions are the literal
all-subsets routes (completeness, complete homs, filter upper/lower
sets, breadth), the scan of the (n+1)-subsets for a breadth violation
(:func:`breadth_violation_by_combinations`) and the breadth loop over
the bounds 1, 2, ... on it (:func:`breadth_by_bounds`), the per-point
and per-filter convergence definitions, the convergence sweep over every
filter (:func:`all_filter_limit_sweep`), the closed-family continuity
check, the filter a base generates, the triple distributive law, the
pairwise lattice-hom test (:func:`naive_is_lattice_hom`), the
pairwise class census (:func:`iso_representatives_pairwise`) and the
lattices filtered from the whole census (:func:`lattices_by_filter`),
which run the package's bound queries, pair tables, super-filters,
open-family materialization, isomorphism test and row lattice test
(themselves gated against the routes above) to check the shortcuts built
on them.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator, Optional

from ordlab.catalog import all_posets, two
from ordlab.filters import SetFilter, super_filters
from ordlab.morphisms import CheckReport, LatticeHom, classify
from ordlab.order_core import Poset, _pairs_have_joins, are_order_isomorphic, boolean_power, iter_bits, mask_of
from ordlab.topology import FiniteTopology


def naive_transitive_closure(n: int, covers: Iterable[tuple[int, int]]) -> set[tuple[int, int]]:
    rel = {(i, i) for i in range(n)} | set(covers)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    return rel


def naive_upper_bounds(p: Poset, subset: frozenset[int]) -> frozenset[int]:
    return frozenset(x for x in range(p.n) if all(p.leq(s, x) for s in subset))


def naive_lower_bounds(p: Poset, subset: frozenset[int]) -> frozenset[int]:
    return frozenset(x for x in range(p.n) if all(p.leq(x, s) for s in subset))


def members_of(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if (mask >> i) & 1)


def mask_from(members: Iterable[int]) -> int:
    return sum(1 << i for i in set(members))


def naive_down_closure(p: Poset, subset: frozenset[int]) -> frozenset[int]:
    return frozenset(x for x in range(p.n) if any(p.leq(x, s) for s in subset))


def naive_image(mapping: tuple[int, ...], subset: frozenset[int]) -> frozenset[int]:
    return frozenset(mapping[i] for i in subset)


def naive_infimum(p: Poset, subset: frozenset[int]) -> Optional[int]:
    lb = naive_lower_bounds(p, subset)
    for x in lb:
        if all(p.leq(y, x) for y in lb):
            return x
    return None


def naive_supremum(p: Poset, subset: frozenset[int]) -> Optional[int]:
    ub = naive_upper_bounds(p, subset)
    for x in ub:
        if all(p.leq(x, y) for y in ub):
            return x
    return None


def filter_members(f: SetFilter) -> list[int]:
    """Every member of the filter: the generator with each subset of the rest."""
    rest = f.parent.full_mask & ~f.generator
    return [f.generator | sub for sub in range(rest + 1) if not sub & ~rest]


def filter_from_base(p: Poset, base_sets: Iterable[int]) -> SetFilter:
    """The filter a base generates: all sets containing the intersection
    of the base sets."""
    gen = p.full_mask
    for mask in base_sets:
        gen &= mask
    return SetFilter(p, gen)


def all_filter_families(carrier: int) -> list[set[int]]:
    """Every nonempty family of subsets (as masks) satisfying the three
    filter axioms: no empty member, intersection-closed, upward closed.
    Families are encoded as bits over the 2^carrier possible subsets."""
    nsets = 1 << carrier
    full = nsets - 1
    supersets = []
    for s in range(nsets):
        sup = 0
        for t in range(nsets):
            if t & s == s:
                sup |= 1 << t
        supersets.append(sup)
    out = []
    for fam_bits in range(1, 1 << nsets):
        if fam_bits & 1:  # contains the empty set
            continue
        members = [s for s in range(nsets) if (fam_bits >> s) & 1]
        ok = True
        for s in members:
            if fam_bits & supersets[s] != supersets[s]:
                ok = False
                break
        if ok:
            for a, b in itertools.combinations(members, 2):
                if not (fam_bits >> (a & b)) & 1:
                    ok = False
                    break
        if ok:
            out.append(set(members))
    return out


def brute_force_closed_generation(carrier: int, closed_sets: list[int]) -> tuple[int, ...]:
    """Coarsest topology with the listed sets closed, by intersecting every
    family of subsets of the carrier that holds the empty set, the carrier
    and the complements of the listed sets and is closed under union and
    intersection.  carrier <= 4 only."""
    full = (1 << carrier) - 1
    required = {0, full} | {full & ~c for c in closed_sets}
    free = [m for m in range(full + 1) if m not in required]
    best: Optional[set[int]] = None
    for fam_bits in range(1 << len(free)):
        fam = required | {m for i, m in enumerate(free) if (fam_bits >> i) & 1}
        if all(a | b in fam and a & b in fam for a in fam for b in fam):
            best = fam if best is None else best & fam
    assert best is not None
    return tuple(sorted(best))


def naive_product_rows(factor_rows: list[tuple[int, ...]]) -> list[int]:
    """Rows of a product carrier by the pointwise pair loop: over the
    tuples in ``itertools.product`` order, s is in row t when s[k] is in
    ``factor_rows[k][t[k]]`` for every k."""
    tuples = list(itertools.product(*(range(len(rows)) for rows in factor_rows)))
    out = []
    for t in tuples:
        row = 0
        for i, s in enumerate(tuples):
            if all((rows[t[k]] >> s[k]) & 1 for k, rows in enumerate(factor_rows)):
                row |= 1 << i
        out.append(row)
    return out


def projection_preimages(factors: list[FiniteTopology]) -> list[int]:
    """The preimage, under its projection, of every minimal neighbourhood
    of every factor: an open subbasis of the product topology."""
    tuples = list(itertools.product(*(range(t.carrier_size) for t in factors)))
    return [
        sum(1 << i for i, s in enumerate(tuples) if (nbhd >> s[k]) & 1)
        for k, t in enumerate(factors)
        for nbhd in t.min_nbhd
    ]


def naive_transpose(down: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 << j for j, row in enumerate(down) if (row >> i) & 1) for i in range(len(down)))


def naive_order_converges(f: SetFilter, x: int) -> bool:
    """Per-point definition: inf of the filter's upper set and sup of its
    lower set both equal x."""
    p = f.parent
    upper = p.upper_bounds_mask(f.generator)
    lower = p.lower_bounds_mask(f.generator)
    return p.infimum_mask(upper) == x == p.supremum_mask(lower)


def naive_star_converges(f: SetFilter, x: int) -> bool:
    """Per-point definition: every super-filter has a further super-filter
    that order-converges to x."""
    for prime in super_filters(f):
        if not any(naive_order_converges(g, x) for g in super_filters(prime)):
            return False
    return True


def order_limits_definitional(p: Poset, gen: int) -> int:
    """The bit of the point the filter generated by ``gen`` order-converges
    to by the definition, or 0: the inf of the upper bounds of ``gen`` and
    the sup of its lower bounds must both exist and be equal."""
    x = p.infimum_mask(p.upper_bounds_mask(gen))
    return 1 << x if x is not None and x == p.supremum_mask(p.lower_bounds_mask(gen)) else 0


def star_limits_by_subsets(p: Poset, gen: int) -> int:
    """The points the filter generated by ``gen`` star-converges to, from
    the definitional order limits of its super-filters, which are
    generated by the nonempty subsets m of ``gen``.  With ``reach[m]`` the
    order limits of the filters generated by nonempty subsets of m,

        reach[m] = order limit of m | OR over i in m of reach[m - {i}],

    the star limits are the AND of ``reach[m]`` over all those m, in one
    increasing pass over the subsets (each m - {i} comes before m) that
    stops once the AND is empty."""
    reach = {0: 0}
    star = -1
    m = 0
    while m != gen:
        m = (m - gen) & gen  # next subset of gen in increasing order
        r = order_limits_definitional(p, m)
        rest = m
        while rest:
            low = rest & -rest
            r |= reach[m ^ low]
            rest ^= low
        reach[m] = r
        star &= r
        if not star:
            return 0
    return star


def naive_is_continuous(mapping: tuple[int, ...], t_dom: FiniteTopology, t_cod: FiniteTopology) -> bool:
    """Literal continuity: the preimage of every closed set of the codomain
    topology is closed in the domain topology."""
    for closed in t_cod.closed_family():
        pre = 0
        for i, v in enumerate(mapping):
            if (closed >> v) & 1:
                pre |= 1 << i
        opened = t_dom.full_mask & ~pre
        # open: it holds the minimal neighbourhood of each of its points
        if any(t_dom.min_nbhd[p] & ~opened for p in iter_bits(opened)):
            return False
    return True


def is_complete_literal(p: Poset) -> bool:
    """All-subsets completeness: every subset (empty included) has an
    infimum and a supremum."""
    return all(
        p.infimum_mask(mask) is not None and p.supremum_mask(mask) is not None
        for mask in range(1 << p.n)
    )


def naive_is_lattice_hom(mapping, dom: Poset, cod: Poset) -> bool:
    """f(x ∧ y) = f(x) ∧ f(y) and f(x ∨ y) = f(x) ∨ f(y) for every pair,
    read off the meet and join tables."""
    meet_d, join_d = dom.meet_table, dom.join_table
    meet_c, join_c = cod.meet_table, cod.join_table
    for x in range(dom.n):
        for y in range(x + 1, dom.n):
            if meet_c[mapping[x]][mapping[y]] != mapping[meet_d[x][y]]:
                return False
            if join_c[mapping[x]][mapping[y]] != mapping[join_d[x][y]]:
                return False
    return True


def is_complete_hom_exhaustive(mapping, dom: Poset, cod: Poset) -> bool:
    """Literal definition: f(inf S) = inf f(S) and f(sup S) = sup f(S)
    for every subset S, the empty one included."""
    # small subsets first so violations surface quickly
    for mask in sorted(range(1 << dom.n), key=int.bit_count):
        image = 0
        for i in range(dom.n):
            if (mask >> i) & 1:
                image |= 1 << mapping[i]
        inf_d = dom.infimum_mask(mask)
        if inf_d is None or mapping[inf_d] != cod.infimum_mask(image):
            return False
        sup_d = dom.supremum_mask(mask)
        if sup_d is None or mapping[sup_d] != cod.supremum_mask(image):
            return False
    return True


def has_breadth_at_most_literal(p: Poset, n: int) -> bool:
    """Literal breadth definition: every nonempty subset has at most n
    members with the same infimum."""
    for subset in range(1, p.full_mask + 1):
        if subset.bit_count() <= n:
            continue
        target = p.infimum_mask(subset)
        members = list(iter_bits(subset))
        if not any(
            p.infimum_mask(mask_of(combo)) == target
            for size in range(1, n + 1)
            for combo in itertools.combinations(members, size)
        ):
            return False
    return True


def breadth_literal(p: Poset) -> int:
    n = 1
    while not has_breadth_at_most_literal(p, n):
        n += 1
    return n


def filter_upper_definitional(f: SetFilter) -> int:
    """Materialize every member of the filter and union its upper bounds."""
    out = 0
    for member in filter_members(f):
        out |= f.parent.upper_bounds_mask(member)
    return out


def filter_lower_definitional(f: SetFilter) -> int:
    out = 0
    for member in filter_members(f):
        out |= f.parent.lower_bounds_mask(member)
    return out


def satisfies_filter_axioms(carrier_size: int, family: Iterable[int]) -> bool:
    """Literal check of the three filter axioms on an explicit family:
    no empty member, closed under pairwise intersection, upward closed."""
    fam = set(family)
    if not fam or 0 in fam:
        return False
    full = (1 << carrier_size) - 1
    for a in fam:
        if a < 0 or a & ~full:
            return False
        for b in fam:
            if a & b not in fam:
                return False
        free = full & ~a
        sub = free
        while True:
            if a | sub not in fam:
                return False
            if sub == 0:
                break
            sub = (sub - 1) & free
    return True


def naive_preimage_scan(mapping: tuple[int, ...], dom: Poset, cod: Poset, principal_only: bool = False):
    """Per-interval definition of the preimage scan.

    Walks the codomain intervals in the scan's order (every [x, y] by x
    and then y, or [bottom, x] for all x and then [x, top] for all x),
    takes the preimage as the union of the fibres over the interval and
    compares it with the box between its infimum and supremum.  Returns
    ``(intervals_checked, failure_interval, failure)`` with ``failure``
    the ``(kind, low, high, preimage, missing)`` of the first preimage
    that is neither empty nor an interval, or None.
    """
    if principal_only:
        pairs = [(cod.bottom, x) for x in range(cod.n)] + [(x, cod.top) for x in range(cod.n)]
    else:
        pairs = [(x, y) for x in range(cod.n) for y in range(cod.n) if cod.leq(x, y)]
    fibres = [frozenset(i for i in range(dom.n) if mapping[i] == v) for v in range(cod.n)]
    shapes: dict[frozenset[int], Optional[tuple]] = {}  # preimage -> failure or None
    for checked, (x, y) in enumerate(pairs, 1):
        pre = frozenset().union(*(fibres[v] for v in range(cod.n) if cod.leq(x, v) and cod.leq(v, y)))
        if pre and pre not in shapes:
            low, high = naive_infimum(dom, pre), naive_supremum(dom, pre)
            failure = ("non_interval", low, high, pre, None)
            if low is not None and high is not None:
                box = frozenset(z for z in range(dom.n) if dom.leq(low, z) and dom.leq(z, high))
                failure = None if box == pre else ("non_interval", low, high, pre, min(box - pre))
            shapes[pre] = failure
        if pre and shapes[pre] is not None:
            return checked, (x, y), shapes[pre]
    return len(pairs), None, None


def naive_is_distributive(p: Poset) -> bool:
    """The literal law x ∧ (y ∨ z) = (x ∧ y) ∨ (x ∧ z) for all triples."""
    meet, join = p.meet_table, p.join_table
    return all(
        meet[x][join[y][z]] == join[meet[x][y]][meet[x][z]]
        for x in range(p.n)
        for y in range(p.n)
        for z in range(p.n)
    )


def collapse_to_two():
    """Stored order-preserving non-homomorphism: the 2-bit vector lattice
    onto the chain 2, bottom to 0 and the other three elements to 1.  Its
    preimage of [1, 1] is not an interval."""
    return classify([0, 1, 1, 1], boolean_power(2), two())


def iter_monotone_maps(domain: Poset, codomain: Poset) -> Iterator[tuple[int, ...]]:
    """Every order-preserving map, by plain backtracking: the domain
    elements are assigned in order of down-set size (a linear extension),
    each to every value above the values of the elements below it, read
    from scalar ``leq`` queries."""
    n = domain.n
    order = sorted(range(n), key=lambda x: sum(domain.leq(y, x) for y in range(n)))
    below = [[y for y in range(n) if y != x and domain.leq(y, x)] for x in range(n)]
    leq = [[codomain.leq(u, v) for v in range(codomain.n)] for u in range(codomain.n)]
    values = [0] * n

    def extend(pos: int) -> Iterator[tuple[int, ...]]:
        if pos == n:
            yield tuple(values)
            return
        x = order[pos]
        for v in range(codomain.n):
            if all(leq[values[y]][v] for y in below[x]):
                values[x] = v
                yield from extend(pos + 1)

    return extend(0)


def all_filter_limit_sweep(h: LatticeHom, limits_of: Callable[[Poset, int], int]) -> CheckReport:
    """The convergence sweep over every filter of the domain, not only the
    point filters: for each generator in increasing order and each point x
    in ``limits_of(domain, generator)``, f(x) must be in ``limits_of`` of the
    image filter, generated by the pointwise image of the generator.  One
    check per (filter, point), first failure as witness."""
    dom = h.domain
    checked = 0
    for gen in range(1, dom.full_mask + 1):
        points = limits_of(dom, gen)
        if not points:
            continue
        image_points = limits_of(h.codomain, mask_from(naive_image(h.mapping, members_of(gen))))
        for x in iter_bits(points):
            checked += 1
            if not (image_points >> h.mapping[x]) & 1:
                witness = {"generator": dom.labels_of(gen), "point": dom.labels[x]}
                return CheckReport(False, checked, witness)
    return CheckReport(True, checked, None)


def per_pair_fact_1_1(p: Poset, upper_bounds: list[int]) -> tuple[int, Optional[tuple[int, int]]]:
    """Fact 1.1 one (generator, point) pair at a time, generator-major, on
    the given upper-bounds table: x bounds the filter from above iff its
    down-set is a member.  The pairs checked and the first failing
    ``(generator, point)``."""
    checked = 0
    for gen in range(1, p.full_mask + 1):
        for x in range(p.n):
            checked += 1
            if bool((upper_bounds[gen] >> x) & 1) != (p.down[x] & gen == gen):
                return checked, (gen, x)
    return checked, None


def per_pair_lemma_3(dom: Poset, mapping, images: list[int]) -> tuple[int, Optional[tuple[int, int]]]:
    """Lemma 3 one nested filter pair at a time, each coarse generator with
    its subsets in decreasing order, on the given image table: the image of
    the fine generator holds that of the coarse one.  The pairs checked and
    the first failing ``(coarse, fine)``."""
    checked = 0
    for coarse in range(1, dom.full_mask + 1):
        fine = coarse
        while fine:
            checked += 1
            if images[fine] & ~images[coarse]:
                return checked, (coarse, fine)
            fine = (fine - 1) & coarse
    return checked, None


def is_lattice_literal(p: Poset) -> bool:
    """Every pair of elements has a supremum and an infimum: a least
    element among its upper bounds and a greatest among its lower bounds,
    found by scanning a table of scalar ``leq`` queries."""
    elems = range(p.n)
    leq = [[p.leq(x, y) for y in elems] for x in elems]
    for i, j in itertools.combinations(elems, 2):
        upper = [x for x in elems if leq[i][x] and leq[j][x]]
        lower = [x for x in elems if leq[x][i] and leq[x][j]]
        if not any(all(leq[x][y] for y in upper) for x in upper):
            return False
        if not any(all(leq[y][x] for y in lower) for x in lower):
            return False
    return True


def lattices_by_filter(n: int) -> tuple[Poset, ...]:
    """Every labeled lattice on carrier {0..n-1}, in the census order of
    :func:`all_posets`: the posets that are bounded and where every pair's
    upper bounds ``up[i] & up[j]`` are an up row (``order_core._is_lattice``).

    Each code is read as one byte string, down rows then up rows.  A full
    down row is a top and a full up row a bottom, and a poset has at most
    one of each, so two full bytes in the string mean both bounds (6,570
    of the 130,023 posets on 6 points have them); only then does the pair
    test run.  Only the lattices are built, and neither they nor a
    certificate are cached.
    """
    family, full = all_posets(n), (1 << n) - 1
    raws = map(int.to_bytes, family.codes, itertools.repeat(2 * n), itertools.repeat("little"))
    return tuple([
        Poset._from_rows(family.labels, raw[:n], raw[n:])
        for raw in raws
        if raw.count(full) == 2 and _pairs_have_joins(raw[n:])
    ])


def relabelings(p: Poset) -> frozenset[frozenset[tuple[int, int]]]:
    """The order relation of p carried along every permutation of its
    carrier, as sets of ``(i, j)`` pairs with i <= j."""
    rel = [(i, j) for i in range(p.n) for j in range(p.n) if p.leq(i, j)]
    return frozenset(
        frozenset((perm[i], perm[j]) for i, j in rel) for perm in itertools.permutations(range(p.n))
    )


def are_isomorphic_brute_force(a: Poset, b: Poset, relabelings_of_a) -> bool:
    """a and b are order-isomorphic iff some permutation carries a's
    relation onto b's; ``relabelings_of_a`` is :func:`relabelings` of a."""
    if a.n != b.n:
        return False
    rel_b = frozenset((i, j) for i in range(b.n) for j in range(b.n) if b.leq(i, j))
    return rel_b in relabelings_of_a


def relabelled(p: Poset, perm: list[int]) -> Poset:
    """p carried along the permutation ``perm`` of its carrier: element i
    becomes perm[i], keeping its label, and j <= i becomes perm[j] <= perm[i]."""
    down = [0] * p.n
    labels = [""] * p.n
    for i in range(p.n):
        labels[perm[i]] = p.labels[i]
        for j in range(p.n):
            if p.leq(j, i):
                down[perm[i]] |= 1 << perm[j]
    return Poset(labels, down)


def iso_representatives_pairwise(posets: Iterable[Poset]) -> list[Poset]:
    """One representative per isomorphism class with no normal code: the
    posets are bucketed by (size, sorted (down count, up count) profile,
    cover count) in order of first appearance, and each is tested with
    ``are_order_isomorphic`` (gate 9k) against every poset kept in its
    bucket."""

    def key(p: Poset) -> tuple:
        return (
            p.n,
            tuple(sorted((p.down[i].bit_count(), p.up[i].bit_count()) for i in range(p.n))),
            [(u & d).bit_count() for u in p.up for d in p.down].count(2),  # covers: up[x] & down[j] == {x, j}
        )

    buckets: dict[tuple, list[Poset]] = {}
    for p in posets:
        buckets.setdefault(key(p), []).append(p)
    reps: list[Poset] = []
    for bucket in buckets.values():
        kept: list[Poset] = []
        for p in bucket:
            if not any(are_order_isomorphic(p, q) for q in kept):
                kept.append(p)
        reps.extend(kept)
    return reps


def breadth_violation_by_combinations(p: Poset, n: int) -> tuple[bool, Optional[int]]:
    """``(holds, counterexample)`` of breadth <= n by scanning the
    (n+1)-subsets in ``itertools.combinations`` order for the first from
    which no single member can be dropped keeping the infimum."""
    for combo in itertools.combinations(range(p.n), n + 1):
        subset = mask_of(combo)
        target = p.infimum_mask(subset)
        if all(p.infimum_mask(subset & ~(1 << drop)) != target for drop in combo):
            return False, subset
    return True, None


def breadth_by_bounds(p: Poset) -> tuple[int, int, list[int]]:
    """The breadth, its witness and the violations, by deciding breadth <= 1,
    2, ... with the scan of the (n+1)-subsets until a bound holds:
    ``violations[n - 1]`` is the scan's counterexample to breadth <= n for
    each n below the breadth.  The witness is the last violation, the bottom
    when breadth <= 1 holds, and empty on one element."""
    violations = []
    while True:
        holds, violation = breadth_violation_by_combinations(p, len(violations) + 1)
        if holds:
            break
        violations.append(violation)
    witness = violations[-1] if violations else (1 << p.bottom) if p.n >= 2 else 0
    return len(violations) + 1, witness, violations
