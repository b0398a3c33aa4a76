"""Maps between finite lattices: classification and the checks built on it.

A map is classified into the strongest of: not order-preserving,
order-preserving, lattice homomorphism (binary meets and joins), complete
homomorphism (infima and suprema of all subsets, the empty one included).
On finite lattices the complete class equals "lattice hom that fixes
bottom and top"; that shortcut is the default route and is verified
against the literal all-subsets definition by the oracle gate in the
test suite (``exhaustive=True`` selects the literal route).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Optional, Sequence, Union

from .errors import MalformedInputError
from .filters import SetFilter, order_limit, star_limit_mask
from .limits import Limits, check_maps, check_subset_elements
from .order_core import ElementSet, Poset, iter_bits, subset_union_table
from .topology import FiniteTopology


class Classification(enum.IntEnum):
    NOT_ORDER_PRESERVING = 0
    ORDER_PRESERVING = 1
    LATTICE_HOM = 2
    COMPLETE_HOM = 3

    def render(self) -> str:
        return self.name.lower().replace("_", "-")


@dataclass(frozen=True)
class LatticeHom:
    """A total map between two lattices with its computed classification."""

    domain: Poset
    codomain: Poset
    mapping: tuple[int, ...]
    classification: Classification

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    @cached_property
    def fibers(self) -> tuple[int, ...]:
        """``fibers[v]`` is the mask of domain elements mapped to v."""
        out = [0] * self.codomain.n
        for i, v in enumerate(self.mapping):
            out[v] |= 1 << i
        return tuple(out)


MapLike = Union[LatticeHom, Sequence[int]]


def _mapping_of(f: MapLike) -> tuple[int, ...]:
    if isinstance(f, LatticeHom):
        return f.mapping
    return tuple(f)


def _image_mask(mapping: Sequence[int], mask: int) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << mapping[low.bit_length() - 1]
        mask ^= low
    return out


def _is_order_preserving(mapping: Sequence[int], dom: Poset, cod: Poset) -> bool:
    for x in range(dom.n):
        above_fx = cod.up[mapping[x]]
        rest = dom.up[x]
        while rest:
            low = rest & -rest
            if not (above_fx >> mapping[low.bit_length() - 1]) & 1:
                return False
            rest ^= low
    return True


def _is_lattice_hom(mapping: Sequence[int], dom: Poset, cod: Poset) -> bool:
    meet_d, join_d = dom.meet_table, dom.join_table
    meet_c, join_c = cod.meet_table, cod.join_table
    for x in range(dom.n):
        for y in range(x + 1, dom.n):
            if meet_c[mapping[x]][mapping[y]] != mapping[meet_d[x][y]]:
                return False
            if join_c[mapping[x]][mapping[y]] != mapping[join_d[x][y]]:
                return False
    return True


def is_complete_hom_exhaustive(
    mapping: Sequence[int], dom: Poset, cod: Poset, limits: Limits | None = None
) -> bool:
    """Literal definition: f(inf S) = inf f(S) and f(sup S) = sup f(S)
    for every subset S, the empty one included."""
    check_subset_elements(dom.n, limits, "all-subsets homomorphism check")
    # Small subsets first so violations surface quickly.
    for mask in sorted(range(1 << dom.n), key=int.bit_count):
        image = _image_mask(mapping, mask)
        inf_d = dom.infimum_mask(mask)
        if inf_d is None or mapping[inf_d] != cod.infimum_mask(image):
            return False
        sup_d = dom.supremum_mask(mask)
        if sup_d is None or mapping[sup_d] != cod.supremum_mask(image):
            return False
    return True


def classify(
    mapping: Sequence[int], domain: Poset, codomain: Poset, *, exhaustive: bool = False
) -> LatticeHom:
    """Classify a total map between two certified lattices."""
    m = tuple(mapping)
    if len(m) != domain.n:
        raise MalformedInputError("map is not total on the domain")
    if any(not (0 <= v < codomain.n) for v in m):
        raise MalformedInputError("map value out of codomain range")
    if not domain.certificate.is_lattice or not codomain.certificate.is_lattice:
        raise ValueError("classification needs lattices on both sides")

    level = Classification.NOT_ORDER_PRESERVING
    if _is_order_preserving(m, domain, codomain):
        level = Classification.ORDER_PRESERVING
        if _is_lattice_hom(m, domain, codomain):
            level = Classification.LATTICE_HOM
            if exhaustive:
                complete = is_complete_hom_exhaustive(m, domain, codomain)
            else:
                complete = (
                    m[domain.bottom] == codomain.bottom and m[domain.top] == codomain.top
                )
            if complete:
                level = Classification.COMPLETE_HOM
    return LatticeHom(domain, codomain, m, level)


def iter_monotone_maps(
    domain: Poset, codomain: Poset, fixed: Mapping[int, int] | None = None
) -> Iterator[tuple[int, ...]]:
    """Generate every order-preserving map by backtracking.

    Elements are assigned in a linear extension of the domain; the
    candidates for x are the common upper bounds of the images of x's
    lower covers, so transitivity guarantees full monotonicity.
    """
    order = sorted(range(domain.n), key=lambda i: domain.down[i].bit_count())
    covers_below: list[list[int]] = [[] for _ in range(domain.n)]
    for i, j in domain.covers():
        covers_below[j].append(i)
    values = [0] * domain.n
    fixed = dict(fixed or {})

    def extend(pos: int) -> Iterator[tuple[int, ...]]:
        if pos == domain.n:
            yield tuple(values)
            return
        x = order[pos]
        allowed = codomain.full_mask
        for c in covers_below[x]:
            allowed &= codomain.up[values[c]]
        if x in fixed:
            allowed &= 1 << fixed[x]
        for v in iter_bits(allowed):
            values[x] = v
            yield from extend(pos + 1)

    yield from extend(0)


def enumerate_homs(
    domain: Poset,
    codomain: Poset,
    at_least: Classification = Classification.ORDER_PRESERVING,
    limits: Limits | None = None,
) -> list[LatticeHom]:
    """All total maps achieving at least the requested classification."""
    check_maps(codomain.n ** domain.n, limits, "hom enumeration")
    out = []
    if at_least == Classification.NOT_ORDER_PRESERVING:
        for m in itertools.product(range(codomain.n), repeat=domain.n):
            out.append(classify(m, domain, codomain))
        return out
    fixed = None
    if at_least == Classification.COMPLETE_HOM:
        fixed = {domain.bottom: codomain.bottom, domain.top: codomain.top}
    for m in iter_monotone_maps(domain, codomain, fixed):
        hom = classify(m, domain, codomain)
        if hom.classification >= at_least:
            out.append(hom)
    return out


@dataclass(frozen=True)
class PreimageIntervalReport:
    """Outcome of analyzing the preimage of one codomain interval."""

    kind: str  # "empty" | "interval" | "non_interval"
    low: Optional[int]
    high: Optional[int]
    preimage: ElementSet
    missing: Optional[int]  # witness in [low, high] outside the preimage


def _preimage_shape(h: LatticeHom, x: int, y: int) -> tuple[str, int, Optional[int], Optional[int], Optional[int]]:
    """(kind, preimage mask, low, high, missing) of f^{-1}([x, y]), the
    OR of the fibres over the interval; see the report below."""
    dom, cod, fibers = h.domain, h.codomain, h.fibers
    interval_mask = cod.up[x] & cod.down[y]
    pre = 0
    while interval_mask:
        low = interval_mask & -interval_mask
        pre |= fibers[low.bit_length() - 1]
        interval_mask ^= low
    if pre == 0:
        return "empty", 0, None, None, None
    low = dom.infimum_mask(pre)
    high = dom.supremum_mask(pre)
    if low is None or high is None:
        # No box to compare against; witness the first gap.
        return "non_interval", pre, low, high, None
    # pre lies inside the box [low, high]; it is an interval when it fills it
    gap = dom.up[low] & dom.down[high] & ~pre
    if not gap:
        return "interval", pre, low, high, None
    return "non_interval", pre, low, high, (gap & -gap).bit_length() - 1


def preimage_interval_analysis(h: LatticeHom, x: int, y: int) -> PreimageIntervalReport:
    """Compute f^{-1} of the interval [x, y] and report its shape.

    For a nonempty preimage, low/high are its infimum and supremum in the
    domain; the preimage is an interval exactly when it equals [low, high].
    """
    if not h.codomain.leq(x, y):
        raise ValueError("need x <= y in the codomain")
    kind, pre, low, high, missing = _preimage_shape(h, x, y)
    return PreimageIntervalReport(kind, low, high, ElementSet(h.domain, pre), missing)


@dataclass(frozen=True)
class PreimageScan:
    all_interval_or_empty: bool
    intervals_checked: int
    failure: Optional[PreimageIntervalReport]
    failure_interval: Optional[tuple[int, int]]


def preimage_scan(h: LatticeHom, *, principal_only: bool = False) -> PreimageScan:
    """Analyze the preimages of codomain intervals.

    ``principal_only`` restricts the scan to the subbasic closed sets,
    i.e. the intervals [bottom, x] and [x, top]; the default scans every
    interval [x, y].  Both views are reported by the CLI.  The scan runs
    on masks; the report is built only for a failing interval.
    """
    cod = h.codomain
    if principal_only:
        bot, top = cod.bottom, cod.top
        if bot is None or top is None:
            raise ValueError("principal scan needs a bounded codomain")
        pairs = [(bot, x) for x in range(cod.n)] + [(x, top) for x in range(cod.n)]
    else:
        pairs = [(x, y) for x in range(cod.n) for y in iter_bits(cod.up[x])]
    checked = 0
    for x, y in pairs:
        checked += 1
        if _preimage_shape(h, x, y)[0] == "non_interval":
            return PreimageScan(False, checked, preimage_interval_analysis(h, x, y), (x, y))
    return PreimageScan(True, checked, None, None)


def is_continuous(
    f: MapLike, t_dom: FiniteTopology, t_cod: FiniteTopology, limits: Limits | None = None
) -> bool:
    """Continuity read off the minimal-neighborhood tables.

    On a finite (Alexandrov) space f is continuous exactly when
    f(U_p) is contained in U_f(p) for every point p, where U_p is the
    minimal open neighborhood of p (Alexandroff, "Diskrete Räume",
    1937): the preimage of the open set U_f(p) contains p, so it must
    contain U_p; conversely every open set is a union of minimal
    neighborhoods.  The cost is linear in the table sizes and no open
    family is built, so ``limits`` is not consulted.  Agreement with the
    literal closed-family definition is acceptance gate 9e.
    """
    mapping = _mapping_of(f)
    if len(mapping) != t_dom.carrier_size:
        raise ValueError("map does not match the domain carrier")
    if any(not (0 <= v < t_cod.carrier_size) for v in mapping):
        raise ValueError("map does not match the codomain carrier")
    cod_nbhd = t_cod.min_nbhd
    for p, nbhd in enumerate(t_dom.min_nbhd):
        target = cod_nbhd[mapping[p]]
        while nbhd:
            low = nbhd & -nbhd
            if not (target >> mapping[low.bit_length() - 1]) & 1:
                return False
            nbhd ^= low
    return True


def image_filter(f: MapLike, flt: SetFilter, codomain: Poset | None = None) -> SetFilter:
    """Filter generated by the pointwise images of the members.

    Its generator is the image of the generator: every member's image
    contains it, and it is itself the image of a member.
    """
    mapping = _mapping_of(f)
    if codomain is None:
        if not isinstance(f, LatticeHom):
            raise ValueError("codomain poset required for a bare map")
        codomain = f.codomain
    return SetFilter(codomain, _image_mask(mapping, flt.generator))


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    checked: int
    witness: Optional[dict]


def check_image_convergence(h: LatticeHom, *, singleton_only: bool = False) -> CheckReport:
    """For every filter F and point x with F order-convergent to x,
    verify that the image filter order-converges to f(x).

    ``singleton_only`` restricts the sweep to point-generated filters;
    callers enable it after confirming, for the domain at hand, that
    order-convergent filters are exactly the point-generated ones.
    """
    if h.classification != Classification.COMPLETE_HOM:
        raise ValueError("image-convergence check needs a complete homomorphism")
    dom = h.domain
    checked = 0
    generators = (
        [1 << x for x in range(dom.n)] if singleton_only else range(1, dom.full_mask + 1)
    )
    for gen in generators:
        f = SetFilter(dom, gen)
        x = order_limit(f)
        if x is None:
            continue
        checked += 1
        if order_limit(image_filter(h, f)) != h.mapping[x]:
            witness = {
                "generator": list(ElementSet(dom, gen).member_labels),
                "point": dom.labels[x],
            }
            return CheckReport(False, checked, witness)
    return CheckReport(True, checked, None)


def image_table(f: MapLike, limits: Limits | None = None) -> list[int]:
    """``table[m]`` is the image of the domain subset m, for every mask m
    of the domain carrier (one increasing pass over the masks)."""
    return subset_union_table([1 << v for v in _mapping_of(f)], limits, "image table")


def check_image_filter_inclusion(
    f: MapLike, coarse: SetFilter, fine: SetFilter, images: Optional[Sequence[int]] = None
) -> bool:
    """Given nested filters (fine contains coarse), verify the image of
    the fine one contains the image of the coarse one.

    The images are read from ``images``, the map's :func:`image_table`;
    a sweep over many filter pairs of one map builds it once and passes
    it.  Without it the table is built for this call (under the subset
    cap).
    """
    fine_gen, coarse_gen = fine.generator, coarse.generator
    if fine_gen & ~coarse_gen:
        raise ValueError("second filter must contain the first (nested generators)")
    if images is None:
        images = image_table(f)
    return images[fine_gen] & ~images[coarse_gen] == 0


def check_star_preservation(h: LatticeHom, *, singleton_only: bool = False) -> CheckReport:
    """For every filter F and point x with F star-convergent to x,
    verify the image filter star-converges to f(x)."""
    if h.classification != Classification.COMPLETE_HOM:
        raise ValueError("star-preservation check needs a complete homomorphism")
    dom = h.domain
    checked = 0
    generators = (
        [1 << x for x in range(dom.n)] if singleton_only else range(1, dom.full_mask + 1)
    )
    for gen in generators:
        f = SetFilter(dom, gen)
        points = star_limit_mask(f)
        if not points:
            continue
        image_points = star_limit_mask(image_filter(h, f))
        for x in iter_bits(points):
            checked += 1
            if not (image_points >> h.mapping[x]) & 1:
                witness = {
                    "generator": list(ElementSet(dom, gen).member_labels),
                    "point": dom.labels[x],
                }
                return CheckReport(False, checked, witness)
    return CheckReport(True, checked, None)


def hom_to_dict(h: LatticeHom) -> dict:
    from .order_core import poset_to_dict

    return {
        "domain": poset_to_dict(h.domain),
        "codomain": poset_to_dict(h.codomain),
        "map": {h.domain.labels[i]: h.codomain.labels[v] for i, v in enumerate(h.mapping)},
    }


def hom_from_dict(doc: object, resolve_poset) -> LatticeHom:
    """Parse a label-keyed hom document.

    ``resolve_poset`` turns the "domain"/"codomain" entries (inline
    object, library name, or file path) into posets.
    """
    if not isinstance(doc, dict):
        raise MalformedInputError("hom document must be a JSON object")
    for key in ("domain", "codomain", "map"):
        if key not in doc:
            raise MalformedInputError(f'hom document needs "{key}"')
    domain = resolve_poset(doc["domain"])
    codomain = resolve_poset(doc["codomain"])
    table = doc["map"]
    if not isinstance(table, dict):
        raise MalformedInputError('hom "map" must be an object of label pairs')
    mapping = [None] * domain.n
    for src, dst in table.items():
        if not isinstance(src, str) or not isinstance(dst, str):
            raise MalformedInputError("hom map entries must be labels")
        mapping[domain.index_of(src)] = codomain.index_of(dst)
    if any(v is None for v in mapping):
        raise MalformedInputError("hom map is not total on the domain")
    return classify(mapping, domain, codomain)
