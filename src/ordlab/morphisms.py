"""Maps between finite lattices: classification and the checks built on it.

A map is classified into the strongest of: not order-preserving,
order-preserving, lattice homomorphism (binary meets and joins), complete
homomorphism (infima and suprema of all subsets, the empty one included).
On finite lattices the complete class equals "lattice hom that fixes
bottom and top"; that shortcut is the only route here, and the test
suite's oracle gate checks it against the literal all-subsets
definition.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Iterator, NamedTuple, Optional, Sequence

from . import filters
from .errors import LimitExceededError, MalformedInputError
from .limits import default_limits
from .order_core import Poset, _transpose, iter_bits, mask_of, poset_to_dict

if TYPE_CHECKING:  # for is_continuous's annotation: the convergence campaigns load no topology
    from .topology import FiniteTopology


class Classification(enum.IntEnum):
    NOT_ORDER_PRESERVING = 0
    ORDER_PRESERVING = 1
    LATTICE_HOM = 2
    COMPLETE_HOM = 3

    def render(self) -> str:
        return self.name.lower().replace("_", "-")


class LatticeHom(NamedTuple):
    """A total map between two lattices with its computed classification."""

    domain: Poset
    codomain: Poset
    mapping: tuple[int, ...]
    classification: Classification


def _maps_rows_into(mapping: Sequence[int], dom_rows: Sequence[int], cod_rows: Sequence[int]) -> bool:
    """f(dom_rows[x]) is contained in cod_rows[f(x)] for every x: order
    preservation on the ``up`` rows, continuity on the minimal
    neighbourhoods."""
    for x, rest in enumerate(dom_rows):
        target = cod_rows[mapping[x]]
        while rest:
            low = rest & -rest
            if not (target >> mapping[low.bit_length() - 1]) & 1:
                return False
            rest ^= low
    return True


def _require_lattices(domain: Poset, codomain: Poset) -> None:
    if not domain.certificate.is_lattice or not codomain.certificate.is_lattice:
        raise ValueError("classification needs lattices on both sides")


def classify(mapping: Sequence[int], domain: Poset, codomain: Poset) -> LatticeHom:
    """Classify a total map between two certified lattices: a monotone map
    is a lattice hom exactly when the hom search pinned to its values yields it."""
    m = tuple(mapping)
    if len(m) != domain.n:
        raise MalformedInputError("map is not total on the domain")
    if any(not (0 <= v < codomain.n) for v in m):
        raise MalformedInputError("map value out of codomain range")
    _require_lattices(domain, codomain)

    level = Classification.NOT_ORDER_PRESERVING
    if _maps_rows_into(m, domain.up, codomain.up):
        level = Classification.ORDER_PRESERVING
        if next(_search(domain, codomain, [1 << v for v in m]), None) is not None:
            level = Classification.LATTICE_HOM
            if m[domain.bottom] == codomain.bottom and m[domain.top] == codomain.top:
                level = Classification.COMPLETE_HOM
    return LatticeHom(domain, codomain, m, level)


def _search(domain: Poset, codomain: Poset, pins: list[int]) -> Iterator[tuple[int, ...]]:
    """Every lattice hom with its value at x in the mask ``pins[x]``: depth
    first over a linear extension of the domain, with a stack of the
    candidate masks left at each position (-1: not built yet).  The
    candidates for x are the common upper bounds of the images of its lower
    covers (monotone by transitivity).  A lattice hom also needs
    f(x ∧ y) = f(x) ∧ f(y) for each incomparable pair, applied at the later
    of x and y (their meet comes before both), and f(x ∨ y) = f(x) ∨ f(y),
    applied at x ∨ y.  Each build of a position's mask is a node, and a
    search past ``max_search_nodes`` of them raises LimitExceededError."""
    n, nc = domain.n, codomain.n
    order = sorted(range(n), key=lambda i: domain.down[i].bit_count())
    below: list[list[int]] = [[] for _ in range(n)]
    for i, j in domain.covers():
        below[j].append(i)
    meets: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    joins: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    meet_d, join_d, join_c = domain.meet_table, domain.join_table, codomain.join_table
    for pos, x in enumerate(order):
        for y in order[:pos]:
            if not (domain.down[x] >> y) & 1:
                meets[x].append((y, meet_d[x][y]))
                joins[join_d[x][y]].append((x, y))
    # meet_solutions[w][u] is the mask of the v with v ∧ w == u
    meet_solutions = [[0] * nc for _ in range(nc)]
    for v, row in enumerate(codomain.meet_table):
        for w, u in enumerate(row):
            meet_solutions[w][u] |= 1 << v
    cod_up = codomain.up
    budget = cap = default_limits().max_search_nodes
    values, stack = [0] * n, [-1] * n
    pos = 0
    while pos >= 0:
        x = order[pos]
        allowed = stack[pos]
        if allowed < 0:
            if not budget:
                raise LimitExceededError(f"hom search: {n} -> {nc} elements exceeds node budget {cap}")
            budget -= 1
            allowed = pins[x]
            for c in below[x]:
                allowed &= cod_up[values[c]]
            for y, m in meets[x]:
                allowed &= meet_solutions[values[y]][values[m]]
            for a, b in joins[x]:
                allowed &= 1 << join_c[values[a]][values[b]]
        if not allowed:
            stack[pos] = -1
            pos -= 1
            continue
        low = allowed & -allowed
        stack[pos] = allowed ^ low
        values[x] = low.bit_length() - 1
        if pos == n - 1:
            yield tuple(values)
        else:
            pos += 1


def enumerate_homs(domain: Poset, codomain: Poset) -> list[LatticeHom]:
    """Every complete hom: the lattice homs of the pruned search with
    bottom and top pinned, which on finite lattices are exactly the
    complete homs (acceptance gates 9d and 9h(c)).  The pinned top is the
    search's last position, so each hom is a node of its own, and the node
    budget bounds the list too, whatever the codomain^domain maps."""
    _require_lattices(domain, codomain)
    pins = [codomain.full_mask] * domain.n
    pins[domain.bottom] &= 1 << codomain.bottom
    pins[domain.top] &= 1 << codomain.top
    complete = Classification.COMPLETE_HOM
    return [LatticeHom(domain, codomain, m, complete) for m in _search(domain, codomain, pins)]


class PreimageIntervalReport(NamedTuple):
    """Outcome of analyzing the preimage of one codomain interval."""

    kind: str  # "empty" | "interval" | "non_interval"
    low: Optional[int]
    high: Optional[int]
    preimage: int
    missing: Optional[int]  # witness in [low, high] outside the preimage


def preimage_interval_analysis(h: LatticeHom, x: int, y: int) -> PreimageIntervalReport:
    """Compute f^{-1} of the interval [x, y] and report its shape.

    For a nonempty preimage, low/high are its infimum and supremum in the
    domain; the preimage is an interval exactly when it equals [low, high].
    """
    dom, cod = h.domain, h.codomain
    if not cod.leq(x, y):
        raise ValueError("need x <= y in the codomain")
    box = cod.up[x] & cod.down[y]
    pre = mask_of(i for i, v in enumerate(h.mapping) if (box >> v) & 1)
    kind, low, high, missing = "empty", None, None, None
    if pre:
        kind = "non_interval"
        low, high = dom.infimum_mask(pre), dom.supremum_mask(pre)
        # with no box [low, high] to compare against there is no witness
        if low is not None and high is not None:
            # pre lies inside the box; it is an interval when it fills it
            gap = dom.up[low] & dom.down[high] & ~pre
            if gap:
                missing = (gap & -gap).bit_length() - 1
            else:
                kind = "interval"
    return PreimageIntervalReport(kind, low, high, pre, missing)


class PreimageScan(NamedTuple):
    all_interval_or_empty: bool
    intervals_checked: int
    failure: Optional[PreimageIntervalReport]
    failure_interval: Optional[tuple[int, int]]


def preimage_scan(h: LatticeHom, *, principal_only: bool = False) -> PreimageScan:
    """Analyze the preimages of codomain intervals.

    ``principal_only`` restricts the scan to the subbasic closed sets,
    i.e. the intervals [bottom, x] and [x, top]; the default scans every
    interval [x, y].  Both views are reported by the CLI.

    Each interval costs one AND, f^{-1}([x, y]) = f^{-1}(up x) ∩
    f^{-1}(down y), from two transposes: ``above[x]`` holds the i with
    x <= f(i) and ``below[y]`` those with f(i) <= y.  A nonempty
    preimage is an interval exactly when it is one of the domain's
    ``interval_masks``.  The report is built only for a failing interval.
    """
    cod = h.codomain
    if principal_only:
        bot, top = cod.bottom, cod.top
        if bot is None or top is None:
            raise ValueError("principal scan needs a bounded codomain")
        pairs = [(bot, x) for x in range(cod.n)] + [(x, top) for x in range(cod.n)]
    else:
        pairs = cod.interval_pairs
    above, below = (_transpose([rows[v] for v in h.mapping], cod.n) for rows in (cod.down, cod.up))
    intervals = h.domain.interval_masks
    for checked, (x, y) in enumerate(pairs, 1):
        pre = above[x] & below[y]
        if pre and pre not in intervals:
            return PreimageScan(False, checked, preimage_interval_analysis(h, x, y), (x, y))
    return PreimageScan(True, len(pairs), None, None)


def is_continuous(mapping: Sequence[int], t_dom: FiniteTopology, t_cod: FiniteTopology) -> bool:
    """Continuity read off the minimal-neighborhood tables.

    On a finite (Alexandrov) space f is continuous exactly when
    f(U_p) is contained in U_f(p) for every point p, where U_p is the
    minimal open neighborhood of p (Alexandroff, "Diskrete Räume",
    1937): the preimage of the open set U_f(p) contains p, so it must
    contain U_p; conversely every open set is a union of minimal
    neighborhoods.  The cost is linear in the table sizes and no open
    family is built.  Agreement with the literal closed-family definition
    is acceptance gate 9e.
    """
    if len(mapping) != t_dom.carrier_size:
        raise ValueError("map does not match the domain carrier")
    if any(not (0 <= v < t_cod.carrier_size) for v in mapping):
        raise ValueError("map does not match the codomain carrier")
    return _maps_rows_into(mapping, t_dom.min_nbhd, t_cod.min_nbhd)


def image_filter(mapping: Sequence[int], gen: int) -> int:
    """The image of ``gen`` under ``mapping``: the generator of the filter
    generated by the pointwise images of the members, since every member's
    image contains it and it is itself the image of a member."""
    image = 0
    while gen:
        low = gen & -gen
        image |= 1 << mapping[low.bit_length() - 1]
        gen ^= low
    return image


class CheckReport(NamedTuple):
    passed: bool
    checked: int
    witness: Optional[dict]


def _limit_sweep(h: LatticeHom, what: str) -> CheckReport:
    """For every point filter F = {x} and point y in ``limit_mask`` of F
    on the domain, verify that f(y) is in ``limit_mask`` of the image
    filter on the codomain; one check per (F, y).

    On any finite poset a filter converges, in order or in star, exactly
    to the point of a one-point generator (see :func:`filters.limit_mask`), so
    the other filters add no check and the report (checks and first
    witness, in increasing generator order) is that of the sweep over
    every filter, for either mode.  Acceptance gate 7 compares the two.
    """
    if h.classification != Classification.COMPLETE_HOM:
        raise ValueError(f"{what} check needs a complete homomorphism")
    dom, cod = h.domain, h.codomain
    checked = 0
    for x in range(dom.n):
        gen = 1 << x
        points = filters.limit_mask(dom, gen)
        if not points:
            continue
        image_points = filters.limit_mask(cod, image_filter(h.mapping, gen))
        for y in iter_bits(points):
            checked += 1
            if not (image_points >> h.mapping[y]) & 1:
                witness = {"generator": dom.labels_of(gen), "point": dom.labels[y]}
                return CheckReport(False, checked, witness)
    return CheckReport(True, checked, None)


def check_image_convergence(h: LatticeHom) -> CheckReport:
    """For every filter F and point x with F order-convergent to x,
    verify that the image filter order-converges to f(x)."""
    return _limit_sweep(h, "image-convergence")


def check_image_filter_inclusion(mapping: Sequence[int], coarse: int, fine: int) -> bool:
    """Given the generators of nested filters (``fine`` a subset of
    ``coarse``), verify the image of the fine one contains that of the coarse one."""
    if fine & ~coarse:
        raise ValueError("second filter must contain the first (nested generators)")
    return image_filter(mapping, fine) & ~image_filter(mapping, coarse) == 0


def check_star_preservation(h: LatticeHom) -> CheckReport:
    """For every filter F and point x with F star-convergent to x,
    verify the image filter star-converges to f(x)."""
    return _limit_sweep(h, "star-preservation")


def hom_to_dict(h: LatticeHom) -> dict:
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
    if not domain.certificate.is_lattice or not codomain.certificate.is_lattice:
        raise MalformedInputError("hom document needs lattices on both sides")
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
