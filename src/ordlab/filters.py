"""Set filters on finite posets and their convergence notions.

On a finite carrier every set filter is principal: closure under finite
intersection forces the intersection of all members to be a member, so a
filter is exactly the family of supersets of one nonempty generator set,
and the routes here take that generator mask.  :class:`SetFilter` wraps
one for the oracle checks, which materialize its ``members``.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .errors import MalformedInputError
from .limits import check_subset_elements
from .order_core import Poset, Record, iter_bits


def _check_generator(p: Poset, gen: int) -> None:
    if gen == 0:
        raise MalformedInputError("filter generator must be nonempty")
    if gen < 0 or gen & ~p.full_mask:
        raise MalformedInputError("filter generator out of range")


class SetFilter(Record):
    """The filter of all supersets of ``generator`` on ``parent``'s carrier."""

    __slots__ = _fields = ("parent", "generator")

    def __init__(self, parent: Poset, generator: int) -> None:
        object.__setattr__(self, "parent", parent)
        object.__setattr__(self, "generator", generator)
        self.__post_init__()

    def __post_init__(self) -> None:
        _check_generator(self.parent, self.generator)

    def __contains__(self, mask: int) -> bool:
        return mask & self.generator == self.generator

    def members(self) -> list[int]:
        """All member sets, i.e. every superset of the generator."""
        check_subset_elements(self.parent.n, "filter materialization")
        free = self.parent.full_mask & ~self.generator
        out = []
        sub = 0
        while True:
            out.append(self.generator | sub)
            if sub == free:
                break
            sub = (sub - free) & free
        return out


def order_limit_mask(p: Poset, gen: int) -> int:
    """The bit of the point the filter generated by ``gen`` order-converges
    to, or 0.

    A filter order-converges to x when the inf of its upper set and the
    sup of its lower set both equal x, so there is at most one such point.
    Intended for complete lattices; when a required bound is missing the
    filter converges nowhere (no error).
    """
    _check_generator(p, gen)
    if not gen & (gen - 1):
        # a point filter {x}: in every poset inf(up x) = sup(down x) = x
        return gen
    x = p.infimum_mask(p.upper_bounds_mask(gen))
    if x is None or x != p.supremum_mask(p.lower_bounds_mask(gen)):
        return 0
    return 1 << x


def order_converges(f: SetFilter, x: int) -> bool:
    """True iff inf of the filter's upper set and sup of its lower set both equal x."""
    return order_limit_mask(f.parent, f.generator) == 1 << x


def super_filters(f: SetFilter) -> list[SetFilter]:
    """All filters containing f: generators are the nonempty subsets of f's generator."""
    gen = f.generator
    check_subset_elements(gen.bit_count(), "super-filter enumeration")
    out = []
    sub = gen
    while sub:
        out.append(SetFilter(f.parent, sub))
        sub = (sub - 1) & gen
    out.sort(key=lambda g: g.generator)
    return out


def star_limit_mask(p: Poset, gen: int) -> int:
    """Bitmask of the points the filter generated by ``gen`` star-converges to.

    A filter star-converges to x when every super-filter has a further
    super-filter that order-converges to x.  The super-filters are
    generated by the nonempty subsets m of ``gen``, so with ``reach[m]``
    the limits of the filters generated by nonempty subsets of m,

        reach[m] = order limit of m | OR over i in m of reach[m - {i}],

    the star limits are the AND of ``reach[m]`` over all those m.  One
    pass over the subsets in increasing order computes it, since each
    m - {i} comes before m; it stops once the AND is empty.  Agreement
    with the per-point definition is an acceptance gate of the test
    suite.
    """
    _check_generator(p, gen)
    reach = {0: 0}
    star = -1
    m = 0
    while m != gen:
        m = (m - gen) & gen  # next subset of gen in increasing order
        r = order_limit_mask(p, m)
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


def star_converges(f: SetFilter, x: int) -> bool:
    """Star-convergence: every super-filter has a further super-filter
    that order-converges to x (read from :func:`star_limit_mask`)."""
    return bool((star_limit_mask(f.parent, f.generator) >> x) & 1)


def upper_iff_downset(f: SetFilter, x: int, upper_bounds: Optional[Sequence[int]] = None) -> bool:
    """Whether the two sides of Fact 1.1 agree (they always should): x
    bounds f from above iff the down-set of x is a member of f.  The upper
    side is read from ``upper_bounds``, the poset's ``upper_bounds_table()``,
    built for this call (under the subset cap) when not given."""
    p, gen = f.parent, f.generator
    if upper_bounds is None:
        upper_bounds = p.upper_bounds_table()
    return bool((upper_bounds[gen] >> x) & 1) == (p.down[x] & gen == gen)


def _downset_member_table(p: Poset) -> list[int]:
    """``table[m]`` is the set of points x whose down-set is a member of
    the filter generated by m, scattered from the subsets of each
    ``down[x]``: ``table == p.upper_bounds_table()`` is Fact 1.1 at once.
    Unguarded: callers hold ``p.n`` to the subset cap first."""
    table = [0] * (p.full_mask + 1)
    table[0] = p.full_mask  # the empty set lies in every down-set
    for x, row in enumerate(p.down):
        bit, sub = 1 << x, row
        while sub:
            table[sub] |= bit
            sub = (sub - 1) & row
    return table


def convergence_points(f: SetFilter) -> list[int]:
    return list(iter_bits(order_limit_mask(f.parent, f.generator)))


def order_convergence_is_pointlike(p: Poset) -> bool:
    """Brute-force the degeneracy law on one finite lattice: a filter
    order-converges to x exactly when its generator is {x}."""
    check_subset_elements(p.n, "pointlike check")
    for gen in range(1, p.full_mask + 1):
        point = gen if not gen & (gen - 1) else 0
        if order_limit_mask(p, gen) != point:
            return False
    return True
