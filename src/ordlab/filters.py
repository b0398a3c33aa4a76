"""Set filters on finite posets and their convergence notions.

On a finite carrier every set filter is principal: closure under finite
intersection forces the intersection of all members to be a member, so a
filter is exactly the family of supersets of one nonempty generator set,
and the routes here take that generator mask.  On any finite poset such
a filter converges, in order or in star, exactly when its generator is
one point, and then to that point (:func:`limit_mask`).
:class:`SetFilter` wraps a generator for the oracle checks.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import MalformedInputError
from .limits import check_subset_elements
from .order_core import Poset, iter_bits


def _check_generator(p: Poset, gen: int) -> None:
    if gen == 0:
        raise MalformedInputError("filter generator must be nonempty")
    if gen < 0 or gen & ~p.full_mask:
        raise MalformedInputError("filter generator out of range")


class _FilterFields(NamedTuple):
    parent: Poset
    generator: int


class SetFilter(_FilterFields):
    """The filter of all supersets of ``generator`` on ``parent``'s carrier."""

    __slots__ = ()

    def __new__(cls, parent: Poset, generator: int) -> SetFilter:
        self = super().__new__(cls, parent, generator)
        self.__post_init__()
        return self

    def __post_init__(self) -> None:
        _check_generator(self.parent, self.generator)


def limit_mask(p: Poset, gen: int) -> int:
    """The points the filter generated by ``gen`` converges to, in order
    or in star, as a bitmask: ``gen`` itself when it is one point, else 0.

    A filter order-converges to x when the inf of its upper set and the
    sup of its lower set both equal x.  On any finite poset, a point g of
    the generator G lies below every upper bound of G and above every
    lower bound, so sup(lower G) <= g <= inf(upper G) when both exist.
    The two can be equal only when every g is that one point, and the
    point filter {x} converges to x: x is the least element of its up-set
    and the greatest of its down-set.  A filter star-converges to x when
    every super-filter, generated by a nonempty subset m of G, has a
    further one that order-converges to x.  That one is {x} with x in m,
    so x lies in every nonempty subset of G, and so G = {x}.
    """
    _check_generator(p, gen)
    return 0 if gen & (gen - 1) else gen


def order_converges(f: SetFilter, x: int) -> bool:
    """True iff inf of the filter's upper set and sup of its lower set both equal x."""
    return limit_mask(f.parent, f.generator) == 1 << x


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


def star_converges(f: SetFilter, x: int) -> bool:
    """Star-convergence: every super-filter has a further super-filter
    that order-converges to x (read from :func:`limit_mask`)."""
    return limit_mask(f.parent, f.generator) == 1 << x


def upper_iff_downset(f: SetFilter, x: int) -> bool:
    """Whether the two sides of Fact 1.1 agree (they always should): x
    bounds f from above iff the down-set of x is a member of f."""
    p, gen = f.parent, f.generator
    return bool((p.upper_bounds_mask(gen) >> x) & 1) == (p.down[x] & gen == gen)


def convergence_points(f: SetFilter) -> list[int]:
    return list(iter_bits(limit_mask(f.parent, f.generator)))


def order_convergence_is_pointlike(p: Poset) -> bool:
    """The law of :func:`limit_mask` checked by the definition on one
    finite poset: for every generator, the inf of its upper bounds and the
    sup of its lower bounds exist and are equal exactly when it is one
    point."""
    check_subset_elements(p.n, "pointlike check")
    for gen in range(1, p.full_mask + 1):
        x = p.infimum_mask(p.upper_bounds_mask(gen))
        converges = x is not None and x == p.supremum_mask(p.lower_bounds_mask(gen))
        if converges == bool(gen & (gen - 1)):
            return False
    return True
