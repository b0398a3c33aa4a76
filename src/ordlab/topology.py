"""Finite topologies generated from subbases.

A topology on a finite carrier is determined by the smallest open set
around each point: a set is open exactly when it contains the minimal
neighborhood of each of its points, and the whole open family is the set
of unions of minimal neighborhoods.  Storing the minimal-neighborhood
table (one bitmask per point) therefore represents the topology exactly
while staying linear in the carrier size; a discrete topology on 64
points has 2^64 open sets but a 64-entry table.  The full family can
still be materialized for small carriers, and the generation algorithm
is cross-checked against a brute-force oracle in the test suite.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Sequence

from .limits import check_product, check_subset_elements
from .order_core import Poset, _box_rows, _row_unions, iter_bits


class _TopologyFields(NamedTuple):
    carrier_size: int
    min_nbhd: tuple[int, ...]


class FiniteTopology(_TopologyFields):
    """A topology on ``{0..carrier_size-1}`` as minimal neighborhoods.

    ``min_nbhd[p]`` is the intersection of all open sets containing p.
    Two topologies on the same carrier are equal iff these tables are
    equal, so equality of the two fields is genuine set-family equality.
    """

    __slots__ = ()

    def __new__(cls, carrier_size: int, min_nbhd: tuple[int, ...]) -> FiniteTopology:
        full = (1 << carrier_size) - 1
        if len(min_nbhd) != carrier_size:
            raise ValueError("neighborhood table size mismatch")
        for p, nb in enumerate(min_nbhd):
            if nb & ~full or not (nb >> p) & 1:
                raise ValueError("invalid minimal neighborhood")
            for q in iter_bits(nb):
                if min_nbhd[q] & ~nb:
                    raise ValueError("neighborhood table not closed under the topology")
        return super().__new__(cls, carrier_size, min_nbhd)

    @property
    def full_mask(self) -> int:
        return (1 << self.carrier_size) - 1

    def opens(self) -> tuple[int, ...]:
        """Materialize the whole open family (small carriers only)."""
        check_subset_elements(self.carrier_size, "open-family materialization")
        # the opens are the unions of minimal neighbourhoods; the bounds go unread
        return tuple(sorted(_row_unions(self.min_nbhd, self.min_nbhd, 0)))

    def closed_family(self) -> tuple[int, ...]:
        full = self.full_mask
        return tuple(sorted(full & ~m for m in self.opens()))


def from_closed_subbasis(carrier_size: int, closed_sets: Iterable[int]) -> FiniteTopology:
    """Coarsest topology in which every listed set is closed.

    The closed family it generates is all intersections of finite unions
    of the listed sets together with the empty set and the carrier; the
    minimal neighborhood of p is the complement of the union of the
    listed sets avoiding p.
    """
    full = (1 << carrier_size) - 1
    sets = list(closed_sets)
    for c in sets:
        if c < 0 or c & ~full:
            raise ValueError("closed set out of carrier range")
    table = []
    for p in range(carrier_size):
        nb = full
        for c in sets:
            if not (c >> p) & 1:
                nb &= ~c
        table.append(nb & full)
    return FiniteTopology(carrier_size, tuple(table))


def from_open_subbasis(carrier_size: int, open_sets: Iterable[int]) -> FiniteTopology:
    """Topology generated by the listed sets as an open subbasis: the one
    their complements generate as a closed subbasis."""
    full = (1 << carrier_size) - 1
    sets = list(open_sets)
    for u in sets:
        if u < 0 or u & ~full:
            raise ValueError("open set out of carrier range")
    return from_closed_subbasis(carrier_size, [full & ~u for u in sets])


def interval_topology(p: Poset) -> FiniteTopology:
    """Closed subbasis: all principal down-sets and up-sets."""
    return from_closed_subbasis(p.n, list(p.down) + list(p.up))


def lower_topology(p: Poset) -> FiniteTopology:
    """Closed subbasis: the principal down-sets only."""
    return from_closed_subbasis(p.n, list(p.down))


def upper_topology(p: Poset) -> FiniteTopology:
    """Closed subbasis: the principal up-sets only."""
    return from_closed_subbasis(p.n, list(p.up))


def product_topology(factors: Sequence[FiniteTopology]) -> FiniteTopology:
    """Product topology on the tuple carrier.

    Tuple indexing matches :func:`ordlab.order_core.product`: element i of
    the product is the i-th tuple in itertools.product order (last factor
    fastest).  Open subbasis: preimages of factor opens under projections,
    so the minimal neighbourhood of a tuple is the box of its coordinates'
    minimal neighbourhoods.
    """
    if not factors:
        raise ValueError("product needs at least one factor")
    total = check_product([t.carrier_size for t in factors], "product topology")
    return FiniteTopology(total, tuple(_box_rows([t.min_nbhd for t in factors])))


def topologies_equal(a: FiniteTopology, b: FiniteTopology) -> bool:
    """Exact set-family equality."""
    if a.carrier_size != b.carrier_size:
        raise ValueError("carrier size mismatch")
    return a.min_nbhd == b.min_nbhd


def is_hausdorff(t: FiniteTopology) -> bool:
    """Every two distinct points have disjoint open neighborhoods."""
    for p in range(t.carrier_size):
        for q in range(p + 1, t.carrier_size):
            if t.min_nbhd[p] & t.min_nbhd[q]:
                return False
    return True


def is_t1(t: FiniteTopology) -> bool:
    """Every singleton is closed."""
    for p in range(t.carrier_size):
        for q in range(t.carrier_size):
            if q != p and (t.min_nbhd[q] >> p) & 1:
                return False
    return True


def is_discrete(t: FiniteTopology) -> bool:
    """Every singleton is open."""
    return all(t.min_nbhd[p] == 1 << p for p in range(t.carrier_size))


def topology_to_dict(t: FiniteTopology) -> dict:
    """JSON dump: each open as a sorted index list, opens sorted lexicographically."""
    opens = [list(iter_bits(m)) for m in t.opens()]
    opens.sort()
    return {"carrier": t.carrier_size, "opens": opens}
