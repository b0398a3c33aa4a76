"""Breadth of finite lattices.

A lattice has breadth at most n when the infimum of any finite subset is
already the infimum of at most n of its elements.  Subsets here are
nonempty subsets of the carrier (the empty set is harmless either way:
its infimum, the top, is achieved by the empty subfamily).

One walk over the irredundant sets (:func:`_irredundant_sets`) answers
every question here.  Over the meet-irreducibles it gives the breadth,
the size of their largest irredundant set, which decides every bound.
Breadth <= n fails exactly when some (n+1)-subset is irredundant (a
larger subset can drop members one at a time, keeping its infimum, until
n are left), and only then does the walk run over the carrier, for the
first one in lexicographic order: the counterexample, and the breadth's
witness.  The test suite's oracle gates check both against the literal
definition and a scan of the (n+1)-subsets.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional, Sequence

from .limits import check_subset_elements
from .order_core import Poset


class BreadthCheck(NamedTuple):
    holds: bool
    counterexample: Optional[int]


class BreadthReport(NamedTuple):
    lattice: Poset
    breadth: int
    witness: int


def _require_complete_lattice(lattice: Poset) -> None:
    if not lattice.certificate.is_lattice:
        raise ValueError("breadth is defined on complete lattices")


def _irredundant_sets(rows: Sequence[int], full: int, most: int) -> Iterator[int]:
    """Every irredundant set of at most ``most`` indices into the down
    rows ``rows`` (of a lattice with carrier mask ``full``), as a mask of
    indices, depth first in index order, so the sets of one size come in
    lexicographic order.

    Two sets have the same infimum exactly when they have the same lower
    bounds, the AND of their down rows, and a set is irredundant when no
    single member can be dropped (were a smaller subset to keep the
    infimum, so would every set between).  Irredundance is hereditary, so
    only irredundant sets grow, each kept with its lower bounds and those
    of each set one member short; a new member keeps the set irredundant
    when the grown set's lower bounds differ from all of those.
    """

    def grow(start: int, members: int, lower: int, drops: tuple[int, ...]) -> Iterator[int]:
        yield members
        if len(drops) < most:
            for i in range(start, len(rows)):
                row = rows[i]
                dropped = (*(d & row for d in drops), lower)
                if lower & row not in dropped:
                    yield from grow(i + 1, members | 1 << i, lower & row, dropped)

    return grow(0, 0, full, ())


def _first_irredundant(lattice: Poset, size: int) -> Optional[int]:
    """The first irredundant ``size``-subset of the carrier in lexicographic order, or None."""
    sets = _irredundant_sets(lattice.down, lattice.full_mask, size)
    return next((members for members in sets if members.bit_count() == size), None)


def has_breadth_at_most(lattice: Poset, n: int) -> BreadthCheck:
    """Decide breadth <= n on the meet-irreducibles, returning the first
    irredundant (n+1)-subset of the carrier on failure."""
    _require_complete_lattice(lattice)
    if n < 1:
        raise ValueError("breadth bound must be positive")
    check_subset_elements(lattice.n, "breadth check")
    if _meet_irreducible_breadth(lattice) <= n:
        return BreadthCheck(True, None)
    return BreadthCheck(False, _first_irredundant(lattice, n + 1))


def is_irredundant(lattice: Poset, mask: int) -> bool:
    """No proper subset (the empty one included) has the same infimum."""
    if mask == 0:
        return True
    target = lattice.infimum_mask(mask)
    sub = (mask - 1) & mask
    while True:
        if lattice.infimum_mask(sub) == target:
            return False
        if sub == 0:
            break
        sub = (sub - 1) & mask
    return True


def _meet_irreducible_breadth(lattice: Poset) -> int:
    """The size of the largest irredundant set of meet-irreducibles, and at
    least 1: the breadth of a finite lattice.

    m is meet-irreducible when it has exactly one upper cover c, that is
    when the elements strictly above m are the up-set of c (so the top is
    not).  Given irredundant a_1..a_k, let b_i be the infimum of the a_j
    with j != i; b_i is not below a_i, so some meet-irreducible m_i above
    a_i is not above b_i, and the infimum of the m_j with j != i, being
    above b_i, is not below m_i: the m_i are k distinct irredundant
    meet-irreducibles (Davey and Priestley, "Introduction to Lattices and
    Order").
    """
    ups = set(lattice.up)
    rows = [lattice.down[m] for m, row in enumerate(lattice.up) if row ^ (1 << m) in ups]
    return max(max(map(int.bit_count, _irredundant_sets(rows, lattice.full_mask, len(rows)))), 1)


def compute_breadth(lattice: Poset) -> BreadthReport:
    """Least n with breadth <= n, plus an irredundant witness of that size:
    the first irredundant n-subset of the carrier, the counterexample
    :func:`has_breadth_at_most` gives to breadth <= n-1.

    The one-element lattice is degenerate: its breadth is 1 but no
    single element is irredundant (the empty subset already reaches the
    top), so the witness is the empty set there.
    """
    _require_complete_lattice(lattice)
    check_subset_elements(lattice.n, "breadth check")
    n = _meet_irreducible_breadth(lattice)
    if n > 1:
        witness = _first_irredundant(lattice, n)
    elif lattice.n >= 2:
        witness = 1 << lattice.bottom
    else:
        witness = 0
    if witness is None or (witness and not is_irredundant(lattice, witness)):
        raise AssertionError("internal error: computed witness is redundant")
    return BreadthReport(lattice, n, witness)


def compute_dual_breadth(lattice: Poset) -> BreadthReport:
    """Breadth of the order dual (suprema in the original lattice).

    Provided as separate plumbing; it is not the breadth itself, though
    the two agree on self-dual lattices.
    """
    return compute_breadth(lattice.dual())


def coatom(n: int, m: int) -> int:
    """Element of the n-bit vector lattice that is 1 everywhere except
    coordinate m (character m of the label)."""
    if not 0 <= m < n:
        raise ValueError("coordinate out of range")
    return ((1 << n) - 1) ^ (1 << (n - 1 - m))


def coatom_family(n: int) -> list[int]:
    """All n vectors with exactly one zero coordinate; their infimum is
    the bottom and no proper subfamily reaches it."""
    return [coatom(n, m) for m in range(n)]
