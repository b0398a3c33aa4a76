"""Breadth of finite lattices.

A lattice has breadth at most n when the infimum of any finite subset is
already the infimum of at most n of its elements.  Subsets here are
nonempty subsets of the carrier (the empty set is harmless either way:
its infimum, the top, is achieved by the empty subfamily).

The bound is decided by the size-bound reduction, which only inspects
subsets of size n+1: if every (n+1)-subset has an n-subset with the
same infimum, any larger subset can drop members one at a time without
changing its infimum until n are left.  The oracle gate in the test
suite checks it against the literal definition over every subset on
every lattice with up to six elements.  The breadth itself is the size
of the largest irredundant set of meet-irreducibles; gate 9i checks it
against the loop over the bounds 1, 2, ... and the literal definition.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

from .limits import check_subset_elements
from .order_core import Poset, _mask_arg, mask_of


class BreadthCheck(NamedTuple):
    holds: bool
    counterexample: Optional[int]


class BreadthReport(NamedTuple):
    lattice: Poset
    breadth: int
    witness: int


def _require_complete_lattice(lattice: Poset) -> None:
    cert = lattice.certificate
    if not cert.is_complete:
        raise ValueError("breadth is defined on complete lattices")


def has_breadth_at_most(lattice: Poset, n: int) -> BreadthCheck:
    """Decide breadth <= n, returning a violating (n+1)-subset on failure."""
    _require_complete_lattice(lattice)
    if n < 1:
        raise ValueError("breadth bound must be positive")
    check_subset_elements(lattice.n, "breadth check")
    for combo in itertools.combinations(range(lattice.n), n + 1):
        subset = mask_of(combo)
        target = lattice.infimum_mask(subset)
        reducible = False
        for drop in combo:
            if lattice.infimum_mask(subset & ~(1 << drop)) == target:
                reducible = True
                break
        if not reducible:
            return BreadthCheck(False, subset)
    return BreadthCheck(True, None)


def is_irredundant(lattice: Poset, mask: int) -> bool:
    """No proper subset (the empty one included) has the same infimum."""
    mask = _mask_arg(lattice, mask)
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

    Two sets have the same infimum exactly when they have the same lower
    bounds, the AND of their down rows.  Irredundance is hereditary, so
    the sets grow one meet-irreducible at a time, in index order, each
    kept with its lower bounds and those of each set one member short; a
    new member keeps the set irredundant when the grown set's lower bounds
    differ from all of those.
    """
    ups = set(lattice.up)
    rows = [lattice.down[m] for m, row in enumerate(lattice.up) if row ^ (1 << m) in ups]
    size, sets = 0, [(0, lattice.full_mask, ())]
    while True:
        grown = []
        for start, lower, drops in sets:
            for i in range(start, len(rows)):
                row = rows[i]
                dropped = (*(d & row for d in drops), lower)
                if lower & row not in dropped:
                    grown.append((i + 1, lower & row, dropped))
        if not grown:
            return max(size, 1)
        size, sets = size + 1, grown


def compute_breadth(lattice: Poset) -> BreadthReport:
    """Least n with breadth <= n, plus an irredundant witness of that size:
    the first n-subset of the carrier that :func:`has_breadth_at_most`
    finds to violate breadth <= n-1.

    The one-element lattice is degenerate: its breadth is 1 but no
    single element is irredundant (the empty subset already reaches the
    top), so the witness is the empty set there.
    """
    _require_complete_lattice(lattice)
    check_subset_elements(lattice.n, "breadth check")
    n = _meet_irreducible_breadth(lattice)
    if n > 1:
        # no single drop keeps the violation's infimum, so no proper
        # subset does either: every set between the two would share it
        witness = has_breadth_at_most(lattice, n - 1).counterexample
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
