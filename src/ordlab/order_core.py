"""Finite posets and lattices.

Elements are integer indices ``0..n-1`` carrying distinct display labels.
The order relation is stored as per-element bitmasks: ``down[i]`` is the
set of elements below-or-equal to ``i`` and ``up[i]`` the set above it.
Every subset of the carrier, in the public API too, is a plain int
bitmask; :meth:`Poset.labels_of` renders one.  Lattice-ness is
read off the rows alone (:func:`_is_lattice`); the full certificate is
built on first access to ``Poset.certificate``.  All values are
immutable and all operations are pure, so posets can be shared freely
across concurrent enumeration campaigns.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import MalformedInputError
from .limits import check_elements, check_power_of_two, check_product


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def subset_intersection_table(rows: Sequence[int], full: int) -> list[int]:
    """``table[m]`` is the AND of ``rows[i]`` over the bits i of m (``full``
    for 0), for every mask m, in one increasing pass: the masks with top bit
    i are the 2^i before them, each with ``rows[i]`` added.  2^n entries, so
    callers hold n to the subset-enumeration limit."""
    table = [full]
    for row in rows:
        table += [t & row for t in table]
    return table


def _image_table(mapping: Sequence[int]) -> list[int]:
    """``table[m]`` is the image of the domain subset m under ``mapping``
    (domain index -> codomain index), for every mask m; built and
    unguarded like :func:`subset_intersection_table`."""
    table = [0]
    for bit in [1 << v for v in mapping]:
        table += [t | bit for t in table]
    return table


def _row_unions(rows: Sequence[int], tags: Sequence[int], full: int) -> dict[int, int]:
    """Every union of ``rows`` (0 included) mapped to the AND of the ``tags``
    of the rows it took (``full`` for 0), grown one row at a time, so the
    cost follows the family and not 2^len(rows).  On ``down`` rows tagged
    with ``up`` rows: every down-set with its upper bounds, whichever rows
    reached it, as they include its maximal members."""
    unions = {0: full}
    for row, tag in zip(rows, tags):
        for seen, bound in list(unions.items()):
            unions.setdefault(seen | row, bound & tag)
    return unions


def _downset_member_table(p: Poset) -> list[int]:
    """``table[m]`` is the set of points x whose down-set is a member of the
    filter generated by m, scattered from the subsets of each ``down[x]``;
    by Fact 1.1 it is the upper-bounds table.  Unguarded, like the above."""
    table = [0] * (p.full_mask + 1)
    table[0] = p.full_mask  # the empty set lies in every down-set
    for x, row in enumerate(p.down):
        bit, sub = 1 << x, row
        while sub:
            table[sub] |= bit
            sub = (sub - 1) & row
    return table


class Poset:
    """Immutable finite partially ordered set."""

    def __init__(self, labels: Sequence[str], down_rows: Sequence[int]):
        self.labels: tuple[str, ...] = tuple(labels)
        self.n: int = len(self.labels)
        self.down: tuple[int, ...] = tuple(down_rows)
        self.full_mask: int = (1 << self.n) - 1
        # before ``up`` is derived, so short or out-of-range rows are
        # reported as malformed input rather than raising IndexError
        self._validate()
        self.up: tuple[int, ...] = _transpose(self.down, self.n)

    @classmethod
    def _from_rows(
        cls, labels: Sequence[str], down: Sequence[int], up: Optional[Sequence[int]] = None
    ) -> "Poset":
        """Trusted constructor, the only one that skips :meth:`_validate`:
        ``down`` is a valid order on the labels and ``up``, when given, its
        transpose; when None it is derived."""
        p = cls.__new__(cls)
        p.labels = tuple(labels)
        p.n = len(p.labels)
        p.down = tuple(down)
        p.full_mask = (1 << p.n) - 1
        p.up = _transpose(p.down, p.n) if up is None else tuple(up)
        return p

    def _validate(self) -> None:
        n = self.n
        _check_labels(self.labels)
        if len(self.down) != n:
            raise MalformedInputError("relation size does not match label count")
        for i, row in enumerate(self.down):
            if not isinstance(row, int) or isinstance(row, bool) or row < 0 or row & ~self.full_mask:
                raise MalformedInputError("relation row out of range")
            if not (row >> i) & 1:
                raise MalformedInputError("relation is not reflexive")
        for i in range(n):
            for j in iter_bits(self.down[i]):
                if j != i and (self.down[j] >> i) & 1:
                    raise MalformedInputError("relation is not antisymmetric")
                if self.down[j] & ~self.down[i]:
                    raise MalformedInputError("relation is not transitive")

    # -- basic queries ------------------------------------------------

    def leq(self, i: int, j: int) -> bool:
        return bool((self.down[j] >> i) & 1)

    def labels_of(self, mask: int) -> list[str]:
        """The labels of the members of ``mask``, in index order."""
        return [self.labels[i] for i in iter_bits(mask)]

    def mask_of_labels(self, labels: Iterable[str]) -> int:
        return mask_of(self.index_of(lab) for lab in labels)

    def index_of(self, label: str) -> int:
        try:
            return self._label_index[label]
        except KeyError:
            raise MalformedInputError(f"unknown label {label!r}") from None

    @cached_property
    def _label_index(self) -> dict[str, int]:
        return {lab: i for i, lab in enumerate(self.labels)}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poset):
            return NotImplemented
        return self.labels == other.labels and self.down == other.down

    def __hash__(self) -> int:
        return hash((self.labels, self.down))

    def __repr__(self) -> str:
        return f"Poset({self.n} elements: {', '.join(self.labels[:6])}{'...' if self.n > 6 else ''})"

    # -- down-sets and bounds ------------------------------------------

    def upper_bounds_mask(self, mask: int) -> int:
        """Elements above every member of the subset; the carrier when empty."""
        return _bounds_mask(self.up, _mask_arg(self, mask), self.full_mask)

    def lower_bounds_mask(self, mask: int) -> int:
        """Elements below every member of the subset; the carrier when empty."""
        return _bounds_mask(self.down, _mask_arg(self, mask), self.full_mask)

    def infimum_mask(self, mask: int) -> Optional[int]:
        """Largest lower bound, or None when absent.  inf(empty) is the top."""
        return _spanning_member(self.lower_bounds_mask(mask), self.down)

    def supremum_mask(self, mask: int) -> Optional[int]:
        """Least upper bound, or None when absent.  sup(empty) is the bottom."""
        return _spanning_member(self.upper_bounds_mask(mask), self.up)

    def meet(self, i: int, j: int) -> Optional[int]:
        return self.infimum_mask((1 << i) | (1 << j))

    def join(self, i: int, j: int) -> Optional[int]:
        return self.supremum_mask((1 << i) | (1 << j))

    @cached_property
    def bottom(self) -> Optional[int]:
        return self.up.index(self.full_mask) if self.full_mask in self.up else None

    @cached_property
    def top(self) -> Optional[int]:
        return self.down.index(self.full_mask) if self.full_mask in self.down else None

    @cached_property
    def meet_table(self) -> tuple[tuple[Optional[int], ...], ...]:
        return _pair_table(self.down)

    @cached_property
    def join_table(self) -> tuple[tuple[Optional[int], ...], ...]:
        return _pair_table(self.up)

    @cached_property
    def interval_pairs(self) -> tuple[tuple[int, int], ...]:
        """Every pair (x, y) with x <= y, by x and then y."""
        return tuple((x, y) for x in range(self.n) for y in iter_bits(self.up[x]))

    @cached_property
    def interval_masks(self) -> frozenset[int]:
        """The masks of the intervals [x, y] with x <= y."""
        return frozenset(self.up[x] & self.down[y] for x, y in self.interval_pairs)

    @cached_property
    def certificate(self) -> "LatticeCert":
        """The lattice certificate, built on first access; its ``is_lattice``
        is :func:`_is_lattice` on the rows."""
        is_lattice = _is_lattice(self.down, self.up)
        return LatticeCert(is_lattice, is_lattice and _is_distributive(self.down, self.join_table))

    # -- structure ------------------------------------------------------

    def covers(self) -> list[tuple[int, int]]:
        """Cover pairs (i, j): the interval ``up[i] & down[j]`` is {i, j} with
        i != j.  Sorted: i ascends, and j ascends through ``iter_bits``."""
        up, down = self.up, self.down
        return [(i, j) for i in range(self.n) for j in iter_bits(up[i] & ~(1 << i))
                if up[i] & down[j] == 1 << i | 1 << j]

    def dual(self) -> "Poset":
        """Same carrier with the order reversed."""
        return Poset._from_rows(self.labels, self.up, self.down)


def _bounds_mask(rows: Sequence[int], mask: int, full: int) -> int:
    """The AND of ``rows[i]`` over the bits i of ``mask``, ``full`` when it is
    empty: a subset's upper bounds on the ``up`` rows, lower on ``down``."""
    out = full
    while mask:
        low = mask & -mask
        out &= rows[low.bit_length() - 1]
        mask ^= low
    return out


def _spanning_member(bounds: int, rows: Sequence[int]) -> Optional[int]:
    """The x in ``bounds`` whose row holds all of ``bounds``, or None: the
    greatest lower bound on the ``down`` rows, the least upper on ``up``."""
    rest = bounds
    while rest:
        low = rest & -rest
        x = low.bit_length() - 1
        if not bounds & ~rows[x]:
            return x
        rest ^= low
    return None


def _is_distributive(down: Sequence[int], join: Sequence[Sequence[int]]) -> bool:
    """A finite lattice, given by its ``down`` rows and join table, is
    distributive exactly when every join-irreducible j is join-prime: j <= a v b
    gives j <= a or j <= b (Birkhoff's representation theorem; Davey and
    Priestley, "Introduction to Lattices and Order", ch. 5).  j is
    join-irreducible when the elements strictly below it have a greatest one,
    i.e. form a principal down-set."""
    n, rows = len(down), set(down)
    irr = sum(1 << j for j, row in enumerate(down) if row ^ (1 << j) in rows)
    # symmetric in a and b, and it cannot fail when they are comparable
    return all(not irr & down[join[a][b]] & ~(down[a] | down[b]) for a in range(n) for b in range(a + 1, n))


def _transpose(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """The ``width`` columns of the bit matrix ``rows``: column x holds the j
    whose row holds x, as the ``up`` rows of an order do of its ``down`` rows."""
    cols = [0] * width
    for j, row in enumerate(rows):
        bit = 1 << j
        while row:
            low = row & -row
            cols[low.bit_length() - 1] |= bit
            row ^= low
    return tuple(cols)


def _mask_arg(parent: Poset, mask: int) -> int:
    """``mask`` when it lies in the carrier of ``parent``, else ValueError."""
    if mask < 0 or mask & ~parent.full_mask:
        raise ValueError("subset mask out of range")
    return mask


class LatticeCert(NamedTuple):
    """Result of certifying a poset's lattice structure.  A finite lattice is
    complete: its bottom and top are the infimum and supremum of the empty
    set, and every nonempty subset has both by iterated meets and joins (the
    test suite checks this against the literal all-subsets definition)."""

    is_lattice: bool
    is_distributive: bool


def _check_labels(labels: Sequence[str]) -> None:
    """At least one label, at most the element cap, strings (before hashing them) and no two equal."""
    if not labels:
        raise MalformedInputError("poset needs at least one element")
    check_elements(len(labels), "poset")
    if any(not isinstance(lab, str) for lab in labels):
        raise MalformedInputError("labels must be strings")
    if len(set(labels)) != len(labels):
        raise MalformedInputError("duplicate label")


def build_poset(labels: Sequence[str], covers: Iterable[tuple[int, int]]) -> Poset:
    """Build a poset from its cover relation (Hasse edges).

    The order is the reflexive-transitive closure of the covers.  Inputs
    that are not genuine cover relations are rejected: entries that are
    not two ints, cycles, duplicate edges, and edges already implied by
    transitivity all raise :class:`MalformedInputError`.
    """
    labels = list(labels)
    _check_labels(labels)
    n = len(labels)
    edges: dict[tuple[int, int], None] = {}  # not a set: the implied-edge test names the first in input order
    for pair in covers:
        i, j = pair if isinstance(pair, (list, tuple)) and len(pair) == 2 else (None, None)
        if not all(isinstance(v, int) and not isinstance(v, bool) for v in (i, j)):
            raise MalformedInputError(f"bad cover entry: {pair!r}")
        if not (0 <= i < n and 0 <= j < n):
            raise MalformedInputError(f"cover index out of range: {(i, j)}")
        if i == j:
            raise MalformedInputError(f"cycle detected at element {i}")
        if (i, j) in edges:
            raise MalformedInputError(f"duplicate cover {(i, j)}")
        edges[i, j] = None

    down = [1 << v for v in range(n)]
    for i, j in edges:
        down[j] |= 1 << i
    for k in range(n):  # Warshall's closure on the rows
        row, bit = down[k], 1 << k
        down = [d | row if d & bit else d for d in down]
    p = Poset._from_rows(labels, down)
    if any(d & u != 1 << v for v, (d, u) in enumerate(zip(p.down, p.up))):
        raise MalformedInputError("cycle detected in covers")
    for i, j in edges:
        if p.up[i] & p.down[j] != 1 << i | 1 << j:
            raise MalformedInputError(
                f"edge {(i, j)} is implied by other covers; supply covers only, not the full relation"
            )
    return p


def _pair_table(rows: Sequence[int]) -> tuple[tuple[Optional[int], ...], ...]:
    """Meets from the ``down`` rows, joins from the ``up`` rows: the lower
    bounds ``down[i] & down[j]`` of {i, j} have a greatest element k exactly
    when they are the row ``down[k]``, so ``table[i][j]`` is the k with
    ``rows[k] == rows[i] & rows[j]``, or None.  Each unordered pair is looked
    up once."""
    n = len(rows)
    index = {row: k for k, row in enumerate(rows)}
    table = [[None] * n for _ in range(n)]
    for i, row_i in enumerate(rows):
        out = table[i]
        out[i] = i
        for j in range(i + 1, n):
            out[j] = table[j][i] = index.get(row_i & rows[j])
    return tuple(map(tuple, table))


def _is_lattice(down: Sequence[int], up: Sequence[int]) -> bool:
    """Lattice test on the order rows: a finite poset is a lattice when it
    has a bottom (a full ``up`` row), a top (a full ``down`` row) and a join
    for every pair, i.e. the upper bounds ``up[i] & up[j]`` are a row
    ``up[k]``; the meet of x and y is then the join of their lower bounds.
    Comparable pairs always pass, so testing every pair costs nothing extra."""
    full = (1 << len(up)) - 1
    return full in up and full in down and _pairs_have_joins(up)


def _pairs_have_joins(up: Sequence[int]) -> bool:
    """The pair test of :func:`_is_lattice`, for callers that check the
    bounds: every ``up[i] & up[j]`` with i < j is a row, as one set comparison."""
    return set(up).issuperset(itertools.starmap(operator.and_, itertools.combinations(up, 2)))


def variant_distributive_identity_holds(p: Poset) -> bool:
    """Exhaustively check x ∧ (y ∨ z) = (x ∨ y) ∧ (x ∨ z) on a lattice.

    This is not the standard distributive law (which uses x ∧ y and
    x ∧ z on the right); it is reported separately so callers can see
    whether a lattice happens to satisfy it.
    """
    cert = p.certificate
    if not cert.is_lattice:
        raise ValueError("variant identity is only defined on lattices")
    meet, join = p.meet_table, p.join_table
    return all(
        meet[x][join[y][z]] == meet[join[x][y]][join[x][z]]
        for x in range(p.n)
        for y in range(p.n)
        for z in range(p.n)
    )


def _box_rows(factor_rows: Sequence[Sequence[int]]) -> list[int]:
    """Rows of a product carrier from one row table per factor.

    The carrier lists the tuples in ``itertools.product`` order (last factor
    fastest), and row t is the set of tuples whose k-th coordinate lies in
    ``factor_rows[k][t[k]]`` for every k: the product order from the
    factors' ``down`` (or ``up``) rows, the product topology from their
    minimal neighbourhoods.  One factor at a time, tuple (t, v) is index
    t*m + v for a factor of m points: its row is row t widened to the whole
    block of every tuple in it, ANDed with the factor's row v repeated in
    every block.
    """
    rows, size = [1], 1  # the one empty tuple
    for table in factor_rows:
        m = len(table)
        block = (1 << m) - 1
        ones = sum(1 << m * i for i in range(size))  # bit 0 of every block
        widened = [sum(block << m * i for i in iter_bits(row)) for row in rows]
        tiled = [row * ones for row in table]
        rows = [w & t for w in widened for t in tiled]
        size *= m
    return rows


def product(posets: Sequence[Poset]) -> Poset:
    """Direct product ordered pointwise.

    Element i of the product corresponds to the i-th tuple in
    ``itertools.product`` order over the factor carriers (last factor
    varies fastest); labels are tuple renderings of factor labels.
    """
    if not posets:
        raise ValueError("product needs at least one factor")
    check_product([p.n for p in posets], "product")
    labels = ["(" + ",".join(t) + ")" for t in itertools.product(*(p.labels for p in posets))]
    return Poset._from_rows(labels, _box_rows([p.down for p in posets]), _box_rows([p.up for p in posets]))


def boolean_power(n: int) -> Poset:
    """The lattice of n-bit vectors ordered pointwise: the product of n
    chains 0 < 1.

    Element i is the vector whose label is the width-n binary rendering
    of i, so coordinate m is character m of the label.
    """
    if n < 1:
        raise ValueError("boolean_power needs n >= 1")
    size = check_power_of_two(n, "boolean power")
    labels = [format(i, f"0{n}b") for i in range(size)]
    return Poset._from_rows(labels, _box_rows([(0b01, 0b11)] * n), _box_rows([(0b11, 0b10)] * n))


def are_order_isomorphic(a: Poset, b: Poset) -> bool:
    """Backtracking isomorphism test with local-invariant pruning."""
    if a.n != b.n:
        return False

    def profiles(p: Poset) -> list[tuple[int, int]]:
        return [(d.bit_count(), u.bit_count()) for d, u in zip(p.down, p.up)]

    prof_a, prof_b = profiles(a), profiles(b)
    if sorted(prof_a) != sorted(prof_b):
        return False
    candidates = [[j for j, pj in enumerate(prof_b) if pi == pj] for pi in prof_a]
    order = sorted(range(a.n), key=lambda i: len(candidates[i]))
    assign: dict[int, int] = {}
    used = [False] * b.n
    a_down, a_up, b_down, b_up = a.down, a.up, b.down, b.up

    def extend(pos: int) -> bool:
        if pos == a.n:
            return True
        i = order[pos]
        down_i, up_i = a_down[i], a_up[i]
        for j in candidates[i]:
            if used[j]:
                continue
            # i <= i2 iff bit i2 of up[i], i2 <= i iff bit i2 of down[i]
            down_j, up_j = b_down[j], b_up[j]
            for i2, j2 in assign.items():
                if (up_i >> i2 ^ up_j >> j2) & 1 or (down_i >> i2 ^ down_j >> j2) & 1:
                    break
            else:
                assign[i] = j
                used[j] = True
                if extend(pos + 1):
                    return True
                del assign[i]
                used[j] = False
        return False

    return extend(0)


# The library posets' names.  ``catalog.named_poset`` builds each one from
# its name, and the CLI reads this table, so that a library name wins over
# a file of that name without loading ``catalog`` for a file path.
LIBRARY_NAMES = frozenset(
    "1 2 chain2 chain3 chain4 chain5 chain6 chain7 chain8 2^1 2^2 2^3 2^4 M2 M3 M4 M5 N5 "
    "2xchain3 2xchain4 chain3xchain3 2xM3".split()
)


def poset_to_dict(p: Poset) -> dict:
    """JSON-ready form: labels plus the sorted cover list."""
    return {"labels": list(p.labels), "covers": [list(c) for c in p.covers()]}


def poset_from_dict(doc: object) -> Poset:
    if not isinstance(doc, dict):
        raise MalformedInputError("poset document must be a JSON object")
    labels = doc.get("labels")
    covers = doc.get("covers")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise MalformedInputError('poset document needs "labels": [string, ...]')
    if not isinstance(covers, list):
        raise MalformedInputError('poset document needs "covers": [[i, j], ...]')
    return build_poset(labels, covers)
