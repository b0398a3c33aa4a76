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
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import MalformedInputError
from .limits import check_elements, check_power_of_two, check_product, check_subset_elements


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


def subset_union_table(rows: Sequence[int]) -> list[int]:
    """``table[m]`` is the OR of ``rows[i]`` over the bits i of m, for
    every mask m below 2^len(rows).

    One increasing pass over the masks: the masks whose top bit is i are
    the 2^i masks before them, each with ``rows[i]`` added.  The table has
    2^n entries, so callers hold n to the subset-enumeration limit.
    """
    table = [0]
    for row in rows:
        table += [t | row for t in table]
    return table


def subset_intersection_table(rows: Sequence[int], full: int) -> list[int]:
    """``table[m]`` is the AND of ``rows[i]`` over the bits i of m, and
    ``full`` for the empty mask; built like :func:`subset_union_table`."""
    table = [full]
    for row in rows:
        table += [t & row for t in table]
    return table


def _image_table(mapping: Sequence[int]) -> list[int]:
    """``table[m]`` is the image of the domain subset m under ``mapping``
    (domain index -> codomain index), for every mask m; unguarded, so the
    caller holds ``len(mapping)`` to the subset-enumeration limit."""
    return subset_union_table([1 << v for v in mapping])


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
        self.up: tuple[int, ...] = _transpose(self.down)

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
        p.up = _transpose(p.down) if up is None else tuple(up)
        return p

    def _validate(self) -> None:
        n = self.n
        if n < 1:
            raise MalformedInputError("poset needs at least one element")
        if len(set(self.labels)) != n:
            raise MalformedInputError("duplicate label")
        if any(not isinstance(lab, str) for lab in self.labels):
            raise MalformedInputError("labels must be strings")
        if len(self.down) != n:
            raise MalformedInputError("relation size does not match label count")
        for i, row in enumerate(self.down):
            if not isinstance(row, int) or row < 0 or row & ~self.full_mask:
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

    def is_down_set(self, mask: int) -> bool:
        """True iff the subset is closed under going down."""
        mask = _mask_arg(self, mask)
        for i in iter_bits(mask):
            if self.down[i] & ~mask:
                return False
        return True

    def upper_bounds_mask(self, mask: int) -> int:
        out = self.full_mask
        up = self.up
        while mask:
            low = mask & -mask
            out &= up[low.bit_length() - 1]
            mask ^= low
        return out

    def lower_bounds_mask(self, mask: int) -> int:
        out = self.full_mask
        down = self.down
        while mask:
            low = mask & -mask
            out &= down[low.bit_length() - 1]
            mask ^= low
        return out

    # Whole-carrier tables, one entry per subset mask; callers hold them
    # for as long as they sweep, the poset does not cache them.

    def upper_bounds_table(self) -> list[int]:
        """``table[m] == upper_bounds_mask(m)`` for every subset mask m."""
        check_subset_elements(self.n, "upper-bounds table")
        return subset_intersection_table(self.up, self.full_mask)

    def upper_bounds(self, mask: int) -> int:
        """Elements above every member of the subset; the carrier when empty."""
        return self.upper_bounds_mask(_mask_arg(self, mask))

    def infimum_mask(self, mask: int) -> Optional[int]:
        lb = self.lower_bounds_mask(mask)
        down = self.down
        rest = lb
        while rest:
            low = rest & -rest
            x = low.bit_length() - 1
            if not lb & ~down[x]:
                return x
            rest ^= low
        return None

    def supremum_mask(self, mask: int) -> Optional[int]:
        ub = self.upper_bounds_mask(mask)
        up = self.up
        rest = ub
        while rest:
            low = rest & -rest
            x = low.bit_length() - 1
            if not ub & ~up[x]:
                return x
            rest ^= low
        return None

    def infimum(self, mask: int) -> Optional[int]:
        """Largest lower bound, or None when absent.  inf(empty) is the top."""
        return self.infimum_mask(_mask_arg(self, mask))

    def supremum(self, mask: int) -> Optional[int]:
        """Least upper bound, or None when absent.  sup(empty) is the bottom."""
        return self.supremum_mask(_mask_arg(self, mask))

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
        return _certify(self)

    # -- structure ------------------------------------------------------

    def covers(self) -> list[tuple[int, int]]:
        """Cover pairs (i, j) with i strictly below j and nothing between,
        sorted: i ascends, and j ascends through ``iter_bits``."""
        out = []
        for i in range(self.n):
            strict_up = self.up[i] & ~(1 << i)
            for j in iter_bits(strict_up):
                between = self.down[j] & strict_up & ~(1 << j)
                if not between:
                    out.append((i, j))
        return out

    def dual(self) -> "Poset":
        """Same carrier with the order reversed."""
        return Poset._from_rows(self.labels, self.up, self.down)


def _transpose(down: tuple[int, ...]) -> tuple[int, ...]:
    """The ``up`` rows of the order whose ``down`` rows are given."""
    up = [0] * len(down)
    for j, row in enumerate(down):
        bit = 1 << j
        while row:
            low = row & -row
            up[low.bit_length() - 1] |= bit
            row ^= low
    return tuple(up)


def _mask_arg(parent: Poset, mask: int) -> int:
    """``mask`` when it lies in the carrier of ``parent``, else ValueError."""
    if mask < 0 or mask & ~parent.full_mask:
        raise ValueError("subset mask out of range")
    return mask


class Record:
    """Base of the immutable value classes that validate their fields or
    cache derived tables.

    A subclass lists its fields in ``_fields`` (its ``__slots__``, plus
    ``__dict__`` when it has cached properties) and sets them in
    ``__init__`` through ``object.__setattr__``; afterwards assigning or
    deleting an attribute raises :class:`AttributeError`.  Equality and
    the hash are by the fields, between instances of the same class.
    Plain records are :class:`typing.NamedTuple` classes instead.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._key()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class LatticeCert(NamedTuple):
    """Result of certifying a poset's lattice structure."""

    poset: Poset
    is_lattice: bool
    is_complete: bool
    is_distributive: bool
    bottom: Optional[int]
    top: Optional[int]


def build_poset(labels: Sequence[str], covers: Iterable[tuple[int, int]]) -> Poset:
    """Build a poset from its cover relation (Hasse edges).

    The order is the reflexive-transitive closure of the covers.  Inputs
    that are not genuine cover relations are rejected: cycles, duplicate
    edges, and edges already implied by transitivity all raise
    :class:`MalformedInputError`.
    """
    labels = list(labels)
    n = len(labels)
    if n < 1:
        raise MalformedInputError("poset needs at least one element")
    check_elements(n, "poset")
    if len(set(labels)) != n:
        raise MalformedInputError("duplicate label")
    edges = []
    seen = set()
    for pair in covers:
        i, j = pair
        if not (0 <= i < n and 0 <= j < n):
            raise MalformedInputError(f"cover index out of range: {(i, j)}")
        if i == j:
            raise MalformedInputError(f"cycle detected at element {i}")
        if (i, j) in seen:
            raise MalformedInputError(f"duplicate cover {(i, j)}")
        seen.add((i, j))
        edges.append((i, j))

    succ: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for i, j in edges:
        succ[i].append(j)
        indeg[j] += 1
    order = [v for v in range(n) if indeg[v] == 0]
    head = 0
    while head < len(order):
        v = order[head]
        head += 1
        for w in succ[v]:
            indeg[w] -= 1
            if indeg[w] == 0:
                order.append(w)
    if len(order) != n:
        raise MalformedInputError("cycle detected in covers")

    down = [1 << v for v in range(n)]
    for v in order:
        for w in succ[v]:
            down[w] |= down[v]

    for i, j in edges:
        between = down[j] & ~down[i] & ~(1 << j)
        if any((down[k] >> i) & 1 and k != i for k in iter_bits(between)):
            raise MalformedInputError(
                f"edge {(i, j)} is implied by other covers; supply covers only, not the full relation"
            )
    return Poset._from_rows(labels, down)


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
    """The pair test of :func:`_is_lattice`, for callers that check the bounds."""
    rows = set(up)
    for i, row in enumerate(up):
        for other in up[i + 1:]:
            if row & other not in rows:
                return False
    return True


def _certify(p: Poset) -> LatticeCert:
    is_lattice = _is_lattice(p.down, p.up)
    # On a finite carrier a lattice with bottom and top has all infima and
    # suprema; the test suite checks the equivalence against the literal
    # all-subsets definition.
    is_complete = is_lattice
    is_distributive = False
    if is_lattice:
        join = p.join_table
        # A finite lattice is distributive exactly when every
        # join-irreducible j is join-prime: j <= a v b gives j <= a or
        # j <= b (Birkhoff's representation theorem; Davey and Priestley,
        # "Introduction to Lattices and Order", ch. 5).  j is
        # join-irreducible when the elements strictly below it have a
        # greatest one, i.e. form a principal down-set.
        down, rows = p.down, set(p.down)
        irr = sum(1 << j for j, row in enumerate(down) if row ^ (1 << j) in rows)
        # symmetric in a and b, and it cannot fail when they are comparable
        is_distributive = all(
            not irr & down[join[a][b]] & ~(down[a] | down[b])
            for a in range(p.n)
            for b in range(a + 1, p.n)
        )
    return LatticeCert(p, is_lattice, is_complete, is_distributive, p.bottom, p.top)


def certify_lattice(p: Poset) -> LatticeCert:
    """Lattice certificate, computed on first access and cached on the
    poset; its ``is_lattice`` is :func:`_is_lattice` on the rows."""
    return p.certificate


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
    pairs = []
    for item in covers:
        if (
            not isinstance(item, (list, tuple))
            or len(item) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in item)
        ):
            raise MalformedInputError(f"bad cover entry: {item!r}")
        pairs.append((item[0], item[1]))
    return build_poset(labels, pairs)
