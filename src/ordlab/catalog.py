"""Instance families: named posets, exhaustive enumeration, random generators.

The named library covers the structures every campaign iterates over:
chains, bounded antichains (M_k diamonds), the n-bit vector lattices,
M3, N5, and a few products.  ``all_posets`` enumerates every labeled
poset on n <= 8 points into a :class:`PosetFamily` of packed int codes,
each size by one-point extensions of the size below.  ``all_lattices``
takes only the bounded extensions of the (n-1)-point census: a base with
neither bound yields none, a base with one bound the one extension where
the new point is the other, a bounded base those that keep both bounds,
and the empty base its one extension, the one-point lattice; it builds
the ones that pass the row pair test.  ``iso_representatives`` keeps one
poset per isomorphism class, relabelling rows through tables built once
per profile order within the call.  ``random_poset``/``random_lattice``
produce seeded deterministic samples.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from random import Random
from typing import Iterable, Iterator, Optional

from .errors import LimitExceededError, OrdlabError
from .limits import check_elements, check_subset_elements
from .order_core import (
    LIBRARY_NAMES,
    Poset,
    _image_table,
    _pairs_have_joins,
    _row_unions,
    are_order_isomorphic,
    boolean_power,
    build_poset,
    mask_of,
    product,
)


def chain(k: int) -> Poset:
    """Total order 0 < 1 < ... < k-1."""
    if k < 1:
        raise ValueError("chain needs at least one element")
    return build_poset([str(i) for i in range(k)], [(i, i + 1) for i in range(k - 1)])


def two() -> Poset:
    """The two-element lattice {0, 1} with 0 < 1."""
    return chain(2)


def antichain_bounded(k: int) -> Poset:
    """k pairwise-incomparable atoms between a bottom and a top (M_k)."""
    if k < 1:
        raise ValueError("need at least one atom")
    labels = ["0"] + [f"a{i + 1}" for i in range(k)] + ["1"]
    covers = [(0, i + 1) for i in range(k)] + [(i + 1, k + 1) for i in range(k)]
    return build_poset(labels, covers)


def m3() -> Poset:
    """The diamond: bottom, three incomparable atoms, top."""
    return build_poset(
        ["0", "a", "b", "c", "1"],
        [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],
    )


def n5() -> Poset:
    """The pentagon: 0 < a < c < 1 with b incomparable to a and c."""
    return build_poset(
        ["0", "a", "b", "c", "1"],
        [(0, 1), (1, 3), (3, 4), (0, 2), (2, 4)],
    )


def named_poset(name: str) -> Poset:
    """The library poset ``name``, one of ``order_core.LIBRARY_NAMES``, read
    off its name: ``AxB`` is the product of A and B, ``2^k`` the k-bit
    vectors, ``M3`` and ``N5`` the diamond and the pentagon, another ``Mk``
    the k atoms between a bottom and a top, and ``chaink`` or ``k`` the
    k-chain."""
    if name not in LIBRARY_NAMES:
        raise KeyError(f"unknown poset name {name!r}")
    if "x" in name:
        return product([named_poset(factor) for factor in name.split("x")])
    if name == "M3":
        return m3()
    if name == "N5":
        return n5()
    if name.startswith("M"):
        return antichain_bounded(int(name[1:]))
    if name.startswith("2^"):
        return boolean_power(int(name[2:]))
    return chain(int(name.removeprefix("chain")))


def _library_size(name: str) -> int:
    """The size of ``named_poset(name)``, read off the name without building the poset."""
    if "x" in name:
        return math.prod(map(_library_size, name.split("x")))
    if name[0] in "MN":
        return 5 if name == "N5" else int(name[1:]) + 2
    return 1 << int(name[2:]) if name.startswith("2^") else int(name.removeprefix("chain"))


def poset_names() -> list[str]:
    return sorted(LIBRARY_NAMES)


def library_posets(max_size: int) -> list[tuple[str, Poset]]:
    """The deterministic instance family, sorted by size then name.

    Always contains the chain 2, the n-bit vector lattices with n <= 4,
    and products of chains, subject to the size cap; a name past the cap
    is never built, so the element guard sees only the posets kept.
    """
    fitting = sorted((size, name) for name in poset_names() if (size := _library_size(name)) <= max_size)
    # Drop alias entries that duplicate an identical poset already kept.
    out: list[tuple[str, Poset]] = []
    for _, name in fitting:
        p = named_poset(name)
        if not any(p == q for _, q in out):
            out.append((name, p))
    return out


def library_lattices(max_size: int) -> list[tuple[str, Poset]]:
    return [(name, p) for name, p in library_posets(max_size) if p.certificate.is_lattice]


class PosetFamily:
    """Labeled posets on the carrier {0..n-1}, each stored as one int code:
    byte i is ``down[i]`` and byte n+i is ``up[i]``.  Ints are not tracked
    by the cyclic garbage collector, so holding a family costs no
    collection time; a :class:`Poset` is built only when one is read."""

    __slots__ = ("n", "labels", "codes")

    def __init__(self, n: int, codes: tuple[int, ...]) -> None:
        self.n, self.labels, self.codes = n, tuple(str(i) for i in range(n)), codes

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index: int) -> Poset:
        down, up = self.rows(self.codes[index])
        return Poset._from_rows(self.labels, down, up)

    def __iter__(self) -> Iterator[Poset]:
        return map(self.__getitem__, range(len(self.codes)))

    def rows(self, code: int) -> tuple[bytes, bytes]:
        raw = code.to_bytes(2 * self.n, "little")
        return raw[: self.n], raw[self.n :]


def _check_census(n: int, name: str) -> None:
    """The census guards, run on every call before any cached family is read."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > 8:
        raise LimitExceededError(f"{name}: {n} points exceeds limit 8 (one byte per order row)")
    check_subset_elements(n - 1, "upper-bounds table")  # the extension bounds every down-set of n-1 rows


def all_posets(n: int) -> PosetFamily:
    """Every labeled poset on carrier {0..n-1}, n <= 8, as a packed family.

    Each poset on n elements restricts to exactly one poset on the first
    n-1 elements, so extending every smaller poset by a fresh element z
    (choosing the down-set below z and an up-set above it, compatible
    with transitivity) enumerates each labeled poset exactly once.  Both
    choices are read off the smaller poset's down-sets with their upper
    bounds, as each up-set is the complement of a down-set.  The families
    are cached per size; the guards run on every call.
    """
    _check_census(n, "all_posets")
    return _extend_posets(n)


def _extension_tables(n: int) -> tuple[PosetFamily, list[int], list[int]]:
    """The census on m = n - 1 points that a new point z = m extends (the
    empty poset when m = 0), and the bits z adds to a code on n points:
    ``above[u]`` when z lies below the up-set u, ``below[d]`` when it lies
    above the down-set d (any mask is both on an antichain)."""
    m, z_bit = n - 1, 1 << (n - 1)
    # z's own row is the set plus z, and z joins each member's opposite row
    spread = _image_table([8 * i + m for i in range(m)])
    above = [(u | z_bit) << 8 * (2 * n - 1) | spread[u] for u in range(1 << m)]
    spread = _image_table([8 * (n + i) + m for i in range(m)])
    below = [(d | z_bit) << 8 * m | spread[d] for d in range(1 << m)]
    return (all_posets(m) if m else PosetFamily(0, (0,))), above, below


def _head(down: bytes, up: bytes) -> int:
    """A base's rows at their places in a code on one more point."""
    return int.from_bytes(down + b"\0" + up, "little")


def _down_and_up_sets(down: bytes, up: bytes, full: int) -> tuple[dict[int, int], list[int], list[int]]:
    """A base's down-sets with their upper bounds, from one walk over its
    rows; the down-sets ascending; and the up-sets ascending, which are
    their complements in descending order."""
    bounds = _row_unions(down, up, full)
    down_sets = sorted(bounds)
    return bounds, down_sets, [full ^ d for d in reversed(down_sets)]


@lru_cache(maxsize=None)
def _extend_posets(n: int) -> PosetFamily:
    """The body of :func:`all_posets`, which it calls for the smaller sizes.

    Output order: the smaller posets in their census order, then the
    down-sets d below z ascending, then the up-sets u above z ascending.
    Each base's codes come from one comprehension, in which each down-set
    tests every up-set against its bounds: that costs less than a walk over
    the up-sets inside the bounds, once per down-set (measured 2x slower on
    6 points), or a list of them per distinct bound.
    """
    full = (1 << (n - 1)) - 1  # the base's carrier
    bases, above, below = _extension_tables(n)
    out: list[int] = []
    for code in bases.codes:
        down, up = bases.rows(code)
        head, (bounds, down_sets, up_sets) = _head(down, up), _down_and_up_sets(down, up, full)
        # everything above the new element must be above all of d, and outside d
        out += [
            placed | above[u]
            for d in down_sets for outside, placed in ((d | full ^ bounds[d], head | below[d]),)
            for u in up_sets if not u & outside
        ]
    return PosetFamily(n, tuple(out))


def all_posets_up_to(n: int) -> Iterator[Poset]:
    return itertools.chain(*[all_posets(k) for k in range(1, n + 1)])


def all_lattices(n: int) -> tuple[Poset, ...]:
    """Every labeled lattice on carrier {0..n-1}, in the census order of
    :func:`all_posets`, built from the bounded extensions of the census on
    m = n - 1 points: only bounded posets are lattices, and a bounded
    extension has all joins exactly when every pair's upper bounds
    ``up[i] & up[j]`` are an up row (``order_core._pairs_have_joins``).

    A base extended by z below the up-set u and above the down-set d has a
    top exactly when d is the whole base, or the base has a top t and
    t is in u; it has a bottom exactly when u is the whole base, or the base
    has a bottom b and b is in d.  So, for m >= 1, a base with neither bound
    yields nothing; a base with only a top yields d = {} and u = the base
    (z becomes the bottom); a base with only a bottom yields d = the base
    and u = {} (z becomes the top); and a bounded base yields the (d, u) of
    the census walk with (d the base, or u nonempty) and (u the base, or d
    nonempty), as every nonempty up-set holds its top and every nonempty
    down-set its bottom.  For m = 0, d = u = {} satisfies both.  The
    candidates are a subsequence of :func:`_extend_posets`' output, placed
    by the same tables, so the census order is kept; only the bounded ones
    are built as codes, only the lattices as posets, and neither they nor a
    certificate are cached.  No poset family on n points is built.
    """
    _check_census(n, "all_lattices")
    m, full = n - 1, (1 << (n - 1)) - 1
    bases, above, below = _extension_tables(n)
    raws: list[bytes] = []
    for code in bases.codes:
        down, up = bases.rows(code)
        top, bottom = full in down, full in up  # a full down row is a top, a full up row a bottom
        if top and bottom or not m:
            bounds, down_sets, up_sets = _down_and_up_sets(down, up, full)
            pairs = [
                (d, u)
                for d in down_sets for outside in (d | full ^ bounds[d],)
                for u in up_sets if not u & outside and (d == full or u) and (u == full or d)
            ]
        elif top or bottom:
            pairs = [(0, full) if top else (full, 0)]  # z must be the bound the base lacks
        else:
            continue
        head = _head(down, up)
        raws += [(head | below[d] | above[u]).to_bytes(2 * n, "little") for d, u in pairs]
    labels = tuple(str(i) for i in range(n))
    return tuple([Poset._from_rows(labels, raw[:n], raw[n:]) for raw in raws if _pairs_have_joins(raw[n:])])


def _relabel_tables(order: tuple[int, ...]) -> list[tuple[int, list[int]]]:
    """For each 8-bit chunk of a row on ``len(order)`` points, its shift and
    the image table of its points under the relabelling that moves each
    point ``order[k]`` to bit k."""
    position = sorted(range(len(order)), key=order.__getitem__)  # the inverse of order
    return [(shift, _image_table(position[shift : shift + 8])) for shift in range(0, len(order), 8)]


def _normal_code(down: tuple[int, ...], order: tuple[int, ...], tables: list[tuple[int, list[int]]]) -> tuple[int, ...]:
    """The down rows relabelled so that the elements come in ``order``, that
    of their ``(down count, up count)`` profile with ties by index, through
    the chunk ``tables`` of :func:`_relabel_tables` for that order.  Posets
    with equal codes are isomorphic (the relabelling is one); isomorphic
    posets may still differ in code when profiles tie.  A table has at most
    256 entries, so none grows with 2^n, and one route serves every n."""
    code = []
    for i in order:
        row, out = down[i], 0
        for shift, table in tables:
            out |= table[row >> shift & 255]
        code.append(out)
    return tuple(code)


def iso_representatives(posets: Iterable[Poset]) -> list[Poset]:
    """One representative per order-isomorphism class: the first poset of
    each class, grouped by the key (size, sorted profile, cover count) in
    the order in which the keys first appear.

    A poset whose normal code (:func:`_normal_code`) was seen before is
    isomorphic to an earlier one and is skipped; only a new code computes
    the key and runs :func:`are_order_isomorphic` against the posets kept
    under it, so each labelled shape is confirmed once.  The relabelling
    tables are built once per profile order within the call (at most 720
    of 64 entries for the 6-element lattices) and dropped with it.
    """
    seen: set[tuple[int, ...]] = set()
    buckets: dict[tuple, list[Poset]] = {}
    relabel: dict[tuple[int, ...], list[tuple[int, list[int]]]] = {}
    for p in posets:
        profile = [(d.bit_count(), u.bit_count()) for d, u in zip(p.down, p.up)]
        order = tuple(sorted(range(p.n), key=profile.__getitem__))
        tables = relabel.get(order)
        if tables is None:
            tables = relabel[order] = _relabel_tables(order)
        code = _normal_code(p.down, order, tables)
        if code in seen:
            continue
        seen.add(code)
        key = (
            p.n,
            tuple(sorted(profile)),
            len(p.covers()),
        )
        kept = buckets.setdefault(key, [])
        if not any(are_order_isomorphic(p, q) for q in kept):
            kept.append(p)
    return [p for kept in buckets.values() for p in kept]


def random_poset(size: int, rng: Random) -> Poset:
    """Random labeled poset: the transitive closure of a random DAG on
    the naturally ordered carrier, each edge i -> j drawn with
    probability 0.35."""
    if size < 1:
        raise ValueError("need size >= 1")
    check_elements(size, "poset")  # _from_rows is trusted and checks no cap
    down = [1 << i for i in range(size)]
    for j in range(size):
        for i in range(j):
            if rng.random() < 0.35:
                down[j] |= down[i]
    return Poset._from_rows([str(i) for i in range(size)], down)


def _random_distributive_lattice(size: int, rng: Random) -> Optional[Poset]:
    """Close a random family of down-sets of a random poset under union
    and intersection; the result ordered by inclusion is a distributive
    lattice, kept when it has the requested number of elements."""
    base_size = rng.randint(2, 6)
    base = random_poset(base_size, rng)
    down_sets = sorted(_row_unions(base.down, base.up, base.full_mask))
    count = rng.randint(1, len(down_sets))
    family = set(rng.sample(down_sets, count))
    while True:
        extra = {
            op(a, b)
            for a in family
            for b in family
            for op in (int.__and__, int.__or__)
        }
        if extra <= family:
            break
        family |= extra
    if len(family) != size:
        return None
    masks = sorted(family)
    down_rows = [mask_of(i for i, mi in enumerate(masks) if not mi & ~mj) for mj in masks]
    return Poset._from_rows([f"v{i}" for i in range(size)], down_rows)


def _stack(blocks: list[Poset]) -> Poset:
    """Vertical sum identifying each block's top with the next bottom."""
    covers: list[tuple[int, int]] = []
    labels: list[str] = []
    prev_top = None
    for b, block in enumerate(blocks):
        local: dict[int, int] = {}
        for i in range(block.n):
            if b > 0 and i == block.bottom:
                local[i] = prev_top
                continue
            local[i] = len(labels)
            labels.append(f"v{len(labels)}")
        for i, j in block.covers():
            covers.append((local[i], local[j]))
        prev_top = local[block.top]
    return build_poset(labels, covers)


_BLOCKS_BY_GAIN = {
    1: [lambda: chain(2)],
    2: [lambda: chain(3)],
    3: [lambda: chain(4), lambda: boolean_power(2)],
    4: [lambda: chain(5), m3, n5],
}


def _random_block_lattice(size: int, rng: Random) -> Poset:
    """Vertical composition of small bounded lattices (possibly M3/N5),
    giving non-distributive samples of exact size."""
    remaining = size - 1
    blocks: list[Poset] = []
    while remaining > 0:
        gain = rng.randint(1, min(4, remaining))
        blocks.append(rng.choice(_BLOCKS_BY_GAIN[gain])())
        remaining -= gain
    return _stack(blocks)


_LATTICE_TRIES = 500


def random_lattice(size: int, seed: int) -> Poset:
    """Seeded random lattice with exactly ``size`` elements.

    Each of up to ``_LATTICE_TRIES`` tries flips a coin between the
    down-set-family construction (distributive) and a vertical composition
    that can insert M3 and N5 fragments.  Deterministic in the seed.
    """
    if size < 2:
        raise ValueError("need size >= 2")
    check_elements(size, "poset")  # before any block is built
    rng = Random(seed)
    for _ in range(_LATTICE_TRIES):
        if rng.random() < 0.5:
            result = _random_block_lattice(size, rng)
        else:
            result = _random_distributive_lattice(size, rng)
        if result is None:
            continue
        if result.certificate.is_lattice:
            return result
    raise OrdlabError(f"could not generate a {size}-element lattice in {_LATTICE_TRIES} tries")
