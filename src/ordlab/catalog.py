"""Instance families: named posets, exhaustive enumeration, random generators.

The named library covers the structures every campaign iterates over:
chains, bounded antichains (M_k diamonds), the n-bit vector lattices,
M3, N5, and a few products.  ``all_posets`` enumerates every labeled
poset on n <= 8 points into a :class:`PosetFamily` of packed int codes;
``all_lattices`` builds the ones that pass the row lattice test, and
``iso_representatives`` keeps one poset per isomorphism class.
``random_poset``/``random_lattice`` produce seeded deterministic samples.
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
    _pairs_have_joins,
    _row_unions,
    are_order_isomorphic,
    boolean_power,
    build_poset,
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
    if n < 1:
        raise ValueError("need n >= 1")
    if n > 8:
        raise LimitExceededError(f"all_posets: {n} points exceeds limit 8 (one byte per order row)")
    check_subset_elements(n - 1, "upper-bounds table")  # the extension bounds every down-set of n-1 rows
    return _extend_posets(n)


@lru_cache(maxsize=None)
def _extend_posets(n: int) -> PosetFamily:
    """The body of :func:`all_posets`, which it calls for the smaller sizes.

    Output order: the smaller posets in their census order, then the
    down-sets d below z ascending, then the up-sets u above z ascending.
    The base's down-sets come with their upper bounds from one walk over
    its rows, and its up-sets are their complements, so the down-sets in
    descending order give the up-sets ascending.  Each down-set tests every
    up-set against its bounds: that costs less than a walk over the up-sets
    inside the bounds, once per down-set (measured 2x slower on 6 points).
    """
    m, z_bit = n - 1, 1 << (n - 1)
    full = z_bit - 1  # the base's carrier
    # the bits z adds to a code below the up-set u and above the down-set d (any mask is both on an antichain)
    above, below = [z_bit << 8 * (2 * n - 1)], [z_bit << 8 * m]
    for i in range(m):
        above += [g | z_bit << 8 * i | 1 << 8 * (2 * n - 1) + i for g in above]
        below += [g | z_bit << 8 * (n + i) | 1 << 8 * m + i for g in below]
    bases = all_posets(m) if m else PosetFamily(0, (0,))  # one point: extend the empty poset
    out: list[int] = []
    for code in bases.codes:
        down, up = bases.rows(code)
        head = int.from_bytes(down + b"\0" + up, "little")  # the old rows at their new places
        bounds = _row_unions(down, up, full)
        down_sets = sorted(bounds)
        up_sets = [full ^ d for d in reversed(down_sets)]
        for d in down_sets:
            # everything above the new element must be above all of d
            allowed, head_d = bounds[d] & ~d, head | below[d]
            out += [head_d | above[u] for u in up_sets if not u & ~allowed]
    return PosetFamily(n, tuple(out))


def all_posets_up_to(n: int) -> Iterator[Poset]:
    return itertools.chain(*[all_posets(k) for k in range(1, n + 1)])


def all_lattices(n: int) -> tuple[Poset, ...]:
    """Every labeled lattice on carrier {0..n-1}, in the census order of
    :func:`all_posets`: the posets that are bounded and where every pair's
    upper bounds ``up[i] & up[j]`` are an up row (``order_core._is_lattice``).

    Each code is read as one byte string, down rows then up rows.  A full
    down row is a top and a full up row a bottom, and a poset has at most
    one of each, so two full bytes in the string mean both bounds (6,570
    of the 130,023 posets on 6 points have them); only then does the pair
    test run.  Only the lattices are built, and neither they nor a
    certificate are cached.
    """
    family, full = all_posets(n), (1 << n) - 1
    raws = map(int.to_bytes, family.codes, itertools.repeat(2 * n), itertools.repeat("little"))
    return tuple([
        Poset._from_rows(family.labels, raw[:n], raw[n:])
        for raw in raws
        if raw.count(full) == 2 and _pairs_have_joins(raw[n:])
    ])


def _normal_code(down: tuple[int, ...], profile: list[tuple[int, int]]) -> tuple[int, ...]:
    """The down rows relabelled so that the elements come in the order of
    their ``(down count, up count)`` profile, ties by index.  Posets with
    equal codes are isomorphic (the relabelling is one); isomorphic posets
    may still differ in code when profiles tie.  One pass over the bits of
    each row, so no table grows with 2^n."""
    order = sorted(range(len(down)), key=profile.__getitem__)
    new_bit = [0] * len(down)
    for k, i in enumerate(order):
        new_bit[i] = 1 << k
    code = []
    for i in order:
        row, out = down[i], 0
        while row:
            low = row & -row
            out |= new_bit[low.bit_length() - 1]
            row ^= low
        code.append(out)
    return tuple(code)


def iso_representatives(posets: Iterable[Poset]) -> list[Poset]:
    """One representative per order-isomorphism class: the first poset of
    each class, grouped by the key (size, sorted profile, cover count) in
    the order in which the keys first appear.

    A poset whose normal code (:func:`_normal_code`) was seen before is
    isomorphic to an earlier one and is skipped; only a new code computes
    the key and runs :func:`are_order_isomorphic` against the posets kept
    under it, so each labelled shape is confirmed once.
    """
    seen: set[tuple[int, ...]] = set()
    buckets: dict[tuple, list[Poset]] = {}
    for p in posets:
        profile = [(d.bit_count(), u.bit_count()) for d, u in zip(p.down, p.up)]
        code = _normal_code(p.down, profile)
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
    down_rows = []
    for j, mj in enumerate(masks):
        row = 0
        for i, mi in enumerate(masks):
            if mi & ~mj == 0:
                row |= 1 << i
        down_rows.append(row)
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
